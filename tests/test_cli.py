import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_squeeze import (
    DickeParams,
    classical_critical_temperature,
    normal_modes,
    squeezing_ratio_ground,
    thermal_squeezing_ratio,
)
from dicke_squeeze import bogoliubov, cli, disorder
from dicke_squeeze.ed import build_basis, build_dicke_hamiltonian, ground_state, hamiltonians
from dicke_squeeze.ed import basis as basis_module
from dicke_squeeze.ed.hamiltonians import KronSum


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _filtered(path):
    return [
        l for l in path.read_text().splitlines() if not l.startswith("# generated")
    ]


# small fig6/fig7 inputs for the ED-path tests shared with fig3; each gives at
# least two tasks, so --jobs 2 really uses the pool
_SMALL_ED = {
    "fig6": {"grids": {"n_clean": [1, 2]}, "ed": {"n_max": [8]}},
    "fig7": {"model": {"n_spins": 2}, "grids": {"eta": [0.5]}, "ed": {"n_max": [6, 8]}},
}


def _random_defects(**ranges):
    """fig6 with drawn defects; ``ranges`` overrides the valid defaults."""
    spec = {"omega_prime_range": [1, 2], "g_prime_range": [0, 1], **ranges}
    return {"disorder": spec, "rng_seed": 1}


def _disorder_sweep(samples=1, **disorder):
    """A disorder_sample sweep; ``disorder`` overrides the valid defaults."""
    spec = {"omega_prime_range": [1, 2], "g_prime_range": [0, 1], **disorder}
    sweep = {"quantity": "disorder_sample", "samples": samples, "disorder": spec}
    return {"sweep": sweep, "rng_seed": 1}


def _assert_pool_matches_serial(experiment, user_cfg):
    cfg = cli.resolve_config(experiment, user_cfg)
    serial = cli.run_experiment(experiment, cfg, jobs=1)
    pooled = cli.run_experiment(experiment, cfg, jobs=2)
    assert serial.rows == pooled.rows


def _strict_warnings(tmp_path, capsys, experiment, user_cfg):
    """Run ``experiment`` under --strict with tol 1e-30, which every solve
    violates; return the stderr warnings with their residual values cut off."""
    user_cfg = {**user_cfg, "ed": {**user_cfg["ed"], "tol": 1e-30}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user_cfg))
    out = tmp_path / f"{experiment}.csv"
    rc = cli.main([experiment, "--config", str(cfg), "--out", str(out), "--strict"])
    assert rc == 2
    assert out.exists()  # rows are still written, violations marked
    lines = capsys.readouterr().err.splitlines()
    for line in lines:
        assert re.fullmatch(r"warning: .*: residual \d\.\d{3}e[+-]\d\d", line)
    return [line.split(": residual")[0] for line in lines]


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("fig9")

    def test_empty_grid_rejected(self):
        with pytest.raises(cli.ConfigError, match="empty"):
            cli.resolve_config("fig2", {"grids": {"g_over_omega": []}})

    def test_bad_n_max_rejected(self):
        for n_max in ([0], [], [True], [8, False], [2.5], ["8"], 8):
            with pytest.raises(cli.ConfigError, match="n_max"):
                cli.resolve_config("fig3", {"ed": {"n_max": n_max}})

    def test_whole_float_n_max_is_stored_as_an_int(self):
        # a count like every other: 40.0 names the computation 40 does
        cfg = cli.resolve_config("fig3", {"ed": {"n_max": [40.0, np.int64(50)]}})
        assert [(type(v), v) for v in cfg["ed"]["n_max"]] == [(int, 40), (int, 50)]
        assert cli.config_hash(cfg) == cli.config_hash(cli.resolve_config("fig3"))

    @pytest.mark.parametrize(
        "tol",
        [1e-6, np.float32(1e-6), np.int64(1), 1, True, "1e-3", None, math.nan, math.inf, 0, -1.0],
        ids=repr,
    )
    def test_config_takes_exactly_the_tolerances_the_solver_takes(self, tol):
        h = build_dicke_hamiltonian(DickeParams(1, 1, 0.3, 2), build_basis(2, 6))
        try:
            ground_state(h, tol=tol)
        except ValueError:
            solver_takes = False
        else:
            solver_takes = True
        try:
            cli.resolve_config("fig3", {"ed": {"tol": tol}})
        except cli.ConfigError:
            config_takes = False
        else:
            config_takes = True
        assert config_takes == solver_takes

    def test_experiment_id_must_match(self):
        assert cli.resolve_config("fig2", {"experiment_id": "fig2"})["experiment"] == "fig2"
        with pytest.raises(cli.ConfigError, match="declares experiment 'fig3' but 'fig2'"):
            cli.resolve_config("fig2", {"experiment_id": "fig3"})

    @pytest.mark.parametrize(
        "experiment, user_cfg, unread",
        [
            # fig3 once ran its default 7 N x 2 n_max rows with these keys
            ("fig3", {"ed": {"nmax": [4]}, "grid": {"n_spins": [1]}}, "ed.nmax, grid"),
            (
                "fig2", {"disorder": {"omega": 2.0}, "experiment": "fig2"},
                "disorder.omega, experiment",
            ),
            ("fig4", {"grids": {"kt": [0.1]}}, "grids.kt"),
            (
                "sweep",
                {"sweep": {"quantity": "xi_ground", "sample": 2},
                 "grids": {"g": [0.1], "kt": [0.1]}},
                "grids.kt, sweep.sample",
            ),
            ("sweep", _disorder_sweep(n_spins=4), "sweep.disorder.n_spins"),
        ],
        ids=["fig3", "top-and-disorder", "fig-grid", "sweep-grid-and-key", "sweep-disorder"],
    )
    def test_keys_no_runner_reads_are_rejected(
        self, tmp_path, capsys, experiment, user_cfg, unread
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user_cfg))
        out = tmp_path / f"{experiment}.csv"
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown config keys, read by no runner: {unread}\n"
        assert not out.exists()

    def test_truncation_delta_recorded_in_metadata(self):
        cfg = cli.resolve_config(
            "fig3", {"grids": {"n_spins": [2]}, "ed": {"n_max": [8, 10]}}
        )
        result = cli.run_fig3(cfg)
        assert float(result.meta["max_truncation_delta"]) < 1e-3

    def test_grid_forms(self):
        assert np.allclose(cli._grid([1, 2], "x"), [1, 2])
        assert np.allclose(
            cli._grid({"min": 0, "max": 1, "count": 3}, "x"), [0, 0.5, 1]
        )
        with pytest.raises(cli.ConfigError):
            cli._grid({"min": 0}, "x")
        for spec in (0.5, "0:1", None):
            with pytest.raises(cli.ConfigError, match="must be a list or a min/max/count object"):
                cli._grid(spec, "x")
        assert len(cli._grid({"min": 0, "max": 1, "count": 3.0}, "x")) == 3
        for count in (2.7, -1, True, "3", math.inf):
            with pytest.raises(cli.ConfigError, match="count must be an integer >= 0"):
                cli._grid({"min": 0, "max": 1, "count": count}, "x")

    @pytest.mark.parametrize(
        "grids",
        [
            {"kt_over_omega": {"min": 0.01, "max": 0.6, "count": 10**13}},
            # each grid fits, their product of 1.08e6 points does not
            {"gc_minus_g_over_omega": {"min": 0.0, "max": 0.45, "count": 2250},
             "kt_over_omega": {"min": 0.01, "max": 0.6, "count": 240}},
        ],
        ids=["count", "product"],
    )
    def test_grid_points_are_bounded_before_any_grid(self, tmp_path, capsys, grids):
        # a count of 10**13 ended in an uncaught _ArrayMemoryError from linspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"omega0_over_omega": [1.0, 2.0], **grids}}))
        out = tmp_path / "fig4.csv"
        tracemalloc.start()
        try:
            code = cli.main(["fig4", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**20
        assert capsys.readouterr().err.startswith(
            "error: grid 'kt_over_omega': the grids would hold more than "
            f"MAX_GRID_POINTS = {cli.MAX_GRID_POINTS} points"
        )
        assert not out.exists()

    @staticmethod
    def _pool_sizes(monkeypatch, cpus):
        """The sizes of the pools ``_run_tasks`` opens, recorded by a stand-in
        that starts no process, on a host where ``cpus`` CPUs are usable."""
        import multiprocessing

        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return [func(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return sizes

    def test_pool_holds_no_more_workers_than_tasks(self, monkeypatch):
        sizes = self._pool_sizes(monkeypatch, 64)
        assert cli._run_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert cli._run_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert sizes == [3, 2]

    def test_pool_holds_no_more_workers_than_usable_cpus(self, monkeypatch):
        sizes = self._pool_sizes(monkeypatch, 3)
        tasks = list(range(-10, 0))
        assert cli._run_tasks(abs, tasks, 100000) == [abs(t) for t in tasks]
        assert sizes == [3]
        # one usable CPU runs the tasks in this process, with no pool
        sizes = self._pool_sizes(monkeypatch, 1)
        assert cli._run_tasks(abs, tasks, 100000) == [abs(t) for t in tasks]
        assert sizes == []

    def test_a_failed_task_reaches_the_pool_parent(self, tmp_path):
        # a worker's ConvergenceError must unpickle in the parent, or the
        # pool waits for its result forever; the timeout fails the test
        # instead of hanging it
        script = tmp_path / "fail.py"
        script.write_text(
            "from dicke_squeeze import cli\n"
            "from dicke_squeeze.ed import ConvergenceError\n\n"
            "def fail(task):\n"
            "    raise ConvergenceError(task, 1e-10)\n\n"
            "if __name__ == '__main__':\n"
            "    try:\n"
            "        cli._run_tasks(fail, [60, 60], 2)\n"
            "    except ConvergenceError as exc:\n"
            "        print(exc.iterations, exc.tolerance, exc)\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            out, _ = run.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(run.pid, signal.SIGKILL)  # the pool's workers too
            run.communicate()
            raise
        assert out == "60 1e-10 no convergence after 60 iterations at relative tolerance 1.000e-10\n"

    def test_hash_stable_under_key_order(self):
        a = cli.config_hash({"b": 1, "a": {"y": 2, "x": 3}})
        b = cli.config_hash({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b


class TestFig2:
    def test_values(self):
        cfg = cli.resolve_config(
            "fig2", {"grids": {"g_over_omega": [0.0, 0.5, 0.75]}}
        )
        rows = {(r["g_over_omega"], r["variant"]): r["xi"] for r in cli.run_fig2(cfg).rows}
        assert rows[(0.0, "ideal")] == 1.0
        assert rows[(0.0, "trk")] == 1.0
        assert rows[(0.5, "ideal")] == 0.0
        assert rows[(0.5, "trk")] == pytest.approx(0.6180340, abs=1e-6)
        assert 0 < rows[(0.75, "ideal")] < 1  # superradiant branch


class TestFig3:
    def test_rows_and_structure(self):
        cfg = cli.resolve_config(
            "fig3", {"grids": {"n_spins": [2]}, "ed": {"n_max": [10, 12]}}
        )
        result = cli.run_fig3(cfg)
        assert len(result.rows) == 4  # 2 truncations x 2 quadratures
        for row in result.rows:
            assert row["method"] == "ed"
            assert row["residual"] >= 0
            assert 0 < row["variance"] < 1.05
        p = {r["n_max"]: r["variance"] for r in result.rows if r["quadrature"] == "p_tilde_minus"}
        assert abs(p[10] - p[12]) < 1e-3

    def test_jobs_pool_deterministic(self):
        _assert_pool_matches_serial(
            "fig3", {"grids": {"n_spins": [1, 2]}, "ed": {"n_max": [8]}}
        )


class TestFig4Fig5:
    def test_fig4_zero_distance_diverges(self):
        cfg = cli.resolve_config(
            "fig4",
            {
                "grids": {
                    "omega0_over_omega": [1.0],
                    "gc_minus_g_over_omega": [0.0, 0.1],
                    "kt_over_omega": [0.55],
                }
            },
        )
        rows = cli.run_fig4(cfg).rows
        at_zero = [r for r in rows if r["gc_minus_g_over_omega"] == 0.0]
        assert at_zero[0]["xi"] == math.inf
        away = [r for r in rows if r["gc_minus_g_over_omega"] == 0.1]
        assert away[0]["xi"] > 1  # no squeezing above half the boson frequency

    def test_fig4_zero_temperature_matches_ground(self):
        cfg = cli.resolve_config(
            "fig4",
            {
                "grids": {
                    "omega0_over_omega": [2.0],
                    "gc_minus_g_over_omega": [0.2],
                    "kt_over_omega": [0.0],
                }
            },
        )
        row = cli.run_fig4(cfg).rows[0]
        g = math.sqrt(2) / 2 - 0.2
        expected = squeezing_ratio_ground(DickeParams(1, 2, g)).xi
        assert row["xi"] == pytest.approx(expected, rel=1e-14)

    def test_fig5_interior_minimum(self):
        cfg = cli.resolve_config("fig5", {"grids": {"kt_over_omega": [0.017]}})
        rows = cli.run_fig5(cfg).rows
        xis = [r["xi"] for r in rows]
        ratios = [r["omega0_over_omega"] for r in rows]
        best = ratios[int(np.argmin(xis))]
        assert 0.04 < best < 0.2


class TestThermalPresets:
    @pytest.mark.parametrize(
        "experiment, user_cfg, message",
        [
            pytest.param(
                "fig4",
                {"grids": {"gc_minus_g_over_omega": [0.1, -0.1]}},
                "above the critical coupling",
                id="fig4-negative-distance",
            ),
            pytest.param(
                "fig4", {"grids": {"kt_over_omega": [0.1, -0.1]}}, "grid 'kt_over_omega'",
                id="fig4-negative-kt",
            ),
            pytest.param(
                "fig5", {"grids": {"kt_over_omega": [-0.01]}}, "grid 'kt_over_omega'",
                id="fig5-negative-kt",
            ),
            pytest.param(
                "fig5", {"grids": {"kt_over_omega": [math.inf]}}, "grid 'kt_over_omega'",
                id="fig5-infinite-kt",
            ),
            pytest.param(
                "sweep",
                {"grids": {"g": [0.3], "kt": [0.1, -0.1]}, "sweep": {"quantity": "xi_thermal"}},
                "grid 'kt'",
                id="sweep-negative-kt",
            ),
            pytest.param(
                "fig4", {"grids": {"omega0_over_omega": [-1.0]}}, "grid 'omega0_over_omega'",
                id="fig4-negative-omega0",
            ),
            # +inf read as g = -inf and was skipped as a negative coupling
            *[
                pytest.param(
                    "fig4", {"grids": {"gc_minus_g_over_omega": [delta, 0.1]}},
                    "bad grid parameters: grid 'gc_minus_g_over_omega' value must be finite",
                    id=f"fig4-{name}-distance",
                )
                for name, delta in (("inf", math.inf), ("minus-inf", -math.inf), ("nan", math.nan))
            ],
            pytest.param(
                "fig4", {"grids": {"omega0_over_omega": [1.0, 0.0]}}, "grid 'omega0_over_omega'",
                id="fig4-zero-omega0",
            ),
            pytest.param(
                "fig5", {"model": {"g": 0.5}}, "above the critical coupling",
                id="fig5-superradiant",
            ),
            pytest.param("fig2", {"model": {"omega": "1"}}, "bad model parameters", id="fig2-omega"),
            pytest.param(
                "fig2", {"model": {"omega0": "1"}}, "bad model parameters", id="fig2-omega0"
            ),
            pytest.param("fig4", {"model": {"omega": "1"}}, "bad model parameters", id="fig4-omega"),
            pytest.param("fig5", {"model": {"omega": "1"}}, "bad model parameters", id="fig5-omega"),
            pytest.param(
                "fig2", {"model": {"omega0": True}}, "bad model parameters: omega0",
                id="fig2-omega0-bool",
            ),
            pytest.param(
                "fig2", {"model": {"bogus": 1}}, "bad model parameters", id="fig2-unknown-key"
            ),
            pytest.param(
                "fig5", {"model": {"bogus": 1}}, "bad model parameters", id="fig5-unknown-key"
            ),
        ],
    )
    def test_bad_grids_are_a_config_error(self, tmp_path, capsys, experiment, user_cfg, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user_cfg))
        out = tmp_path / f"{experiment}.csv"
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_fig5_at_the_trk_ratio_runs(self, tmp_path):
        # at omega0 = 0.1, a2_coeff sits below g^2/omega0 by one rounding and
        # the critical coupling divided by zero: a traceback, not a row
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"omega": 1, "g": 0.1, "a2_coeff": 0.1}}))
        out = tmp_path / "fig5.csv"
        assert cli.main(["fig5", "--config", str(cfg), "--out", str(out)]) == 0
        ratios = {row["omega0_over_omega"] for row in _read_rows(out)}
        assert "0.10000000000000001" in ratios

    def test_fig4_with_every_pair_skipped_is_a_config_error(self, tmp_path, capsys):
        # g_c = 0.5 at omega0 = omega = 1: both distances give g < 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"grids": {"omega0_over_omega": [1.0], "gc_minus_g_over_omega": [0.6, 0.8]}}
            )
        )
        out = tmp_path / "fig4.csv"
        assert cli.main(["fig4", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fig4: ") and "g < 0" in err
        assert not out.exists()

    def test_fig4_counts_skipped_pairs(self, tmp_path):
        # g_c = 0.5 and 1: only (1, 0.6) gives g < 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "grids": {
                        "omega0_over_omega": [1.0, 4.0],
                        "gc_minus_g_over_omega": [0.2, 0.6],
                        "kt_over_omega": [0.1],
                    }
                }
            )
        )
        out = tmp_path / "fig4.csv"
        assert cli.main(["fig4", "--config", str(cfg), "--out", str(out)]) == 0
        assert "# skipped-points: 1" in out.read_text().splitlines()
        pairs = [(r["omega0_over_omega"], r["gc_minus_g_over_omega"]) for r in _read_rows(out)]
        assert pairs == [("1", "0.20000000000000001"), ("4", "0.20000000000000001"), ("4", "0.59999999999999998")]

    def test_fig5_rows_are_temperature_major(self):
        cfg = cli.resolve_config(
            "fig5", {"grids": {"omega0_over_omega": [0.1, 0.2], "kt_over_omega": [0.02, 0.01]}}
        )
        rows = cli.run_fig5(cfg).rows
        assert [(r["kt_over_omega"], r["omega0_over_omega"]) for r in rows] == [
            (0.02, 0.1), (0.02, 0.2), (0.01, 0.1), (0.01, 0.2)
        ]
        for r in rows:
            p = DickeParams(1.0, r["omega0_over_omega"], 0.1)
            assert r["xi"] == thermal_squeezing_ratio(p, r["kt_over_omega"]).xi

    def test_fig5_array_columns_write_the_list_bytes(self, tmp_path, monkeypatch):
        # the T-major table built cell by cell in Python floats from
        # one-point calls, at the critical splitting 0.04 too
        temps, ratios = [0.0, 0.013, 0.3, 1e308], [0.04, 0.1, 0.2]
        fig5 = cli.run_fig5(cli.resolve_config(
            "fig5", {"grids": {"omega0_over_omega": ratios, "kt_over_omega": temps}}
        ))
        cells = [
            (ratio, kt, thermal_squeezing_ratio(DickeParams(1.0, ratio, 0.1), kt).xi, "analytic")
            for kt in temps
            for ratio in ratios
        ]
        lists = dict(zip(fig5.columns, map(list, zip(*cells))))
        want = _body(tmp_path, lists)
        # no cell of the thermal map goes through the per-cell formatter
        monkeypatch.setattr(cli, "_format_value", None)
        for name in ("fig4", "fig5"):
            result = cli.run_experiment(name, cli.resolve_config(name))
            _body(tmp_path, result.columns)
        assert _body(tmp_path, fig5.columns) == want

    def test_every_cell_equals_its_one_point_closed_form(self):
        # the per-T loop of thermal_squeezing_ratios, against the one-point
        # call and against coth written out per cell
        def reference(p, t):
            eps = normal_modes(p).eps_minus
            ground = eps / min(p.omega, p.omega0)
            if t == 0.0:
                return ground
            if eps == 0.0:
                return math.inf
            x = eps / (2.0 * t)
            if x == 0.0:
                return 2.0 * (t / min(p.omega, p.omega0))
            return ground * (1.0 if x >= 20.0 else 1.0 + 2.0 / math.expm1(2.0 * x))

        def check(p, t, xi):
            assert xi.hex() == thermal_squeezing_ratio(p, t).xi.hex()
            assert xi.hex() == reference(p, t).hex()

        # g = g_c at both splittings, and T = 0, x >= 20 and x < 20
        temps = [0.0, 0.001, 0.013, 0.3, 2.0]
        fig4 = cli.run_fig4(cli.resolve_config("fig4", {"grids": {
            "omega0_over_omega": [1.0, 2.0], "gc_minus_g_over_omega": [0.0, 0.05, 0.3],
            "kt_over_omega": temps,
        }}))
        assert len(fig4.rows) == 30
        for r in fig4.rows:
            ratio, delta = r["omega0_over_omega"], r["gc_minus_g_over_omega"]
            p = DickeParams(1.0, ratio, math.sqrt(ratio) / 2.0 - delta)
            check(p, r["kt_over_omega"], r["xi"])
        assert {r["xi"] for r in fig4.rows if r["gc_minus_g_over_omega"] == 0.0} == {0.0, math.inf}
        fig5 = cli.run_fig5(cli.resolve_config("fig5", {"grids": {
            "omega0_over_omega": {"min": 0.04, "max": 0.2, "count": 5}, "kt_over_omega": temps,
        }}))
        assert len(fig5.rows) == 25
        for r in fig5.rows:
            check(DickeParams(1.0, r["omega0_over_omega"], 0.1), r["kt_over_omega"], r["xi"])
        # 1e308 takes the large-T limit (eps/(2T) underflows)
        sweep = cli.run_sweep(cli.resolve_config("sweep", {
            "grids": {"g": [0.0, 0.2, 0.45, 0.5, 0.7], "kt": [*temps, 1e308]},
            "sweep": {"quantity": "xi_thermal"},
        }))
        normal = [r for r in sweep.rows if r["t_c"] is None]
        assert len(normal) == 24
        for r in normal:
            check(DickeParams(1.0, 1.0, r["g"]), r["kt"], r["xi"])
        fig2 = cli.run_fig2(cli.resolve_config("fig2", {"grids": {
            "g_over_omega": {"min": 0.0, "max": 1.0, "count": 11},
        }}))
        assert len(fig2.rows) == 22
        for r in fig2.rows:
            g = r["g_over_omega"]
            p = DickeParams(1.0, 1.0, g, a2_coeff=g * g if r["variant"] == "trk" else 0.0)
            assert r["xi"].hex() == squeezing_ratio_ground(p).xi.hex()

    def test_fig4_default_skips_nothing(self):
        assert "skipped_points" not in cli.run_fig4(cli.resolve_config("fig4")).meta


class TestFig6Fig7:
    def test_fig6_structure(self):
        cfg = cli.resolve_config(
            "fig6", {"grids": {"n_clean": [1, 2]}, "ed": {"n_max": [10]}}
        )
        result = cli.run_fig6(cfg)
        ed_rows = [r for r in result.rows if r["method"] == "ed"]
        formula_rows = [r for r in result.rows if r["method"] == "analytic"]
        assert len(ed_rows) == 2 and len(formula_rows) == 2
        for row in formula_rows:
            assert row["perturbative_valid"] is False  # strong-defect default
        fractions = {r["n_clean"]: r["fraction"] for r in ed_rows}
        assert fractions[1] == 0.5 and fractions[2] == pytest.approx(1 / 3)

    def test_fig7_eta_zero_matches_plain_critical_run(self):
        cfg = cli.resolve_config(
            "fig7",
            {"model": {"n_spins": 2}, "grids": {"eta": [0.0]}, "ed": {"n_max": [12]}},
        )
        row = cli.run_fig7(cfg).rows[0]
        fig3_cfg = cli.resolve_config(
            "fig3", {"grids": {"n_spins": [2]}, "ed": {"n_max": [12]}}
        )
        fig3_rows = cli.run_fig3(fig3_cfg).rows
        var_p = next(
            r["variance"] for r in fig3_rows if r["quadrature"] == "p_tilde_minus"
        )
        assert row["xi"] == pytest.approx(var_p, rel=1e-10)

    def test_fig7_beyond_six_spins(self, tmp_path):
        # N = 10 in the k = 0 sector: dim 108 * 41 = 4428, ARPACK blocks of
        # 2214. A dense solve of the same sector gives xi = 0.78391493997777;
        # ARPACK read 9.2e-13 off it, and N = 6 / 8 / 12 give 0.78377 /
        # 0.78373 / 0.78413, so 1e-10 tells the N apart with room for the solver
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"model": {"n_spins": 10}, "grids": {"eta": [0.5]}, "ed": {"n_max": [40]}}
            )
        )
        out = tmp_path / "fig7.csv"
        assert cli.main(["fig7", "--config", str(cfg), "--out", str(out)]) == 0
        (row,) = _read_rows(out)
        assert row["residual_ok"] == "true"
        assert float(row["xi"]) == pytest.approx(0.78391493997777, rel=0.0, abs=1e-10)

    def test_ed_presets_never_assemble_a_full_matrix(self, tmp_path, monkeypatch):
        # every point solves and observes one parity block at a time from the
        # Kronecker factors: neither full-dim form may be assembled, on the
        # band path or on ARPACK (fig7 at N = 10, n_max = 30: blocks of 1674)
        def refuse(self):
            raise AssertionError(f"a preset point assembled {type(self).__name__}'s full form")

        # H and every quadrature are KronSums: one patch covers both
        monkeypatch.setattr(KronSum, "matrix", property(refuse))
        configs = {
            "fig3": {"grids": {"n_spins": [2, 5]}, "ed": {"n_max": [8, 10]}},
            **_SMALL_ED,
            "fig7-arpack": {
                "model": {"n_spins": 10}, "grids": {"eta": [0.5]}, "ed": {"n_max": [30]}
            },
        }
        for name, user_cfg in configs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(user_cfg))
            out = tmp_path / f"{name}.csv"
            experiment = name.split("-")[0]
            assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 0
            rows = _read_rows(out)
            assert rows and all(row["residual_ok"] in ("true", "") for row in rows)

    def test_fig7_prepares_each_unit_band_once(self, monkeypatch, clear_ed_caches):
        # default fig7: 16 eta points at n_max 40 and 50, H of the number, z
        # and flip terms plus the ring above eta = 0. Each (term, parity,
        # n_max) unit band is prepared once, 4 * 2 * 2 = 16 for 32 points, and
        # only the first point of each n_max (points 1 and 2) builds any
        # scipy.sparse matrix: its layout's factors
        prepared, points, built = [], [], []
        prepare, task = hamiltonians._unit_band, cli._ed_task
        monkeypatch.setattr(
            hamiltonians, "_unit_band", lambda *args: prepared.append(args) or prepare(*args)
        )
        monkeypatch.setattr(cli, "_ed_task", lambda t: points.append(t) or task(t))

        def counted(self, *args, **kwargs):
            built.append(len(points))
            super(sp.spmatrix, self).__init__(*args, **kwargs)

        # every *_matrix class of scipy.sparse finds __init__ on spmatrix first
        monkeypatch.setattr(sp.spmatrix, "__init__", counted)
        result = cli.run_experiment("fig7", cli.resolve_config("fig7", {}))
        assert len(points) == len(result.rows) == 32
        assert len(prepared) == 16
        assert built and set(built) <= {1, 2}

    @pytest.mark.parametrize(
        "experiment, header",
        [
            ("fig3", ["n_spins", "n_max", "quadrature", "variance"]),
            ("fig6", ["n_clean", "fraction", "n_max", "xi"]),
            ("fig7", ["eta", "n_max", "xi"]),
        ],
    )
    def test_ed_header_and_empty_cells(self, experiment, header):
        # point labels, n_max, row labels and the value, then the solve; fig6
        # adds the column only its analytic rows fill, and each kind of row
        # leaves the other's cells empty
        user_cfg = {"fig3": {"grids": {"n_spins": [1, 2]}, "ed": {"n_max": [6]}}, **_SMALL_ED}
        cfg = cli.resolve_config(experiment, user_cfg[experiment])
        result = cli.run_experiment(experiment, cfg)
        header += ["residual", "residual_ok", "method"]
        if experiment == "fig6":
            header.append("perturbative_valid")
        assert list(result.columns) == header
        methods = {"fig3": ["ed"] * 4, "fig6": ["ed", "ed", "analytic", "analytic"]}
        assert result.columns["method"] == methods.get(experiment, ["ed", "ed"])
        for row in result.rows:
            empty = [name for name, cell in row.items() if cell is None]
            if row["method"] == "analytic":
                assert empty == ["n_max", "residual", "residual_ok"]
            else:
                assert empty == (["perturbative_valid"] if experiment == "fig6" else [])

    @pytest.mark.parametrize("experiment", ["fig6", "fig7"])
    def test_jobs_pool_deterministic(self, experiment):
        _assert_pool_matches_serial(experiment, _SMALL_ED[experiment])

    @pytest.mark.parametrize(
        "experiment, expected",
        [
            ("fig6", ["warning: fig6 N=1 n_max=8", "warning: fig6 N=2 n_max=8"]),
            ("fig7", ["warning: fig7 eta=0.5 n_max=6", "warning: fig7 eta=0.5 n_max=8"]),
        ],
    )
    def test_strict_mode_residual_violation(self, tmp_path, capsys, experiment, expected):
        warnings = _strict_warnings(tmp_path, capsys, experiment, _SMALL_ED[experiment])
        assert warnings == expected



class TestEDPresets:
    @pytest.mark.parametrize(
        "experiment, model",
        [
            pytest.param("fig3", {"g": -0.5}, id="fig3"),
            pytest.param("fig6", {"g": -0.5}, id="fig6"),
            pytest.param("fig7", {"g": -0.5}, id="fig7"),
            pytest.param("fig7", {"n_spins": "six"}, id="fig7-six"),
        ],
    )
    def test_bad_model_values_are_a_config_error(self, tmp_path, capsys, experiment, model):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / f"{experiment}.csv"
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad model parameters: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, user_cfg, message",
        [
            pytest.param("fig3", {"ed": {"tol": "tight"}}, "ed.tol", id="tol-str"),
            pytest.param("fig3", {"ed": {"tol": -1}}, "ed.tol", id="tol-negative"),
            pytest.param("fig7", {"ed": {"tol": math.nan}}, "ed.tol", id="tol-nan"),
            pytest.param("fig3", {"ed": {"tol": math.inf}}, "ed.tol", id="tol-inf"),
            pytest.param("fig3", {"ed": {"tol": 0}}, "ed.tol", id="tol-zero"),
            pytest.param("fig3", {"ed": {"tol": True}}, "ed.tol", id="tol-bool"),
            pytest.param("fig3", {"ed": {"n_max": [40.5]}}, "ed.n_max", id="n-max-fraction"),
            # an int past the double range raised an OverflowError traceback
            pytest.param(
                "fig2", {"model": {"omega": 10**400}}, "bad model parameters: omega must be finite",
                id="model-huge-int",
            ),
            pytest.param(
                "fig2", {"grids": {"g_over_omega": [10**400]}}, "bad model parameters: g",
                id="grid-huge-int",
            ),
            pytest.param("fig6", {"disorder": {"m": "one"}}, "disorder.m", id="m-str"),
            pytest.param("fig6", {"disorder": {"m": 1.7}}, "disorder.m", id="m-fraction"),
            pytest.param(
                "fig6", {"disorder": {"m": True}, "grids": {"n_clean": [2]}}, "disorder.m",
                id="m-bool",
            ),
            pytest.param(
                "fig6", {"disorder": {"omega_prime": "2"}}, "disorder.omega_prime", id="omega-prime"
            ),
            pytest.param("fig6", {"disorder": {"g_prime": "2"}}, "disorder.g_prime", id="g-prime"),
            pytest.param("fig7", {"model": {"n_spins": 1}}, "n_spins >= 2", id="fig7-one-spin"),
            pytest.param("fig7", {"grids": {"eta": ["a"]}}, "grid 'eta'", id="grid-str"),
            pytest.param("fig3", {"ed": 5}, "ed must be an object", id="ed-int"),
            # every section must be an object, null included
            pytest.param("fig3", {"ed": None}, "ed must be an object", id="ed-null"),
            pytest.param("fig3", {"model": None}, "model must be an object", id="model-null"),
            pytest.param("fig2", {"model": [1, "a"]}, "model must be an object", id="model-list"),
            pytest.param("fig2", {"grids": []}, "grids must be an object", id="grids-list"),
            pytest.param(
                "fig6", {"disorder": True}, "disorder must be an object", id="disorder-bool"
            ),
            pytest.param("sweep", {"sweep": None}, "sweep must be an object", id="sweep-null"),
            pytest.param(
                "sweep", {"sweep": {"quantity": "disorder_sample", "disorder": 0}},
                "sweep.disorder must be an object", id="sweep-disorder-int",
            ),
            # a fractional spin count is rejected, not truncated to N = 2 or 1
            pytest.param(
                "fig3", {"grids": {"n_spins": [2.5]}}, "bad model parameters: n_spins",
                id="fig3-fractional-n",
            ),
            pytest.param(
                "fig6", {"grids": {"n_clean": [1.5]}}, "bad model parameters: n_spins",
                id="fig6-fractional-n-clean",
            ),
            pytest.param(
                "fig3", {"grids": {"n_spins": [True]}}, "grid 'n_spins'", id="grid-bool"
            ),
            # min/max must be real scalars: a list end spans a 2-D grid
            pytest.param(
                "fig2", {"grids": {"g_over_omega": {"min": [0, 0.5], "max": 1, "count": 2}}},
                "grid 'g_over_omega'", id="grid-list-min",
            ),
            pytest.param(
                "fig4", {"grids": {"kt_over_omega": {"min": [0, 0.5], "max": 1, "count": 2}}},
                "grid 'kt_over_omega'", id="grid-list-min-fig4",
            ),
            pytest.param(
                "fig2", {"grids": {"g_over_omega": {"min": True, "max": 1, "count": 2}}},
                "grid 'g_over_omega'", id="grid-bool-min",
            ),
            pytest.param(
                "fig2", {"grids": {"g_over_omega": [0.1, "0.2"]}}, "grid 'g_over_omega'",
                id="grid-numeric-str",
            ),
            pytest.param(
                "fig2", {"grids": {"g_over_omega": [[0.1, 0.2]]}}, "grid 'g_over_omega'",
                id="grid-nested-list",
            ),
            pytest.param(
                "fig7", {"grids": {"eta": {"min": 0, "max": 0.5, "count": 2.7}}},
                "count must be an integer >= 0", id="grid-fractional-count",
            ),
            pytest.param(
                "fig6",
                {"disorder": {"omega_prime_range": [1, 2]}, "rng_seed": 1},
                "g_prime_range",
                id="one-range",
            ),
            pytest.param(
                "fig6", _random_defects(omega_prime_range=["a", 2]),
                "disorder.omega_prime_range", id="range-str",
            ),
            pytest.param(
                "fig6", _random_defects(omega_prime_range=[1]),
                "disorder.omega_prime_range", id="range-one-number",
            ),
            pytest.param(
                "fig6", _random_defects(g_prime_range=1), "disorder.g_prime_range",
                id="range-scalar",
            ),
            pytest.param(
                "sweep", _disorder_sweep(omega_prime_range=[1]), "disorder.omega_prime_range",
                id="sweep-range-one-number",
            ),
            pytest.param("sweep", _disorder_sweep(m="one"), "disorder.m", id="sweep-m-str"),
            pytest.param("sweep", _disorder_sweep(m=1.7), "disorder.m", id="sweep-m-fraction"),
            pytest.param(
                "sweep", _disorder_sweep(n_clean=0), "disorder.n_clean", id="sweep-n-clean"
            ),
            pytest.param(
                "sweep", _disorder_sweep(samples=2.5), "sweep.samples", id="sweep-samples"
            ),
            # its rows are per defect: m = 0 would write a header-only CSV
            pytest.param("sweep", _disorder_sweep(m=0), "disorder.m", id="sweep-m-zero"),
            *[
                pytest.param(
                    "sweep",
                    {"model": {"omega0": omega0}, "grids": {"g": [0.3]},
                     "sweep": {"quantity": "xi_ground"}},
                    "bad model parameters: omega0", id=f"sweep-omega0-{name}",
                )
                for name, omega0 in (("str", "x"), ("numeric-str", "2"))
            ],
            # a JSON string "false" is truthy to Python
            pytest.param(
                "sweep",
                {"grids": {"g": [0.7], "kt": [0.1]},
                 "sweep": {"quantity": "xi_thermal", "tc_mask": "false"}},
                "sweep.tc_mask", id="sweep-tc-mask-str",
            ),
            # the closed forms past g_c need a2_coeff = 0
            pytest.param(
                "sweep",
                {"model": {"a2_coeff": 0.5}, "grids": {"g": [0.2, 2.0]},
                 "sweep": {"quantity": "xi_ground"}},
                "bad model parameters: superradiant", id="sweep-xi-ground-a2",
            ),
            pytest.param(
                "sweep",
                {"model": {"a2_coeff": 0.5}, "grids": {"g": [0.2, 2.0], "kt": [0.1]},
                 "sweep": {"quantity": "xi_thermal"}},
                "bad model parameters: classical critical", id="sweep-xi-thermal-a2",
            ),
            # the renormalized coupling of 4 clean spins and one defect passes g_c
            pytest.param(
                "sweep", {**_disorder_sweep(n_clean=4, m=1), "model": {"g": 0.6}},
                "bad disorder parameters: superradiant", id="sweep-disorder-past-gc",
            ),
            # the Philox key is one uint64
            *[
                pytest.param(
                    experiment, {**make(), "rng_seed": seed},
                    "bad disorder parameters: rng_seed", id=f"{experiment}-seed-{name}",
                )
                for experiment, make in (("fig6", _random_defects), ("sweep", _disorder_sweep))
                for name, seed in (
                    ("negative", -1), ("fraction", 1.5), ("str", "1"), ("2**64", 2**64),
                    ("huge", 10**400),
                )
            ],
            pytest.param(
                "fig6", _random_defects(counter=2**64), "bad disorder parameters: disorder.counter",
                id="fig6-counter-2**64",
            ),
            # finite settings whose closed form or block leaves double precision:
            # each once gave a nan row, a traceback or 60 failed shifts
            pytest.param(
                "fig5",
                {"model": {"omega": 1e160, "g": 1e159},
                 "grids": {"omega0_over_omega": [1.0], "kt_over_omega": [0.1]}},
                "bad model parameters: omega*omega0 leaves double precision", id="fig5-overflow",
            ),
            pytest.param(
                "sweep",
                {"model": {"omega": 1e200, "omega0": 1e200}, "grids": {"g": [3e199]},
                 "sweep": {"quantity": "xi_ground"}},
                "bad model parameters: omega*omega0 leaves double precision",
                id="sweep-xi-ground-overflow",
            ),
            pytest.param(
                "fig2", {"model": {"omega": 1e300}, "grids": {"g_over_omega": [0.5]}},
                "bad model parameters: omega**2 overflows", id="fig2-overflow",
            ),
            pytest.param(
                "fig3",
                {"model": {"omega": 1e200, "omega0": 1e200, "g": 5e199},
                 "grids": {"n_spins": [2, 3]}, "ed": {"n_max": [10]}},
                "fig3 N=2 n_max=10: block scale", id="fig3-overflow",
            ),
            pytest.param(
                "fig7",
                {"model": {"omega": 1e200, "omega0": 1e200, "g": 5e199},
                 "grids": {"eta": [0.5]}, "ed": {"n_max": [10]}},
                "bad ising parameters: mixing angle", id="fig7-overflow",
            ),
            pytest.param(
                "fig6",
                {"disorder": {"omega_prime": 1e200}, "grids": {"n_clean": [2]},
                 "ed": {"n_max": [10]}},
                "fig6 N=2 n_max=10: block scale", id="fig6-omega-prime-overflow",
            ),
        ],
    )
    def test_bad_settings_are_a_config_error(self, tmp_path, capsys, experiment, user_cfg, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user_cfg))
        out = tmp_path / f"{experiment}.csv"
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "eta, message",
        [(math.nan, "finite"), (-0.5, "E_k=0"), (-2.0, "E_k=-3")],
        ids=["nan", "minus-half", "minus-two"],
    )
    def test_fig7_bad_eta_is_rejected_before_any_task(
        self, tmp_path, capsys, monkeypatch, eta, message
    ):
        # with --jobs 2 a task's ValueError would be raised in a pool worker
        def no_tasks(*args):
            raise AssertionError("a task ran")

        monkeypatch.setattr(cli, "_run_tasks", no_tasks)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"eta": [0.1, eta]}}))
        out = tmp_path / "fig7.csv"
        assert cli.main(["fig7", "--jobs", "2", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad ising parameters: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("m", [10**400, 10**12], ids=["1e400", "1e12"])
    @pytest.mark.parametrize(
        "experiment, make",
        [
            ("fig6", lambda m: {"disorder": {"m": m}}),
            ("fig6", lambda m: _random_defects(m=m)),
            ("sweep", lambda m: _disorder_sweep(m=m)),
        ],
        ids=["fig6-fixed", "fig6-random", "sweep-disorder"],
    )
    def test_defect_count_is_bounded_before_any_defect(
        self, tmp_path, capsys, monkeypatch, experiment, make, m
    ):
        # m pairs were built or drawn with no bound: 10**400 ran out of memory
        def refuse(*args):
            raise AssertionError("defects drawn or a task run")

        monkeypatch.setattr(cli, "disorder_samples", refuse)
        monkeypatch.setattr(cli, "_run_tasks", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(make(m)))
        out = tmp_path / f"{experiment}.csv"
        tracemalloc.start()
        try:
            code = cli.main([experiment, "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**20
        err = capsys.readouterr().err
        bound = f"disorder.m must be <= {cli.MAX_DEFECTS}"
        assert err.startswith(f"error: bad disorder parameters: {bound}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "user_cfg, error",
        [
            (
                {"sweep": {"quantity": "ladder_dispersion", "ladder": dict(
                    j_r=10.0, j_b=0.05, j_rb_x=0.4, j_rb_y=0.0, j_rb_z=0.0,
                    omega_r=1.0, omega_b=1.0, n_sites=10**13,
                )}},
                f"ladder_dispersion sweep: n_sites = {10**13} rows",
            ),
            (
                _disorder_sweep(samples=10**13),
                "disorder_sample sweep: sweep.samples x disorder.m rows",
            ),
        ],
        ids=["ladder", "disorder-sample"],
    )
    def test_sweep_rows_are_bounded_before_any_row(
        self, tmp_path, capsys, monkeypatch, user_cfg, error
    ):
        # neither sweep bounded its rows: 10**5 of them took 127-146 MB
        def refuse(*args):
            raise AssertionError("a mode mapped or a defect drawn")

        monkeypatch.setattr(cli, "map_ladder_to_dicke", refuse)
        monkeypatch.setattr(cli, "disorder_samples", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user_cfg))
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**20
        bound = f"more than MAX_GRID_POINTS = {cli.MAX_GRID_POINTS}"
        assert capsys.readouterr().err == f"error: {error}, {bound}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, user_cfg, error",
        [
            ("fig7", {"model": {"n_spins": 64}},
             f"fig7 eta=0: more than MAX_SPIN_STATES = {2**20} spin states"),
            ("fig3", {"ed": {"n_max": [10**13]}},
             f"fig3 N=1 n_max={10**13}: a basis of more than MAX_ED_DIM = {2**20} states"),
            # 24 distinct defects, each a site of its own: (N + 1) 2^24 states
            ("fig6", _random_defects(m=24),
             f"fig6 N=1: more than MAX_SPIN_STATES = {2**20} spin states"),
        ],
        ids=["fig7-ring", "fig3-n_max", "fig6-defects"],
    )
    def test_ed_point_size_is_bounded_before_any_basis(
        self, tmp_path, capsys, monkeypatch, experiment, user_cfg, error
    ):
        # the ring of 64 spins, and n_max = 10**13, ran out of memory listing
        # the basis; a fig7 ring of 26 spins would fill an 8 GB host
        def refuse(*args):
            raise AssertionError("a basis listed or a task run")

        monkeypatch.setattr(basis_module, "translation_orbits", refuse)
        monkeypatch.setattr(cli, "_run_tasks", refuse)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user_cfg))
        out = tmp_path / f"{experiment}.csv"
        tracemalloc.start()
        try:
            code = cli.main([experiment, "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 2**20
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_ed_bounds_hold_at_their_edge(self):
        # 2^20 states pass each bound, and more do not; on the ring its 2^N
        # masks count, judged before any is listed
        cli._ed_bounds("N=1", build_basis(1, 0), 2**19 - 1)
        with pytest.raises(cli.ConfigError, match="MAX_ED_DIM"):
            cli._ed_bounds("N=1", build_basis(1, 0), 2**19)
        with pytest.raises(cli.ConfigError, match="MAX_ED_DIM"):
            cli._ed_bounds("N=20", build_basis(20, 0), 1)
        for layout in (build_basis(21, 0), build_basis(21, 0, k0=True)):
            with pytest.raises(cli.ConfigError, match="MAX_SPIN_STATES"):
                cli._ed_bounds("N=21", layout, 1)

    def test_fig6_without_defects_at_critical_coupling(self, tmp_path, capsys):
        # m = 0 leaves gbar = g = g_c, where the perturbative column is
        # undefined: the ED rows stay, the analytic row has an empty xi
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"disorder": {"m": 0}, "grids": {"n_clean": [2]}}))
        out = tmp_path / "fig6.csv"
        assert cli.main(["fig6", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = _read_rows(out)
        assert [(r["method"], r["n_max"]) for r in rows] == [
            ("ed", "40"), ("ed", "50"), ("analytic", "")
        ]
        for row in rows[:2]:
            assert row["residual_ok"] == "true" and 0.0 < float(row["xi"]) < 1.0
        assert rows[2]["xi"] == "" and rows[2]["perturbative_valid"] == "false"

    def test_fig6_without_defects_above_critical_coupling(self, tmp_path, capsys):
        # beyond g_c the normal modes have no real eps_minus: still an error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"g": 0.6}, "disorder": {"m": 0}}))
        out = tmp_path / "fig6.csv"
        assert cli.main(["fig6", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fig6 N=1: ") and "superradiant input" in err
        assert not out.exists()

    def test_fig6_solves_the_clean_sector_once_per_point(self, monkeypatch):
        # fig6 reads gamma_bar from the formula's report; only the critical
        # point (m = 0 at g = g_c), where the formula has none, solves it again
        calls = []

        def counted(p):
            calls.append(p.g)
            return normal_modes(p)

        monkeypatch.setattr(bogoliubov, "normal_modes", counted)
        monkeypatch.setattr(disorder, "normal_modes", counted)
        monkeypatch.setattr(cli, "_run_ed", lambda *args: None)
        cli.run_fig6(cli.resolve_config("fig6", {"grids": {"n_clean": [1, 2, 3]}}))
        assert len(calls) == 3
        calls.clear()
        cli.run_fig6(cli.resolve_config("fig6", {"grids": {"n_clean": [2]}, "disorder": {"m": 0}}))
        assert calls == [0.5, 0.5]

    def test_fig6_equal_defects_form_one_block(self, monkeypatch):
        # each run of equal defects is one collective spin; distinct ones
        # stay sites: N = 6, n_max = 50
        a, b = (2.1, 2.0), (1.5, 2.0)
        cfg = cli.resolve_config("fig6", {"grids": {"n_clean": [6]}})
        points = []
        monkeypatch.setattr(cli, "_run_ed", lambda cfg, jobs, point, pts, *rest: points.extend(pts))
        for defects, dim in (((a,) * 3, 7 * 4 * 51), ((a, a, b), 7 * 3 * 2 * 51),
                             ((a, b, a), 7 * 8 * 51)):
            monkeypatch.setattr(cli, "_fig6_defects", lambda cfg: defects)
            points.clear()
            cli.run_fig6(cfg)
            (_, _, args, layout), = points
            h, _ = cli._fig6_point(*args, dataclasses.replace(layout, n_max=50))
            assert h.dim == dim

    @pytest.mark.parametrize("experiment", ["fig3", "fig4", "fig6", "fig7"])
    def test_nonzero_a2_coeff_rejected(self, experiment):
        # the quadrature angles of fig6 (normal_modes) and fig7 (IsingParams)
        # carry no A^2 term, so an A^2 term in H alone would give a wrong xi;
        # fig4's axis g_c - g takes the bare g_c, which an A^2 term moves
        cfg = cli.resolve_config(experiment, {"model": {"a2_coeff": 0.25}})
        with pytest.raises(cli.ConfigError, match="a2_coeff"):
            cli.run_experiment(experiment, cfg)


class TestSweep:
    def test_single_point_equals_direct_call(self):
        cfg = cli.resolve_config(
            "sweep", {"grids": {"g": [0.375]}, "sweep": {"quantity": "xi_ground"}}
        )
        row = cli.run_sweep(cfg).rows[0]
        assert row["xi"] == squeezing_ratio_ground(DickeParams(1, 1, 0.375)).xi

    @pytest.mark.parametrize("tc_mask", [False, True])
    def test_xi_thermal_array_columns_write_the_list_bytes(self, tmp_path, tc_mask):
        # superradiant rows (g > 0.5) are masked with nan, or 0.0 under
        # tc_mask, among rows built cell by cell from one-point calls
        gs, temps = [0.0, 0.3, 0.5, 0.7, 1.2], [0.0, 0.013, 0.3, 1e308]
        result = cli.run_sweep(cli.resolve_config("sweep", {
            "grids": {"g": gs, "kt": temps},
            "sweep": {"quantity": "xi_thermal", "tc_mask": tc_mask},
        }))
        cells = []
        for g in gs:
            p = DickeParams(1.0, 1.0, g)
            sr = g > 0.5
            t_c = classical_critical_temperature(p) if sr else None
            for kt in temps:
                xi = (0.0 if tc_mask else math.nan) if sr else thermal_squeezing_ratio(p, kt).xi
                cells.append((g, kt, xi, t_c, sr and tc_mask, "analytic"))
        lists = dict(zip(result.columns, map(list, zip(*cells))))
        assert _body(tmp_path, result.columns) == _body(tmp_path, lists)

    def test_thermal_mask_zeroes_ordered_phase(self):
        base = {
            "grids": {"g": [0.3, 0.7], "kt": [0.1]},
            "sweep": {"quantity": "xi_thermal", "tc_mask": True},
        }
        rows = cli.run_sweep(cli.resolve_config("sweep", base)).rows
        by_g = {r["g"]: r for r in rows}
        assert by_g[0.3]["xi"] == thermal_squeezing_ratio(DickeParams(1, 1, 0.3), 0.1).xi
        assert by_g[0.7]["xi"] == 0.0
        assert by_g[0.7]["masked"] is True
        assert by_g[0.7]["t_c"] == pytest.approx(
            1.0 / (2 * math.atanh(1 / (4 * 0.49))), rel=1e-12
        )
        base["sweep"]["tc_mask"] = False
        rows = cli.run_sweep(cli.resolve_config("sweep", base)).rows
        assert math.isnan([r for r in rows if r["g"] == 0.7][0]["xi"])

    def test_ladder_dispersion_rows(self):
        ladder = dict(
            j_r=10.0, j_b=0.05, j_rb_x=0.4, j_rb_y=0.0, j_rb_z=0.0,
            omega_r=1.0, omega_b=1.0, n_sites=4,
        )
        cfg = cli.resolve_config(
            "sweep", {"sweep": {"quantity": "ladder_dispersion", "ladder": ladder}}
        )
        rows = cli.run_sweep(cfg).rows
        assert len(rows) == 4
        for row in rows:
            expected = 1.0 + 10.0 * (1 - math.cos(row["k"]))
            assert row["omega_k"] == pytest.approx(expected, rel=1e-14)

    def test_disorder_samples_quantity(self):
        cfg = cli.resolve_config(
            "sweep",
            {
                "model": {"g": 0.4},
                "rng_seed": 7,
                "sweep": {
                    "quantity": "disorder_sample",
                    "samples": 3,
                    "disorder": {
                        "m": 2,
                        "n_clean": 50,
                        "omega_prime_range": [1.0, 3.0],
                        "g_prime_range": [0.0, 0.2],
                    },
                },
            },
        )
        rows = cli.run_sweep(cfg).rows
        assert len(rows) == 6
        assert all(1.0 <= r["omega_prime"] <= 3.0 for r in rows)
        rerun = cli.run_sweep(cfg).rows
        assert rows == rerun

    def test_missing_quantity_rejected(self):
        with pytest.raises(cli.ConfigError, match="quantity"):
            cli.run_sweep(cli.resolve_config("sweep", {}))

    def test_xi_ground_over_an_omega0_grid(self):
        result = cli.run_sweep(cli.resolve_config("sweep", {
            "grids": {"g": [0.1, 0.3], "omega0": [1.0, 2.0]},
            "sweep": {"quantity": "xi_ground"},
        }))
        rows = [(r["omega0"], r["g"], r["xi"]) for r in result.rows]
        assert rows == [
            (omega0, g, squeezing_ratio_ground(DickeParams(1.0, omega0, g)).xi)
            for omega0 in (1.0, 2.0)
            for g in (0.1, 0.3)
        ]

    @pytest.mark.parametrize(
        "quantity, user_cfg, message",
        [
            ("xi_ground", {}, "xi_ground sweep needs a g grid"),
            ("xi_thermal", {"grids": {"g": [0.1]}}, "xi_thermal sweep needs g and kt grids"),
            ("ladder_dispersion", {}, "ladder_dispersion sweep needs sweep.ladder parameters"),
            ("disorder_sample", {}, "disorder_sample sweep needs sweep.disorder parameters"),
            (
                "disorder_sample",
                {"sweep": {"disorder": {"omega_prime_range": [1, 3], "g_prime_range": [0, 1]}}},
                "random defect ranges need rng_seed",
            ),
        ],
    )
    def test_missing_sweep_parameters_rejected(self, quantity, user_cfg, message):
        cfg = cli.resolve_config("sweep", cli._merge(user_cfg, {"sweep": {"quantity": quantity}}))
        with pytest.raises(cli.ConfigError, match=message):
            cli.run_sweep(cfg)


class TestPhiloxSampler:
    def test_frozen_vectors(self):
        # reproducibility contract: fixed key and counter give these draws
        samples = cli.disorder_samples(12345, 0, 2, (1.0, 3.0), (0.0, 1.0))
        expected = (
            (2.292760376845469, 0.7864362639285933),
            (2.548535195432957, 0.15959668272284822),
        )
        for got, want in zip(samples, expected):
            assert got[0] == pytest.approx(want[0], abs=1e-15)
            assert got[1] == pytest.approx(want[1], abs=1e-15)

    def test_counter_independence(self):
        first = cli.disorder_samples(9, 4, 1, (0.0, 1.0), (0.0, 1.0))
        again = cli.disorder_samples(9, 4, 1, (0.0, 1.0), (0.0, 1.0))
        other = cli.disorder_samples(9, 5, 1, (0.0, 1.0), (0.0, 1.0))
        assert first == again
        assert first != other

    def test_counters_past_2_53_stay_distinct(self):
        # a float64 counter would round 2**53 + 1 to 2**53, and warn on a
        # cast of counters from 2**63 on
        draw = [cli.disorder_samples(9, c, 1, (0.0, 1.0), (0.0, 1.0)) for c in (2**53, 2**53 + 1)]
        assert draw[0] != draw[1]
        cli.disorder_samples(9, 2**64 - 1, 1, (0.0, 1.0), (0.0, 1.0))


# floats from a small pool, so values repeat within a column; -math.nan keeps
# the sign bit, and 0.0 == -0.0
_FLOAT_POOL = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, 1 / 3, 1e-300, 5e-324, -2.5]
)
_TEXT = st.text(alphabet="ab-", max_size=3)
_ANY_CELL = st.one_of(
    _FLOAT_POOL, _TEXT, st.none(), st.booleans(), st.integers(-(10**20), 10**20),
    _FLOAT_POOL.map(np.float64),
)


@st.composite
def _tables(draw):
    """Columns of equal length: all float, all str, or any cell kind."""
    n_rows = draw(st.integers(0, 24))
    kinds = draw(st.lists(st.sampled_from([_FLOAT_POOL, _TEXT, _ANY_CELL]), min_size=1, max_size=4))
    return [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]


def _body(directory, columns):
    """The data lines write_csv gives for ``columns`` (name -> cells)."""
    meta = {"version": "0", "experiment": "sweep", "config_hash": "abc", "seed": None}
    out = directory / "body.csv"
    cli.write_csv(out, cli.SweepResult("sweep", columns, meta))
    lines = out.read_text().splitlines()
    return lines[lines.index(",".join(columns)) + 1:]


class TestMainEntry:
    def test_success_and_csv(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"g_over_omega": [0.0, 0.5]}}))
        rc = cli.main(["fig2", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        rows = _read_rows(out)
        assert rows[0]["xi"] == "1"
        header = out.read_text().splitlines()
        assert header[0].startswith("# dicke-squeeze")
        assert any(l.startswith("# config-hash:") for l in header)

    def test_determinism_excluding_timestamp(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rng_seed": 11, "grids": {"g_over_omega": [0.0, 0.3]}}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(b)]) == 0
        assert _filtered(a) == _filtered(b)

    def test_float_formatting_full_precision(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"g_over_omega": [0.3]}}))
        cli.main(["fig2", "--config", str(cfg), "--out", str(out)])
        row = _read_rows(out)[0]
        assert float(row["xi"]) == squeezing_ratio_ground(DickeParams(1, 1, 0.3)).xi

    def test_csv_bytes_for_every_cell_kind(self, tmp_path):
        # "x" is all Python float (the "%.17g" path), "t_c" mixes float and
        # None like the xi_thermal sweep, every other column takes _format_value
        names = ["none", "flag", "count", "np_int", "x", "np_x", "t_c", "label"]
        kinds = [
            (None, True, 0, np.int64(-7), 0.1, np.float64(1 / 3), None, "ideal"),
            (None, False, -12, np.int64(2**40), math.inf, np.float64(-0.0), 1.5, "a b"),
            (None, True, 10**20, np.int32(5), -math.inf, np.float64(math.nan), None, ""),
            (None, False, 1, np.uint8(255), math.nan, np.float64(math.inf), -0.0, "trk"),
            (None, True, 2, np.int64(0), -0.0, np.float64(1e-300), 1e-300, "x"),
            (None, False, 3, np.int64(1), 1e-300, np.float64(2.5), math.nan, "y"),
        ]
        columns = dict(zip(names, map(list, zip(*kinds))))
        meta = {"version": "0", "experiment": "sweep", "config_hash": "abc", "seed": None}
        result = cli.SweepResult("sweep", columns, {**meta, "skipped_points": 2})
        out = tmp_path / "cells.csv"
        cli.write_csv(out, result)
        expected = (
            "# dicke-squeeze 0\n"
            "# experiment: sweep\n"
            "# config-hash: abc\n"
            "# seed: none\n"
            "# skipped-points: 2\n"
            "none,flag,count,np_int,x,np_x,t_c,label\n"
            ",true,0,-7,0.10000000000000001,0.33333333333333331,,ideal\n"
            ",false,-12,1099511627776,inf,-0,1.5,a b\n"
            ",true,100000000000000000000,5,-inf,nan,,\n"
            ",false,1,255,nan,inf,-0,trk\n"
            ",true,2,0,-0,1e-300,1e-300,x\n"
            ",false,3,1,1e-300,2.5,nan,y\n"
        )
        text = "".join(
            line for line in out.read_text().splitlines(keepends=True)
            if not line.startswith("# generated:")
        )
        assert text == expected
        by_row = [",".join(map(cli._format_value, values)) for values in kinds]
        assert text.splitlines()[6:] == by_row
        # a constant str column comes back as it is, a str/None mix takes
        # _format_value, and an empty column writes the header alone
        for columns, body in [
            (
                {"method": ["analytic"] * 3, "mixed": ["a", None, "a"]},
                "analytic,a\nanalytic,\nanalytic,a\n",
            ),
            ({"empty": []}, ""),
        ]:
            cli.write_csv(out, cli.SweepResult("sweep", columns, meta))
            lines = out.read_text().splitlines(keepends=True)
            assert "".join(lines[lines.index(",".join(columns) + "\n") + 1 :]) == body

    def test_float_column_keeps_every_bit_pattern(self, tmp_path):
        # an all-float column is formatted once per distinct bit pattern:
        # 0.0 and -0.0 compare equal but must keep their own texts
        nan, inf = math.nan, math.inf
        x = [0.0, -0.0, 0.0, -0.0, -0.0, nan, -nan, nan, inf, -inf, inf, 0.1, 0.1, 2.5, 0.1, 0.0]
        want = [
            "0", "-0", "0", "-0", "-0", "nan", "nan", "nan", "inf", "-inf", "inf",
            "0.10000000000000001", "0.10000000000000001", "2.5", "0.10000000000000001", "0",
        ]
        y = [-v for v in x]
        assert _body(tmp_path, {"x": x, "y": y}) == [
            f"{a},{b}" for a, b in zip(want, map(cli._format_value, y))
        ]
        assert _body(tmp_path, {"y": y[::-1], "x": x[::-1]})[-1] == "-0,0"

    def test_sweep_result_columns_and_rows(self):
        result = cli.SweepResult("sweep", {"a": [1, None], "b": [None, "x"]}, {})
        assert result.rows == [{"a": 1, "b": None}, {"a": None, "b": "x"}]
        # a column shorter than the others would drop rows from the CSV
        with pytest.raises(ValueError, match="one cell per row"):
            cli.SweepResult("sweep", {"a": [1.0, 2.0], "b": [1.0]}, {})
        # an array column is float64 and gives rows of Python floats
        rows = cli.SweepResult("sweep", {"a": np.array([0.5, -0.0])}, {}).rows
        assert rows == [{"a": 0.5}, {"a": -0.0}] and type(rows[1]["a"]) is float
        for bad in (np.arange(2), np.array([True, False]), np.zeros((2, 1))):
            with pytest.raises(ValueError, match="1-D float64"):
                cli.SweepResult("sweep", {"a": bad}, {})

    @pytest.mark.parametrize("distinct", [21, 20], ids=["direct", "deduplicated"])
    def test_float_column_either_side_of_the_distinct_share(self, tmp_path, distinct):
        # 30 cells: more than two thirds distinct bit patterns (21) take the
        # direct format of every cell, 20 are formatted once per pattern and
        # gathered back; a float64 array column writes the list's bytes
        special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]
        pool = special + [k / 7 for k in range(1, distinct - len(special) + 1)]
        x = [pool[i % distinct] for i in range(30)]
        bits = {np.float64(v).view(np.int64).item() for v in x}
        assert len(bits) == distinct
        want = [f"{cli._format_value(v)},a" for v in x]
        assert _body(tmp_path, {"x": x, "label": ["a"] * len(x)}) == want
        assert _body(tmp_path, {"x": np.array(x), "label": ["a"] * len(x)}) == want

    # derandomized: the same examples on every run, so the suite stays reproducible
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(table=_tables())
    def test_csv_body_equals_row_by_row_format(self, tmp_path_factory, table):
        columns = {f"c{i}": cells for i, cells in enumerate(table)}
        by_row = [",".join(map(cli._format_value, cells)) for cells in zip(*table)]
        assert _body(tmp_path_factory.mktemp("csv"), columns) == by_row

    def test_usage_error(self, capsys):
        assert cli.main(["not-an-experiment"]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_error(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["fig2", "--config", str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert cli.main(["fig2", "--config", str(missing)]) == 1
        capsys.readouterr()
        # a bad output path fails before the experiment runs: open() would
        # take true or 5 as a file descriptor
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        for out in (True, 5, "", None, ["x.csv"]):
            bad.write_text(json.dumps({"out": out}))
            assert cli.main(["fig2", "--config", str(bad)]) == 1
        assert cli.main(["fig2", "--out", ""]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 6
        assert all(line.startswith("error: out must be a nonempty path") for line in errors)

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"g_over_omega": [0.0]}}))
        out = tmp_path / "missing" / "fig2.csv"
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        # the plot script's path is taken by a directory
        out = tmp_path / "fig2.csv"
        (tmp_path / "fig2.csv.gp").mkdir()
        argv = ["fig2", "--config", str(cfg), "--out", str(out), "--emit-plot-script"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_config_hash_ignores_the_output_path(self, tmp_path):
        # the hash names the computation: the config's out key and --out
        # write the same hash
        grids = {"grids": {"g_over_omega": [0.1]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**grids, "out": str(tmp_path / "a.csv")}))
        assert cli.main(["fig2", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps(grids))
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        hashes = [
            [l for l in (tmp_path / name).read_text().splitlines() if l.startswith("# config-hash")]
            for name in ("a.csv", "b.csv")
        ]
        assert hashes[0] == hashes[1] and len(hashes[0]) == 1

    def test_missing_output_directory_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        out = tmp_path / "missing" / "fig2.csv"
        assert cli.main(["fig2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")

    def test_warnings_come_before_a_failed_write(self, tmp_path, capsys):
        # tol 1e-30 flags every row; the output path is taken by a directory
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"n_spins": [2]}, "ed": {"n_max": [8], "tol": 1e-30}}))
        out = tmp_path / "fig3.csv"
        out.mkdir()
        assert cli.main(["fig3", "--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": residual")[0] for line in lines[:-1]] == ["warning: fig3 N=2 n_max=8"]
        assert lines[-1].startswith("error: cannot write output: ")

    def test_strict_mode_residual_violation(self, tmp_path, capsys):
        warnings = _strict_warnings(
            tmp_path, capsys, "fig3", {"grids": {"n_spins": [2]}, "ed": {"n_max": [8]}}
        )
        assert warnings == ["warning: fig3 N=2 n_max=8"]

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            ("[1, 2]", [], "error: config must be a JSON object"),
            ("{}", ["--n-max", "6,x"], "error: bad --n-max: '6,x'"),
        ],
    )
    def test_bad_config_file_or_n_max(self, tmp_path, capsys, config, argv, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        out = tmp_path / "fig3.csv"
        assert cli.main(["fig3", "--config", str(cfg), "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    def test_n_max_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"n_spins": [1]}}))
        out = tmp_path / "fig3.csv"
        rc = cli.main(
            ["fig3", "--config", str(cfg), "--out", str(out), "--n-max", "6,8"]
        )
        assert rc == 0
        n_maxes = {row["n_max"] for row in _read_rows(out)}
        assert n_maxes == {"6", "8"}

    def test_emit_plot_script(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": {"g_over_omega": [0.0, 0.2]}}))
        rc = cli.main(
            ["fig2", "--config", str(cfg), "--out", str(out), "--emit-plot-script"]
        )
        assert rc == 0
        script = tmp_path / "fig2.csv.gp"
        assert script.exists()
        assert "plot" in script.read_text()

    def test_sweep_plot_script_plots_its_value_column(self, tmp_path):
        # the value column against the first column, never two grid axes
        ladder = dict(
            j_r=10.0, j_b=0.05, j_rb_x=0.4, j_rb_y=0.0, j_rb_z=0.0,
            omega_r=1.0, omega_b=1.0, n_sites=4,
        )
        cases = [
            ({"grids": {"g": [0.1, 0.2]}, "sweep": {"quantity": "xi_ground"}}, "omega0", "xi", 3),
            (
                {"grids": {"g": [0.1], "kt": [0.1]}, "sweep": {"quantity": "xi_thermal"}},
                "g", "xi", 3,
            ),
            (
                {"sweep": {"quantity": "ladder_dispersion", "ladder": ladder}},
                "k_index", "omega_k", 3,
            ),
            (_disorder_sweep(), "sample", "xi", 5),
        ]
        out = tmp_path / "sweep.csv"
        cfg = tmp_path / "cfg.json"
        for user_cfg, x, y, column in cases:
            cfg.write_text(json.dumps(user_cfg))
            assert cli.main(
                ["sweep", "--config", str(cfg), "--out", str(out), "--emit-plot-script"]
            ) == 0
            script = (tmp_path / "sweep.csv.gp").read_text().splitlines()
            assert script[2:5] == [
                f"set xlabel '{x}'", f"set ylabel '{y}'",
                f"plot '{out}' using 1:{column} with points",
            ]
