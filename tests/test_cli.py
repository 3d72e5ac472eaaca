import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_squeeze import DickeParams, squeezing_ratio_ground, thermal_squeezing_ratio
from dicke_squeeze import cli


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
        for n_max in ([0], [], [True], [8, False]):
            with pytest.raises(cli.ConfigError, match="n_max"):
                cli.resolve_config("fig3", {"ed": {"n_max": n_max}})

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
        assert len(cli._grid({"min": 0, "max": 1, "count": 3.0}, "x")) == 3
        for count in (2.7, -1, True, "3", math.inf):
            with pytest.raises(cli.ConfigError, match="count must be an integer >= 0"):
                cli._grid({"min": 0, "max": 1, "count": count}, "x")

    def test_pool_holds_no_more_workers_than_tasks(self, monkeypatch):
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
        assert cli._run_tasks(abs, [-1, -2, -3], 64) == [1, 2, 3]
        assert cli._run_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert sizes == [3, 2]

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

    def test_fig6_equal_defects_form_one_block(self):
        # each run of equal defects is one collective spin; distinct ones
        # stay sites: N = 6, n_max = 50
        p = DickeParams(1.0, 1.0, 0.5, 6)
        a, b = (2.1, 2.0), (1.5, 2.0)
        for defects, dim in (((a,) * 3, 7 * 4 * 51), ((a, a, b), 7 * 3 * 2 * 51),
                             ((a, b, a), 7 * 8 * 51)):
            h, _ = cli._fig6_point(p, defects, 50)
            assert h.dim == dim

    @pytest.mark.parametrize("experiment", ["fig3", "fig6", "fig7"])
    def test_nonzero_a2_coeff_rejected(self, experiment):
        # the quadrature angles of fig6 (normal_modes) and fig7 (IsingParams)
        # carry no A^2 term, so an A^2 term in H alone would give a wrong xi
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


def _body(directory, columns, rows):
    """The data lines write_csv gives for ``rows``."""
    meta = {"version": "0", "experiment": "sweep", "config_hash": "abc", "seed": None}
    out = directory / "body.csv"
    cli.write_csv(out, cli.SweepResult("sweep", columns, rows, meta))
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
        columns = ["none", "flag", "count", "np_int", "x", "np_x", "t_c", "label"]
        kinds = [
            (None, True, 0, np.int64(-7), 0.1, np.float64(1 / 3), None, "ideal"),
            (None, False, -12, np.int64(2**40), math.inf, np.float64(-0.0), 1.5, "a b"),
            (None, True, 10**20, np.int32(5), -math.inf, np.float64(math.nan), None, ""),
            (None, False, 1, np.uint8(255), math.nan, np.float64(math.inf), -0.0, "trk"),
            (None, True, 2, np.int64(0), -0.0, np.float64(1e-300), 1e-300, "x"),
            (None, False, 3, np.int64(1), 1e-300, np.float64(2.5), math.nan, "y"),
        ]
        rows = [dict(zip(columns, values)) for values in kinds]
        del rows[1]["none"]  # a missing cell reads as None
        meta = {"version": "0", "experiment": "sweep", "config_hash": "abc", "seed": None}
        result = cli.SweepResult("sweep", columns, rows, {**meta, "skipped_points": 2})
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
        by_row = [",".join(cli._format_value(row.get(c)) for c in columns) for row in rows]
        assert text.splitlines()[6:] == by_row

    def test_float_column_keeps_every_bit_pattern(self, tmp_path):
        # an all-float column is formatted once per distinct bit pattern:
        # 0.0 and -0.0 compare equal but must keep their own texts
        nan, inf = math.nan, math.inf
        x = [0.0, -0.0, 0.0, -0.0, -0.0, nan, -nan, nan, inf, -inf, inf, 0.1, 0.1, 2.5, 0.1, 0.0]
        want = [
            "0", "-0", "0", "-0", "-0", "nan", "nan", "nan", "inf", "-inf", "inf",
            "0.10000000000000001", "0.10000000000000001", "2.5", "0.10000000000000001", "0",
        ]
        rows = [{"x": v, "y": -v} for v in x]
        assert _body(tmp_path, ["x", "y"], rows) == [
            f"{a},{b}" for a, b in zip(want, (cli._format_value(-v) for v in x))
        ]
        assert _body(tmp_path, ["y", "x"], rows[::-1])[-1] == "-0,0"

    # derandomized: the same examples on every run, so the suite stays reproducible
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(table=_tables())
    def test_csv_body_equals_row_by_row_format(self, tmp_path_factory, table):
        columns = [f"c{i}" for i in range(len(table))]
        rows = [dict(zip(columns, cells)) for cells in zip(*table)]
        by_row = [",".join(cli._format_value(row[c]) for c in columns) for row in rows]
        assert _body(tmp_path_factory.mktemp("csv"), columns, rows) == by_row

    def test_usage_error(self, capsys):
        assert cli.main(["not-an-experiment"]) == 1
        assert "error" in capsys.readouterr().err

    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["fig2", "--config", str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert cli.main(["fig2", "--config", str(missing)]) == 1

    def test_strict_mode_residual_violation(self, tmp_path, capsys):
        warnings = _strict_warnings(
            tmp_path, capsys, "fig3", {"grids": {"n_spins": [2]}, "ed": {"n_max": [8]}}
        )
        assert warnings == ["warning: fig3 N=2 n_max=8"]

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
