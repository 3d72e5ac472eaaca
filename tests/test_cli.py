import json
import math
import re

import numpy as np
import pytest

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
        with pytest.raises(cli.ConfigError, match="n_max"):
            cli.resolve_config("fig3", {"ed": {"n_max": [0]}})

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
    @pytest.mark.parametrize("experiment", ["fig3", "fig6", "fig7"])
    def test_bad_model_values_are_a_config_error(self, tmp_path, capsys, experiment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"g": -0.5}}))
        out = tmp_path / f"{experiment}.csv"
        assert cli.main([experiment, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bad model parameters: ")
        assert not out.exists()

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
