"""Command-line harness: named sweep presets (fig2..fig7) and generic sweeps.

Every experiment resolves a JSON configuration (defaults merged with the
user's file), computes a deterministic table of rows, and writes CSV with a
'#'-prefixed metadata block. Identical configuration and seed give
byte-identical output except for the '# generated:' comment line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, bogoliubov, disorder, ising
from .core import DickeParams, PhaseLabel, classify_phase, ladder_params_from_dict, map_ladder_to_dicke
from .ed import (
    build_basis,
    build_dicke_hamiltonian,
    build_dicke_ising_hamiltonian,
    build_disordered_hamiltonian,
    ground_state,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    s_tilde_y,
    variance,
)
from .ed.solver import matrix_inf_norm

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "sweep")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STRICT = 2


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 1."""


@dataclass
class SweepResult:
    experiment: str
    columns: list[str]
    rows: list[dict]
    meta: dict
    violations: list[str] = field(default_factory=list)


# -- configuration -----------------------------------------------------------

_DEFAULTS = {
    "fig2": {
        "model": {"omega": 1.0, "omega0": 1.0},
        "grids": {"g_over_omega": {"min": 0.0, "max": 1.0, "count": 201}},
    },
    "fig3": {
        "model": {"omega": 1.0, "omega0": 1.0, "g": 0.5},
        "grids": {"n_spins": [1, 2, 3, 4, 5, 6, 7]},
        "ed": {"n_max": [40, 50], "tol": 1e-10},
    },
    "fig4": {
        "model": {"omega": 1.0},
        "grids": {
            "omega0_over_omega": [1.0, 2.0],
            "gc_minus_g_over_omega": {"min": 0.0, "max": 0.45, "count": 46},
            "kt_over_omega": {"min": 0.01, "max": 0.6, "count": 60},
        },
    },
    "fig5": {
        "model": {"omega": 1.0, "g": 0.1},
        "grids": {
            "omega0_over_omega": {"min": 0.04, "max": 0.2, "count": 81},
            "kt_over_omega": [0.013, 0.015, 0.017, 0.019, 0.021, 0.023, 0.025],
        },
    },
    "fig6": {
        "model": {"omega": 1.0, "omega0": 1.0, "g": 0.5},
        "grids": {"n_clean": [1, 2, 3, 4, 5, 6]},
        "disorder": {"m": 1, "omega_prime": 2.1, "g_prime": 2.0},
        "ed": {"n_max": [40, 50], "tol": 1e-10},
    },
    "fig7": {
        "model": {"omega": 1.0, "omega0": 1.0, "g": 0.5},
        "grids": {"eta": {"min": 0.0, "max": 1.5, "count": 16}},
        "ed": {"n_max": [40, 50], "tol": 1e-10},
    },
    "sweep": {
        "model": {"omega": 1.0, "omega0": 1.0, "g": 0.0},
        "grids": {},
        "ed": {"n_max": [40], "tol": 1e-10},
        "sweep": {},
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_config(experiment: str, user_cfg: dict | None = None) -> dict:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    cfg = _merge(_DEFAULTS[experiment], user_cfg or {})
    cfg["experiment"] = experiment
    declared = cfg.get("experiment_id")
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config declares experiment {declared!r} but {experiment!r} was requested"
        )
    grids = cfg.get("grids", {})
    if not isinstance(grids, dict):
        raise ConfigError("grids must be an object")
    for name, spec in grids.items():
        if len(_grid(spec, name)) == 0:
            raise ConfigError(f"grid {name!r} is empty")
    ed = cfg.get("ed")
    if ed is not None:
        n_max = ed.get("n_max", [])
        if not isinstance(n_max, list) or not all(
            isinstance(v, int) and v >= 1 for v in n_max
        ):
            raise ConfigError("ed.n_max must be a list of positive integers")
    return cfg


def _grid(spec, name: str) -> np.ndarray:
    if isinstance(spec, dict):
        try:
            return np.linspace(spec["min"], spec["max"], int(spec["count"]))
        except KeyError as exc:
            raise ConfigError(f"grid {name!r} needs min/max/count") from exc
    if isinstance(spec, (list, tuple)):
        return np.asarray(spec, dtype=float)
    raise ConfigError(f"grid {name!r} must be a list or a min/max/count object")


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _meta(cfg: dict) -> dict:
    return {
        "version": __version__,
        "experiment": cfg["experiment"],
        "config_hash": config_hash(cfg),
        "seed": cfg.get("rng_seed"),
    }


def _model(cfg: dict, **overrides) -> DickeParams:
    merged = dict(cfg.get("model", {}))
    merged.update(overrides)
    merged.setdefault("n_spins", 1)
    try:
        return DickeParams(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model parameters: {exc}") from exc


def disorder_samples(seed: int, counter: int, m: int, omega_range, g_range):
    """Counter-based defect draws: sample ``counter`` of the stream keyed by
    ``seed`` yields m (omega_prime, g_prime) pairs, independent of how many
    other samples were drawn. Philox, so reproducible across platforms."""
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[np.uint64(counter), 0, 0, 0])
    gen = np.random.Generator(bitgen)
    omegas = gen.uniform(omega_range[0], omega_range[1], size=m)
    gs = gen.uniform(g_range[0], g_range[1], size=m)
    return tuple(zip(omegas.tolist(), gs.tolist()))


# -- ED presets: one task path (top-level so a worker pool can pickle it) ----

def _fig3_point(p, n_max):
    # all spins are permutation-equivalent: one collective spin J = N/2
    basis = build_basis(p.n_spins, n_max, n_collective=p.n_spins)
    quadratures = [
        ({"quadrature": "p_tilde_minus"}, p_tilde_minus(basis), 1.0),
        ({"quadrature": "s_tilde_y"}, s_tilde_y(basis), 1.0),
    ]
    return build_dicke_hamiltonian(p, basis), quadratures


def _fig6_point(p, defects, n_max):
    ens = disorder.DisorderEnsemble(p.n_spins, defects)
    gbar = disorder.renormalized_coupling(p.g, p.n_spins, ens.m)
    gamma_bar = bogoliubov.normal_modes(p, g_renormalized=gbar).gamma
    # the clean spins form one collective spin; the defects stay explicit
    basis = build_basis(p.n_spins + ens.m, n_max, n_collective=p.n_spins)
    q = p_d(basis, p.omega, p.omega0, gamma_bar)
    return build_disordered_hamiltonian(p, ens, basis), [({}, q, p.omega / 2.0)]


def _fig7_point(p, eta, n_max):
    ip = ising.IsingParams(
        eta=eta, omega0=p.omega0, dispersion=p.omega, g=p.g, n_spins=p.n_spins
    )
    gamma0 = ising.mixing_angle_k(ip, 0.0)
    e0 = ising.magnon_energy(ip, 0.0)
    basis = build_basis(p.n_spins, n_max)
    q = p_minus_k0(basis, p.omega, e0, gamma0, eta)
    return build_dicke_ising_hamiltonian(p, eta, basis), [({}, q, p.omega / 2.0)]


def _ed_task(task):
    """Ground state of one (point, n_max): each quadrature's variance over its
    normalization, the residual, and whether it meets tol * ||H||_inf."""
    point, args, n_max, tol = task
    h, quadratures = point(*args, n_max)
    gs = ground_state(h, tol=tol)
    values = [(labels, variance(gs, q) / norm) for labels, q, norm in quadratures]
    return values, gs.residual, gs.residual <= tol * matrix_inf_norm(h.matrix)


def _run_ed(cfg, jobs, point, points, columns, value_field, meta) -> SweepResult:
    """Solve every point at every ``ed.n_max`` on the one ED task path.

    ``points`` holds one (warning label, row labels, args) per point, and
    ``point(*args, n_max)`` returns the Hamiltonian and one (row labels,
    quadrature, normalization) per row; ``value_field`` names the column
    that gets the normalized variance. ``meta`` gains the largest spread of
    a row's value over the truncations."""
    if cfg["model"].get("a2_coeff", 0.0) != 0.0:
        raise ConfigError(
            "model.a2_coeff must be 0 for the ED presets: their quadrature "
            "angles carry no squared-displacement term"
        )
    tol = cfg["ed"]["tol"]
    grid = list(itertools.product(points, cfg["ed"]["n_max"]))
    tasks = [(point, args, nm, tol) for (_, _, args), nm in grid]
    rows, violations, by_key = [], [], {}
    for ((label, point_labels, _), nm), (values, residual, ok) in zip(
        grid, _run_tasks(_ed_task, tasks, jobs)
    ):
        for labels, value in values:
            rows.append(
                {
                    **point_labels,
                    "n_max": nm,
                    **labels,
                    value_field: value,
                    "residual": residual,
                    "residual_ok": ok,
                    "method": "ed",
                }
            )
            by_key.setdefault((*point_labels.values(), *labels.values()), []).append(value)
        if not ok:
            violations.append(
                f"{cfg['experiment']} {label} n_max={nm}: residual {residual:.3e}"
            )
    deltas = [max(vals) - min(vals) for vals in by_key.values() if len(vals) > 1]
    if deltas:
        meta["max_truncation_delta"] = f"{max(deltas):.3e}"
    return SweepResult(cfg["experiment"], columns, rows, meta, violations)


def _run_tasks(func, tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            return pool.map(func, tasks)
    return [func(t) for t in tasks]


# -- experiments -------------------------------------------------------------

def run_fig2(cfg: dict, jobs: int = 1) -> SweepResult:
    """Ground-state squeezing ratio against coupling at resonance, with and
    without the TRK-valued squared-displacement term."""
    grid = _grid(cfg["grids"]["g_over_omega"], "g_over_omega")
    omega = cfg["model"].get("omega", 1.0)
    omega0 = cfg["model"].get("omega0", omega)
    rows = []
    for g_ratio in grid:
        g = float(g_ratio) * omega
        ideal = bogoliubov.squeezing_ratio_ground(_model(cfg, g=g, a2_coeff=0.0))
        trk = bogoliubov.squeezing_ratio_ground(
            _model(cfg, g=g, a2_coeff=g * g / omega0)
        )
        for variant, report in (("ideal", ideal), ("trk", trk)):
            rows.append(
                {
                    "g_over_omega": float(g_ratio),
                    "variant": variant,
                    "xi": report.xi,
                    "method": "analytic",
                    "n_max": None,
                    "residual": None,
                }
            )
    return SweepResult(
        experiment="fig2",
        columns=["g_over_omega", "variant", "xi", "method", "n_max", "residual"],
        rows=rows,
        meta=_meta(cfg),
    )


def run_fig3(cfg: dict, jobs: int = 1) -> SweepResult:
    """Finite-size ground-state variances of the two squeezing witnesses
    against spin number, at the thermodynamic-limit critical coupling."""
    points = [
        (f"N={n}", {"n_spins": n}, (_model(cfg, n_spins=n),))
        for n in (int(v) for v in _grid(cfg["grids"]["n_spins"], "n_spins"))
    ]
    columns = [
        "n_spins",
        "n_max",
        "quadrature",
        "variance",
        "residual",
        "residual_ok",
        "method",
    ]
    meta = _meta(cfg)
    meta["large_n_limits"] = "var_p_tilde_minus -> 0, var_s_tilde_y -> 0.70711"
    return _run_ed(cfg, jobs, _fig3_point, points, columns, "variance", meta)


def run_fig4(cfg: dict, jobs: int = 1) -> SweepResult:
    """Thermal squeezing ratio over temperature and distance to the critical
    coupling, for one resonant and one detuned spin splitting."""
    omega = cfg["model"]["omega"]
    ratios = _grid(cfg["grids"]["omega0_over_omega"], "omega0_over_omega")
    deltas = _grid(cfg["grids"]["gc_minus_g_over_omega"], "gc_minus_g_over_omega")
    temps = _grid(cfg["grids"]["kt_over_omega"], "kt_over_omega")
    rows = []
    for ratio in ratios:
        omega0 = float(ratio) * omega
        gc = math.sqrt(omega * omega0) / 2.0
        for delta in deltas:
            g = gc - float(delta) * omega
            if g < 0:
                continue
            p = _model(cfg, omega0=omega0, g=g)
            for kt in temps:
                xi = bogoliubov.thermal_squeezing_ratio(p, float(kt) * omega).xi
                rows.append(
                    {
                        "omega0_over_omega": float(ratio),
                        "gc_minus_g_over_omega": float(delta),
                        "kt_over_omega": float(kt),
                        "xi": xi,
                        "method": "analytic",
                    }
                )
    return SweepResult(
        experiment="fig4",
        columns=[
            "omega0_over_omega",
            "gc_minus_g_over_omega",
            "kt_over_omega",
            "xi",
            "method",
        ],
        rows=rows,
        meta=_meta(cfg),
    )


def run_fig5(cfg: dict, jobs: int = 1) -> SweepResult:
    """Thermal squeezing ratio over temperature and spin splitting at fixed
    weak coupling; the optimum sits away from the critical splitting."""
    omega = cfg["model"]["omega"]
    g = cfg["model"]["g"]
    ratios = _grid(cfg["grids"]["omega0_over_omega"], "omega0_over_omega")
    temps = _grid(cfg["grids"]["kt_over_omega"], "kt_over_omega")
    rows = []
    for kt in temps:
        for ratio in ratios:
            p = _model(cfg, omega0=float(ratio) * omega, g=g)
            xi = bogoliubov.thermal_squeezing_ratio(p, float(kt) * omega).xi
            rows.append(
                {
                    "omega0_over_omega": float(ratio),
                    "kt_over_omega": float(kt),
                    "xi": xi,
                    "method": "analytic",
                }
            )
    return SweepResult(
        experiment="fig5",
        columns=["omega0_over_omega", "kt_over_omega", "xi", "method"],
        rows=rows,
        meta=_meta(cfg),
    )


def _fig6_defects(cfg: dict) -> tuple[tuple[float, float], ...]:
    spec = cfg.get("disorder", {})
    m = int(spec.get("m", 1))
    omega = cfg["model"]["omega"]
    if "omega_prime_range" in spec or "g_prime_range" in spec:
        seed = cfg.get("rng_seed")
        if seed is None:
            raise ConfigError("random defect ranges need rng_seed")
        return disorder_samples(
            seed,
            int(spec.get("counter", 0)),
            m,
            spec["omega_prime_range"],
            spec["g_prime_range"],
        )
    return tuple(
        (spec.get("omega_prime", 2.1) * omega, spec.get("g_prime", 2.0) * omega)
        for _ in range(m)
    )


def run_fig6(cfg: dict, jobs: int = 1) -> SweepResult:
    """Squeezing ratio of the all-spin quadrature against defect fraction:
    exact diagonalization at both truncations plus the perturbative column."""
    params = [
        _model(cfg, n_spins=int(n)) for n in _grid(cfg["grids"]["n_clean"], "n_clean")
    ]
    defects = _fig6_defects(cfg)
    m = len(defects)
    points = [
        (
            f"N={p.n_spins}",
            {"n_clean": p.n_spins, "fraction": m / (p.n_spins + m)},
            (p, defects),
        )
        for p in params
    ]
    columns = [
        "n_clean",
        "fraction",
        "n_max",
        "xi",
        "residual",
        "residual_ok",
        "method",
        "perturbative_valid",
    ]
    result = _run_ed(cfg, jobs, _fig6_point, points, columns, "xi", _meta(cfg))
    for p, (_, labels, _) in zip(params, points):
        report = disorder.disorder_xi_perturbative(
            p, disorder.DisorderEnsemble(p.n_spins, defects)
        )
        result.rows.append(
            {
                **labels,
                "xi": report.xi,
                "method": "analytic",
                "perturbative_valid": all(report.validity),
            }
        )
    return result


def run_fig7(cfg: dict, jobs: int = 1) -> SweepResult:
    """Squeezing ratio of the zero-momentum quadrature against the Ising
    coupling ratio at the clean critical coupling."""
    p = _model(cfg, n_spins=int(cfg["model"].get("n_spins", 6)))
    points = [
        (f"eta={eta:g}", {"eta": eta}, (p, eta))
        for eta in (float(v) for v in _grid(cfg["grids"]["eta"], "eta"))
    ]
    columns = ["eta", "n_max", "xi", "residual", "residual_ok", "method"]
    return _run_ed(cfg, jobs, _fig7_point, points, columns, "xi", _meta(cfg))


def run_sweep(cfg: dict, jobs: int = 1) -> SweepResult:
    """Generic cartesian sweeps over the analytic quantities."""
    sweep = cfg.get("sweep", {})
    quantity = sweep.get("quantity")
    if quantity == "xi_ground":
        return _sweep_xi_ground(cfg)
    if quantity == "xi_thermal":
        return _sweep_xi_thermal(cfg)
    if quantity == "ladder_dispersion":
        return _sweep_ladder(cfg)
    if quantity == "disorder_sample":
        return _sweep_disorder_samples(cfg)
    raise ConfigError(
        "sweep.quantity must be one of xi_ground, xi_thermal, "
        "ladder_dispersion, disorder_sample"
    )


def _sweep_xi_ground(cfg):
    grids = cfg["grids"]
    if "g" not in grids:
        raise ConfigError("xi_ground sweep needs a g grid")
    gs = _grid(grids["g"], "g")
    omega0s = (
        _grid(grids["omega0"], "omega0")
        if "omega0" in grids
        else [cfg["model"]["omega0"]]
    )
    rows = []
    for omega0 in omega0s:
        for g in gs:
            p = _model(cfg, omega0=float(omega0), g=float(g))
            rows.append(
                {
                    "omega0": float(omega0),
                    "g": float(g),
                    "xi": bogoliubov.squeezing_ratio_ground(p).xi,
                    "method": "analytic",
                }
            )
    return SweepResult(
        experiment="sweep",
        columns=["omega0", "g", "xi", "method"],
        rows=rows,
        meta=_meta(cfg),
    )


def _sweep_xi_thermal(cfg):
    grids = cfg["grids"]
    if "g" not in grids or "kt" not in grids:
        raise ConfigError("xi_thermal sweep needs g and kt grids")
    tc_mask = bool(cfg.get("sweep", {}).get("tc_mask", False))
    rows = []
    for g in _grid(grids["g"], "g"):
        p = _model(cfg, g=float(g))
        superradiant = classify_phase(p) is PhaseLabel.SUPERRADIANT
        t_c = (
            bogoliubov.classical_critical_temperature(p) if superradiant else None
        )
        for kt in _grid(grids["kt"], "kt"):
            if superradiant:
                xi = 0.0 if tc_mask else math.nan
            else:
                xi = bogoliubov.thermal_squeezing_ratio(p, float(kt)).xi
            rows.append(
                {
                    "g": float(g),
                    "kt": float(kt),
                    "xi": xi,
                    "t_c": t_c,
                    "masked": superradiant and tc_mask,
                    "method": "analytic",
                }
            )
    return SweepResult(
        experiment="sweep",
        columns=["g", "kt", "xi", "t_c", "masked", "method"],
        rows=rows,
        meta=_meta(cfg),
    )


def _sweep_ladder(cfg):
    ladder_cfg = cfg.get("sweep", {}).get("ladder")
    if not ladder_cfg:
        raise ConfigError("ladder_dispersion sweep needs sweep.ladder parameters")
    try:
        spec = map_ladder_to_dicke(ladder_params_from_dict(ladder_cfg))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad ladder parameters: {exc}") from exc
    rows = [
        {
            "k_index": i,
            "k": mode.k,
            "omega_k": mode.omega_k,
            "g_x": mode.g_x,
            "g_y": mode.g_y,
            "method": "analytic",
        }
        for i, mode in enumerate(spec.modes)
    ]
    meta = _meta(cfg)
    meta["validity_flags"] = "; ".join(spec.validity_flags) or "none"
    return SweepResult(
        experiment="sweep",
        columns=["k_index", "k", "omega_k", "g_x", "g_y", "method"],
        rows=rows,
        meta=meta,
    )


def _sweep_disorder_samples(cfg):
    sweep = cfg.get("sweep", {})
    spec = sweep.get("disorder")
    if not spec:
        raise ConfigError("disorder_sample sweep needs sweep.disorder parameters")
    seed = cfg.get("rng_seed")
    if seed is None:
        raise ConfigError("disorder_sample sweep needs rng_seed")
    count = int(sweep.get("samples", 1))
    m = int(spec.get("m", 1))
    n_clean = int(spec.get("n_clean", 1))
    omega_range = spec.get("omega_prime_range")
    g_range = spec.get("g_prime_range")
    if not omega_range or not g_range:
        raise ConfigError(
            "disorder_sample needs omega_prime_range and g_prime_range"
        )
    p = _model(cfg)
    rows = []
    for sample in range(count):
        defects = disorder_samples(seed, sample, m, omega_range, g_range)
        ens = disorder.DisorderEnsemble(n_clean, defects)
        report = disorder.disorder_xi_perturbative(p, ens)
        for j, (omega_prime, g_prime) in enumerate(defects):
            rows.append(
                {
                    "sample": sample,
                    "defect": j,
                    "omega_prime": omega_prime,
                    "g_prime": g_prime,
                    "xi": report.xi,
                    "alpha": report.alpha,
                    "perturbative_valid": report.validity[j],
                    "method": "analytic",
                }
            )
    return SweepResult(
        experiment="sweep",
        columns=[
            "sample",
            "defect",
            "omega_prime",
            "g_prime",
            "xi",
            "alpha",
            "perturbative_valid",
            "method",
        ],
        rows=rows,
        meta=_meta(cfg),
    )


_RUNNERS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "sweep": run_sweep,
}


def run_experiment(experiment: str, cfg: dict, jobs: int = 1) -> SweepResult:
    return _RUNNERS[experiment](cfg, jobs=jobs)


# -- serialization -----------------------------------------------------------

def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, result: SweepResult, elapsed: float | None = None) -> None:
    meta = result.meta
    lines = [
        f"# dicke-squeeze {meta['version']}",
        f"# experiment: {meta['experiment']}",
        f"# config-hash: {meta['config_hash']}",
        f"# seed: {meta['seed'] if meta['seed'] is not None else 'none'}",
    ]
    for key, value in meta.items():
        if key not in ("version", "experiment", "config_hash", "seed"):
            lines.append(f"# {key.replace('_', '-')}: {value}")
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    elapsed_s = f" elapsed_s: {elapsed:.3f}" if elapsed is not None else ""
    lines.append(f"# generated: {stamp}{elapsed_s}")
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_value(row.get(c)) for c in result.columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_PLOT_HINTS = {
    "fig2": ("g_over_omega", "xi"),
    "fig3": ("n_spins", "variance"),
    "fig4": ("gc_minus_g_over_omega", "xi"),
    "fig5": ("omega0_over_omega", "xi"),
    "fig6": ("fraction", "xi"),
    "fig7": ("eta", "xi"),
    "sweep": (None, None),
}


def write_plot_script(csv_path, script_path, result: SweepResult) -> None:
    x, y = _PLOT_HINTS.get(result.experiment, (None, None))
    if x is None:
        x = result.columns[0]
        y = result.columns[1] if len(result.columns) > 1 else result.columns[0]
    xi = result.columns.index(x) + 1
    yi = result.columns.index(y) + 1
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{x}'",
        f"set ylabel '{y}'",
        f"plot '{csv_path}' using {xi}:{yi} with points",
        "pause -1",
    ]
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# -- entry point -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dicke-squeeze",
        description="Squeezing sweeps for the Dicke model and its perturbations.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    parser.add_argument(
        "--n-max",
        help="comma-separated boson truncations overriding the configuration",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail (exit 2) on any residual-tolerance violation; forces --jobs 1",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker pool size")
    parser.add_argument(
        "--emit-plot-script",
        action="store_true",
        help="write a gnuplot companion script next to the CSV",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        user_cfg = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    user_cfg = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            if not isinstance(user_cfg, dict):
                raise ConfigError("config must be a JSON object")
        if args.n_max:
            try:
                n_max = [int(v) for v in args.n_max.split(",") if v]
            except ValueError as exc:
                raise ConfigError(f"bad --n-max: {args.n_max!r}") from exc
            user_cfg = _merge(user_cfg, {"ed": {"n_max": n_max}})
        cfg = resolve_config(args.experiment, user_cfg)
        jobs = 1 if args.strict else max(1, args.jobs)
        t0 = time.perf_counter()
        result = run_experiment(args.experiment, cfg, jobs=jobs)
        elapsed = time.perf_counter() - t0
        out = args.out or cfg.get("out") or f"{args.experiment}.csv"
        write_csv(out, result, elapsed=elapsed)
        if args.emit_plot_script:
            write_plot_script(out, f"{out}.gp", result)
        for violation in result.violations:
            print(f"warning: {violation}", file=sys.stderr)
        if args.strict and result.violations:
            return EXIT_STRICT
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
