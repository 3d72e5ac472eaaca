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
from .core import (
    DickeParams,
    PhaseLabel,
    classify_phase,
    finite_real,
    integer_at_least,
    ladder_params_from_dict,
    map_ladder_to_dicke,
)
from .ed import (
    build_basis,
    build_dicke_hamiltonian,
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
    if ed is not None and not isinstance(ed, dict):
        raise ConfigError("ed must be an object")
    if ed is not None and "n_max" in ed:
        n_max = ed["n_max"]
        if not isinstance(n_max, list) or not n_max or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in n_max
        ):
            raise ConfigError("ed.n_max must be a nonempty list of positive integers")
    if ed is not None and "tol" in ed:
        # the residual check compares against tol * ||H||: a tol <= 0 would
        # flag every row, a non-number fails deep inside the solver
        tol = ed["tol"]
        numeric = isinstance(tol, (int, float)) and not isinstance(tol, bool)
        if not (numeric and math.isfinite(tol) and tol > 0):
            raise ConfigError(f"ed.tol must be a finite number > 0, got {tol!r}")
    return cfg


def _grid(spec, name: str) -> np.ndarray:
    try:
        if isinstance(spec, dict):
            # linspace would truncate a fractional count and take a bool as 0 or 1
            count = integer_at_least("count", spec["count"], 0)
            return np.linspace(spec["min"], spec["max"], count)
        if isinstance(spec, (list, tuple)):
            if any(isinstance(v, bool) for v in spec):
                raise ValueError(f"a bool is not a grid value, got {spec!r}")
            return np.asarray(spec, dtype=float)
    except KeyError as exc:
        raise ConfigError(f"grid {name!r} needs min/max/count") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid {name!r} must hold numbers: {exc}") from exc
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


def _checked(what: str, check, *args, **kwargs):
    """check(*args, **kwargs), with a rejection reported as bad ``what``
    parameters."""
    try:
        return check(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} parameters: {exc}") from exc


def _model(cfg: dict, **overrides) -> DickeParams:
    merged = dict(cfg.get("model", {}))
    merged.update(overrides)
    merged.setdefault("n_spins", 1)
    return _checked("model", DickeParams, **merged)


def _model_real(cfg: dict, name: str, default=None) -> float:
    """model.<name> as a float, checked before a grid is scaled by it."""
    return _checked("model", finite_real, name, cfg["model"].get(name, default))


def _disorder_int(spec: dict, name: str, default: int, minimum: int) -> int:
    value = spec.get(name, default)
    return _checked("disorder", integer_at_least, f"disorder.{name}", value, minimum)


def _defect_sampler(cfg: dict, spec: dict):
    """counter -> the m defects of sample ``counter`` drawn from a random-defect
    spec, once rng_seed is set, m is an integer >= 0 and each range holds two
    finite numbers."""
    if "omega_prime_range" not in spec or "g_prime_range" not in spec:
        raise ConfigError("random defects need both omega_prime_range and g_prime_range")
    seed = cfg.get("rng_seed")
    if seed is None:
        raise ConfigError("random defect ranges need rng_seed")
    # the Philox key is one uint64
    seed = _checked("disorder", integer_at_least, "rng_seed", seed, 0)
    if seed >= 2**64:
        raise ConfigError(f"bad disorder parameters: rng_seed must be below 2**64, got {seed}")
    m = _disorder_int(spec, "m", 1, 0)
    ranges = []
    for name in ("omega_prime_range", "g_prime_range"):
        bounds = spec[name]
        name = f"disorder.{name}"
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ConfigError(
                f"bad disorder parameters: {name} must hold two numbers, got {bounds!r}"
            )
        ranges.append(tuple(_checked("disorder", finite_real, name, v) for v in bounds))
    return lambda counter: disorder_samples(seed, counter, m, *ranges)


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
    basis = build_basis(p.n_spins, n_max, (p.n_spins,))
    quadratures = [
        ({"quadrature": "p_tilde_minus"}, p_tilde_minus(basis), 1.0),
        ({"quadrature": "s_tilde_y"}, s_tilde_y(basis), 1.0),
    ]
    return build_dicke_hamiltonian(p, basis), quadratures


def _fig6_point(p, defects, n_max):
    ens = disorder.DisorderEnsemble(p.n_spins, defects)
    gbar = disorder.renormalized_coupling(p.g, p.n_spins, ens.m)
    gamma_bar = bogoliubov.normal_modes(p, g_renormalized=gbar).gamma
    # one collective spin holds the clean spins, one more each run of equal defects
    runs = (len(list(run)) for _, run in itertools.groupby(ens.defects))
    basis = build_basis(p.n_spins + ens.m, n_max, (p.n_spins, *runs))
    q = p_d(basis, p.omega, p.omega0, gamma_bar)
    return build_dicke_hamiltonian(p, basis, disorder=ens), [({}, q, p.omega / 2.0)]


def _fig7_point(p, eta, n_max):
    ip = ising.IsingParams(
        eta=eta, omega0=p.omega0, dispersion=p.omega, g=p.g, n_spins=p.n_spins
    )
    gamma0 = ising.mixing_angle_k(ip, 0.0)
    e0 = ising.magnon_energy(ip, 0.0)
    # the ring, the coupling and the quadrature commute with translation: k = 0
    basis = build_basis(p.n_spins, n_max, k0=True)
    q = p_minus_k0(basis, p.omega, e0, gamma0, eta)
    return build_dicke_hamiltonian(p, basis, eta=eta), [({}, q, p.omega / 2.0)]


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

        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            return pool.map(func, tasks)
    return [func(t) for t in tasks]


# -- experiments -------------------------------------------------------------

def run_fig2(cfg: dict, jobs: int = 1) -> SweepResult:
    """Ground-state squeezing ratio against coupling at resonance, with and
    without the TRK-valued squared-displacement term."""
    grid = _grid(cfg["grids"]["g_over_omega"], "g_over_omega")
    omega = _model_real(cfg, "omega", 1.0)
    omega0 = _model_real(cfg, "omega0", omega)
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
    params = [_model(cfg, n_spins=v) for v in _grid(cfg["grids"]["n_spins"], "n_spins").tolist()]
    points = [(f"N={p.n_spins}", {"n_spins": p.n_spins}, (p,)) for p in params]
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


def _temperatures(cfg: dict, name: str) -> list[float]:
    """The temperature grid ``name`` as floats, each finite and >= 0."""
    temps = _grid(cfg["grids"][name], name).tolist()
    for kt in temps:
        if not (math.isfinite(kt) and kt >= 0):
            raise ConfigError(f"grid {name!r} must hold finite temperatures >= 0, got {kt!r}")
    return temps


def _normal_instance(cfg: dict, label: str, **overrides) -> DickeParams:
    """The model instance of one thermal-map point; the thermal ratio is
    defined in the normal (or no-transition) phase only."""
    p = _model(cfg, **overrides)
    if classify_phase(p) is PhaseLabel.SUPERRADIANT:
        raise ConfigError(
            f"{cfg['experiment']} {label}: g={p.g:g} lies above the critical "
            "coupling; the thermal ratio is defined in the normal phase only"
        )
    return p


def run_fig4(cfg: dict, jobs: int = 1) -> SweepResult:
    """Thermal squeezing ratio over temperature and distance to the critical
    coupling, for one resonant and one detuned spin splitting. Pairs whose
    coupling would be negative are skipped and counted in the metadata."""
    omega = _model_real(cfg, "omega")
    ratios = _grid(cfg["grids"]["omega0_over_omega"], "omega0_over_omega").tolist()
    deltas = _grid(cfg["grids"]["gc_minus_g_over_omega"], "gc_minus_g_over_omega").tolist()
    temps = _temperatures(cfg, "kt_over_omega")
    points, skipped = [], 0
    for ratio in ratios:
        if not ratio > 0:
            raise ConfigError(f"grid 'omega0_over_omega' must hold values > 0, got {ratio!r}")
        omega0 = ratio * omega
        gc = math.sqrt(omega * omega0) / 2.0
        for delta in deltas:
            g = gc - delta * omega
            if g < 0:
                skipped += 1
                continue
            label = f"omega0_over_omega={ratio:g} gc_minus_g_over_omega={delta:g}"
            points.append((ratio, delta, _normal_instance(cfg, label, omega0=omega0, g=g)))
    if not points:
        raise ConfigError("fig4: every (omega0, gc - g) pair gives g < 0; nothing to compute")
    kts = [kt * omega for kt in temps]
    rows = []
    for ratio, delta, p in points:
        xis = bogoliubov.thermal_squeezing_ratios(p, kts)
        rows.extend(
            {
                "omega0_over_omega": ratio,
                "gc_minus_g_over_omega": delta,
                "kt_over_omega": kt,
                "xi": xi,
                "method": "analytic",
            }
            for kt, xi in zip(temps, xis)
        )
    meta = _meta(cfg)
    if skipped:
        meta["skipped_points"] = skipped
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
        meta=meta,
    )


def run_fig5(cfg: dict, jobs: int = 1) -> SweepResult:
    """Thermal squeezing ratio over temperature and spin splitting at fixed
    weak coupling; the optimum sits away from the critical splitting."""
    omega = _model_real(cfg, "omega")
    g = cfg["model"]["g"]
    ratios = _grid(cfg["grids"]["omega0_over_omega"], "omega0_over_omega").tolist()
    temps = _temperatures(cfg, "kt_over_omega")
    params = [
        _normal_instance(cfg, f"omega0_over_omega={ratio:g}", omega0=ratio * omega, g=g)
        for ratio in ratios
    ]
    kts = [kt * omega for kt in temps]
    # xis[j] holds instance j's xi over the temperatures; rows run T-major
    xis = [bogoliubov.thermal_squeezing_ratios(p, kts) for p in params]
    rows = [
        {
            "omega0_over_omega": ratio,
            "kt_over_omega": kt,
            "xi": xi_t[i],
            "method": "analytic",
        }
        for i, kt in enumerate(temps)
        for ratio, xi_t in zip(ratios, xis)
    ]
    return SweepResult(
        experiment="fig5",
        columns=["omega0_over_omega", "kt_over_omega", "xi", "method"],
        rows=rows,
        meta=_meta(cfg),
    )


def _fig6_defects(cfg: dict) -> tuple[tuple[float, float], ...]:
    spec = cfg.get("disorder", {})
    if "omega_prime_range" in spec or "g_prime_range" in spec:
        return _defect_sampler(cfg, spec)(_disorder_int(spec, "counter", 0, 0))
    m = _disorder_int(spec, "m", 1, 0)
    omega_prime = spec.get("omega_prime", 2.1)
    omega_prime = _checked("disorder", finite_real, "disorder.omega_prime", omega_prime)
    g_prime = _checked("disorder", finite_real, "disorder.g_prime", spec.get("g_prime", 2.0))
    omega = cfg["model"]["omega"]
    return tuple((omega_prime * omega, g_prime * omega) for _ in range(m))


def run_fig6(cfg: dict, jobs: int = 1) -> SweepResult:
    """Squeezing ratio of the all-spin quadrature against defect fraction:
    exact diagonalization at both truncations plus the perturbative column."""
    params = [_model(cfg, n_spins=n) for n in _grid(cfg["grids"]["n_clean"], "n_clean").tolist()]
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
    analytic = []
    for p, (label, labels, _) in zip(params, points):
        try:
            report = disorder.disorder_xi_perturbative(
                p, disorder.DisorderEnsemble(p.n_spins, defects)
            )
            xi, valid = report.xi, all(report.validity)
        except disorder.CriticalSectorError:
            # the ED rows still stand at the critical point; the formula has none
            xi, valid = None, False
        except ValueError as exc:
            raise ConfigError(f"fig6 {label}: {exc}") from exc
        analytic.append({**labels, "xi": xi, "method": "analytic", "perturbative_valid": valid})
    result = _run_ed(cfg, jobs, _fig6_point, points, columns, "xi", _meta(cfg))
    result.rows.extend(analytic)
    return result


def run_fig7(cfg: dict, jobs: int = 1) -> SweepResult:
    """Squeezing ratio of the zero-momentum quadrature against the Ising
    coupling ratio at the clean critical coupling."""
    p = _model(cfg, n_spins=cfg["model"].get("n_spins", 6))
    if p.n_spins < 2:
        raise ConfigError(f"fig7 needs model.n_spins >= 2 for the Ising ring, got {p.n_spins}")
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
    if "omega0" in grids:
        omega0s = _grid(grids["omega0"], "omega0")
    else:
        omega0s = [_model_real(cfg, "omega0")]
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
    tc_mask = cfg.get("sweep", {}).get("tc_mask", False)
    if not isinstance(tc_mask, bool):
        raise ConfigError(f"sweep.tc_mask must be true or false, got {tc_mask!r}")
    temps = _temperatures(cfg, "kt")
    rows = []
    for g in _grid(grids["g"], "g"):
        p = _model(cfg, g=float(g))
        superradiant = classify_phase(p) is PhaseLabel.SUPERRADIANT
        if superradiant:
            t_c = bogoliubov.classical_critical_temperature(p)
            xis = [0.0 if tc_mask else math.nan] * len(temps)
        else:
            t_c = None
            xis = bogoliubov.thermal_squeezing_ratios(p, temps)
        for kt, xi in zip(temps, xis):
            rows.append(
                {
                    "g": float(g),
                    "kt": kt,
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
    params = _checked("ladder", ladder_params_from_dict, ladder_cfg)
    spec = _checked("ladder", map_ladder_to_dicke, params)
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
    draw = _defect_sampler(cfg, spec)
    _disorder_int(spec, "m", 1, 1)  # its rows are per defect
    count = _checked("sweep", integer_at_least, "sweep.samples", sweep.get("samples", 1), 1)
    n_clean = _disorder_int(spec, "n_clean", 1, 1)
    p = _model(cfg)
    rows = []
    for sample in range(count):
        defects = draw(sample)
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


def _format_column(column: list) -> list[str]:
    """``_format_value`` of every cell, formatting each distinct value once.

    Grid columns repeat a few values over many rows, and "%.17g" is most of
    the cost of a large CSV. An all-float column is deduplicated by IEEE bit
    pattern, not by value: a value key would merge -0.0 with 0.0 (they
    compare equal) and write one text for both. An all-str column is its own
    text.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        values = np.fromiter(column, np.float64, len(column))
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        texts = list(map("%.17g".__mod__, bits.view(np.float64).tolist()))
        return np.array(texts, dtype=object)[inverse].tolist()
    if kinds == {str}:
        return column
    return list(map(_format_value, column))


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
    cells = [
        _format_column(list(map(dict.get, result.rows, itertools.repeat(name))))
        for name in result.columns
    ]
    lines.extend(map(",".join, zip(*cells)))
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
