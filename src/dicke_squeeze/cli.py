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
import os
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, bogoliubov, disorder, ising
from .core import (
    DickeParams,
    PhaseLabel,
    bare_critical_coupling,
    classify_phase,
    finite_real,
    integer_at_least,
    ladder_params_from_dict,
    map_ladder_to_dicke,
    real_at_least,
    real_number,
)
from .ed import (
    ConvergenceError,
    build_basis,
    build_dicke_hamiltonian,
    ground_state,
    p_d,
    p_minus_k0,
    p_tilde_minus,
    s_tilde_y,
    variance,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STRICT = 2

# Every defect is held as one (omega', g') pair, built or drawn before any
# point is solved, and a disorder_sample sweep writes a row per defect.
MAX_DEFECTS = 10**5

# Points of all grids together (the product of their lengths), judged before
# a grid is built. The analytic-grid benchmark (fig4, 2 x 181 x 240 = 86 880
# rows) peaks at 151.7 MB RSS, 1.75 KB a row all told; fig4 alone adds
# 0.38 KB a row above its 62 MB start (195 MB at 2 x 724 x 240 rows). So
# 10**6 points stay below 1.75 GB by the first measure, near 0.45 GB by the
# second.
MAX_GRID_POINTS = 10**6

# One ED point's spin states listed (the 2^N masks of the k = 0 ring, whose
# orbits spin_factors finds, or spin_dim otherwise) and its basis
# (n_max + 1) * spin_dim, both judged before any is listed. Listing the ring
# peaks at 125 B a mask (tracemalloc, N = 14-18): 131 MB at the bound. A
# Lanczos point, build, solve and variances, peaked at 0.46-0.96 KB a basis
# state (fig6 and fig7 points of dim 14 432 to 293 888), about 1 GB at the
# bound; product-layout spin factors take 1.6-2.0 KB a spin state
# (N = 14-18), and n_max >= 1 holds spin_dim to half the basis.
MAX_SPIN_STATES = 2**20
MAX_ED_DIM = 2**20


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit code 1."""


@dataclass
class SweepResult:
    """One experiment's table, stored column by column: ``columns`` maps
    each header name, in header order, to its cells in row order, either a
    list or a 1-D float64 array (a thermal map's columns, which are written
    without a cell going through a Python float)."""

    experiment: str
    columns: dict[str, list | np.ndarray]
    meta: dict
    violations: list[str] = field(default_factory=list)

    def __post_init__(self):
        if len({len(cells) for cells in self.columns.values()}) > 1:
            raise ValueError("every column of a SweepResult needs one cell per row")
        for cells in self.columns.values():
            if isinstance(cells, np.ndarray) and (cells.ndim, cells.dtype) != (1, np.float64):
                raise ValueError("an array column of a SweepResult must be 1-D float64")

    @property
    def rows(self) -> list[dict]:
        """The table as one dict per row of Python values, built on each
        access."""
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()]
        return [dict(zip(self.columns, cells)) for cells in zip(*columns)]


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

EXPERIMENTS = tuple(_DEFAULTS)

# the keys some runner reads, by section; a fig reads the grids of its
# defaults, a sweep those of its quantity (``_SWEEPS``), and model keys are
# DickeParams's own
_READ_KEYS = {
    "": ("experiment_id", "model", "grids", "ed", "disorder", "sweep", "rng_seed", "out"),
    "ed": ("n_max", "tol"),
    "disorder": ("m", "omega_prime", "g_prime", "omega_prime_range", "g_prime_range", "counter"),
    "sweep": ("quantity", "tc_mask", "ladder", "disorder", "samples"),
    "sweep.disorder": ("m", "n_clean", "omega_prime_range", "g_prime_range"),
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
    declared = cfg.get("experiment_id")
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config declares experiment {declared!r} but {experiment!r} was requested"
        )
    for section in ("model", "grids", "ed", "disorder", "sweep"):
        if not isinstance(cfg.get(section, {}), dict):
            raise ConfigError(f"{section} must be an object")
    sweep = cfg.get("sweep", {})
    if not isinstance(sweep.get("disorder", {}), dict):
        raise ConfigError("sweep.disorder must be an object")
    if experiment == "sweep":
        quantity = sweep.get("quantity")
        if not isinstance(quantity, str) or quantity not in _SWEEPS:
            raise ConfigError(f"sweep.quantity must be one of {', '.join(_SWEEPS)}")
        _, needed, optional = _SWEEPS[quantity]
        grids = (*needed, *optional)
    else:
        grids = tuple(_DEFAULTS[experiment]["grids"])
    sections = {name: cfg.get(name, {}) for name in ("grids", "ed", "disorder", "sweep")}
    sections.update({"": cfg, "sweep.disorder": sweep.get("disorder", {})})
    read = {**_READ_KEYS, "grids": grids}
    unread = sorted(
        f"{name}.{key}" if name else str(key)
        for name, section in sections.items() for key in section if key not in read[name]
    )
    if unread:
        raise ConfigError(f"unknown config keys, read by no runner: {', '.join(unread)}")
    cfg["experiment"] = experiment
    points = 1
    for name, spec in cfg.get("grids", {}).items():
        # each grid may take what the grids before it leave of MAX_GRID_POINTS
        size = len(_grid(spec, name, MAX_GRID_POINTS // points))
        if size == 0:
            raise ConfigError(f"grid {name!r} is empty")
        points *= size
    ed = cfg.get("ed", {})
    if "n_max" in ed:
        n_max = ed["n_max"]
        if not isinstance(n_max, list) or not n_max:
            raise ConfigError("ed.n_max must be a nonempty list of positive integers")
        # stored as ints, so 40.0 names the computation that 40 does
        n_max = [_checked("ed", integer_at_least, "ed.n_max entry", v, 1) for v in n_max]
        cfg["ed"] = {**ed, "n_max": n_max}
    if "tol" in ed:
        # ground_state's rule, but before any solve and in every preset
        _checked("ed", real_at_least, "ed.tol", ed["tol"], 0.0, strict=True)
    return cfg


def _grid(spec, name: str, limit: int = MAX_GRID_POINTS) -> np.ndarray:
    """The grid ``spec`` as a 1-D float array: a list of real numbers (NaN
    and +-inf left to the parameter they become), or a {"min", "max",
    "count"} object with finite real ends. ConfigError, before the array is
    built, where it would hold more than ``limit`` values."""
    if not isinstance(spec, (dict, list, tuple)):
        raise ConfigError(f"grid {name!r} must be a list or a min/max/count object")
    try:
        if isinstance(spec, dict):
            # linspace would truncate a fractional count, take a bool as 0 or 1
            # and span a 2-D grid between list ends
            count = integer_at_least("count", spec["count"], 0)
            ends = finite_real("min", spec["min"]), finite_real("max", spec["max"])
        else:
            # asarray would read True as 1, "0.2" as 0.2 and nested lists as 2-D
            values = [real_number("a grid value", v) for v in spec]
            count = len(values)
    except KeyError as exc:
        raise ConfigError(f"grid {name!r} needs min/max/count") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid {name!r} must hold numbers: {exc}") from exc
    if count > limit:
        raise ConfigError(
            f"grid {name!r}: the grids would hold more than "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS} points"
        )
    return np.linspace(*ends, count) if isinstance(spec, dict) else np.array(values, dtype=float)


def config_hash(cfg: dict) -> str:
    """SHA-256 of ``cfg`` as canonical JSON, less its ``out`` key: the hash
    names the computation, not where its file goes."""
    kept = {key: value for key, value in cfg.items() if key != "out"}
    canonical = json.dumps(kept, sort_keys=True, separators=(",", ":"))
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


def _require_no_a2(cfg: dict, what: str, reason: str) -> None:
    """ConfigError, saying ``reason``, unless model.a2_coeff is 0."""
    if cfg["model"].get("a2_coeff", 0.0) != 0.0:
        raise ConfigError(f"model.a2_coeff must be 0 for {what}: {reason}")


def _defect_count(spec: dict, minimum: int) -> int:
    """disorder.m in [minimum, MAX_DEFECTS], read before any defect is built or drawn."""
    m = _checked("disorder", integer_at_least, "disorder.m", spec.get("m", 1), minimum)
    if m > MAX_DEFECTS:
        raise ConfigError(f"bad disorder parameters: disorder.m must be <= {MAX_DEFECTS}, got {m}")
    return m


def _defect_sampler(cfg: dict, spec: dict, min_m: int = 0):
    """(m, counter -> the m defects of sample ``counter``) drawn from a
    random-defect spec, once rng_seed is set, m is an integer >= ``min_m``
    (``_defect_count``) and each range holds two finite numbers."""
    if "omega_prime_range" not in spec or "g_prime_range" not in spec:
        raise ConfigError("random defects need both omega_prime_range and g_prime_range")
    seed = cfg.get("rng_seed")
    if seed is None:
        raise ConfigError("random defect ranges need rng_seed")
    seed = _philox_word("rng_seed", seed)
    m = _defect_count(spec, min_m)
    ranges = []
    for name in ("omega_prime_range", "g_prime_range"):
        bounds = spec[name]
        name = f"disorder.{name}"
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ConfigError(
                f"bad disorder parameters: {name} must hold two numbers, got {bounds!r}"
            )
        ranges.append(tuple(_checked("disorder", finite_real, name, v) for v in bounds))
    return m, lambda counter: disorder_samples(seed, counter, m, *ranges)


def _philox_word(name: str, value) -> int:
    """``value`` as one uint64 word of the Philox key or counter."""
    value = _checked("disorder", integer_at_least, name, value, 0)
    if value >= 2**64:
        raise ConfigError(f"bad disorder parameters: {name} must be below 2**64, got {value}")
    return value


def disorder_samples(seed: int, counter: int, m: int, omega_range, g_range):
    """Counter-based defect draws: sample ``counter`` of the stream keyed by
    ``seed`` yields m (omega_prime, g_prime) pairs, independent of how many
    other samples were drawn. Philox, so reproducible across platforms."""
    # a list of np.uint64 would become a float64 array, which rounds counters
    # above 2**53
    counter = np.array([counter, 0, 0, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=np.uint64(seed), counter=counter)
    gen = np.random.Generator(bitgen)
    omegas = gen.uniform(omega_range[0], omega_range[1], size=m)
    gs = gen.uniform(g_range[0], g_range[1], size=m)
    return tuple(zip(omegas.tolist(), gs.tolist()))


# -- ED presets: one task path (top-level so a worker pool can pickle it) ----

def _fig3_point(p, basis):
    quadratures = [
        ({"quadrature": "p_tilde_minus"}, p_tilde_minus(basis), 1.0),
        ({"quadrature": "s_tilde_y"}, s_tilde_y(basis), 1.0),
    ]
    return build_dicke_hamiltonian(p, basis), quadratures


def _fig6_point(p, ens, gamma_bar, basis):
    q = p_d(basis, p.omega, p.omega0, gamma_bar)
    return build_dicke_hamiltonian(p, basis, disorder=ens), [({}, q, p.omega / 2.0)]


def _fig7_mode(p, eta):
    """(E_0, gamma_0): the k = 0 magnon's energy and mixing angle at ``eta``;
    ValueError where eta is not finite or E_0 <= 0."""
    ip = ising.IsingParams(
        eta=eta, omega0=p.omega0, dispersion=p.omega, g=p.g, n_spins=p.n_spins
    )
    return ising.magnon_energy(ip, 0.0), ising.mixing_angle_k(ip, 0.0)


def _fig7_point(p, eta, e0, gamma0, basis):
    q = p_minus_k0(basis, p.omega, e0, gamma0, eta)
    return build_dicke_hamiltonian(p, basis, eta=eta), [({}, q, p.omega / 2.0)]


def _ed_task(task):
    """Ground state of one (point, n_max): each quadrature's variance over its
    normalization, the residual, and whether it meets tol * ||H||_inf. A
    point the builders or the solver reject is a ConfigError naming it,
    which a worker pool hands to its parent like any result."""
    label, point, args, basis, tol = task
    try:
        h, quadratures = point(*args, basis)
        gs = ground_state(h, tol=tol)
        values = [(labels, variance(gs, q) / norm) for labels, q, norm in quadratures]
    except (ValueError, ConvergenceError) as exc:
        raise ConfigError(f"{label} n_max={basis.n_max}: {exc}") from exc
    return values, gs.residual, gs.residual <= tol * gs.norm


def _append_row(columns: dict[str, list], cells) -> None:
    """Append one row's ``cells``, in header order, to ``columns``."""
    for column, cell in zip(columns.values(), cells):
        column.append(cell)


def _ed_bounds(label: str, layout, n_max: int) -> None:
    """ConfigError unless the spin states ``layout`` lists (2^N masks on the
    k = 0 ring, spin_dim otherwise) and its basis at ``n_max`` lie within
    MAX_SPIN_STATES and MAX_ED_DIM, judged before either is listed."""
    listed = 1 << layout.n_spins if layout.k0 else layout.spin_dim
    if listed > MAX_SPIN_STATES:
        raise ConfigError(f"{label}: more than MAX_SPIN_STATES = {MAX_SPIN_STATES} spin states")
    if (n_max + 1) * layout.spin_dim > MAX_ED_DIM:
        raise ConfigError(
            f"{label} n_max={n_max}: a basis of more than MAX_ED_DIM = {MAX_ED_DIM} states"
        )


def _run_ed(cfg, jobs, point, points, value_field, meta, tail=None) -> SweepResult:
    """Solve every point at every ``ed.n_max`` on the one ED task path.

    ``points`` holds one (warning label, row labels, args, layout) per
    point, layout being its basis at n_max = 0, which ``_ed_bounds`` judges
    at the largest n_max before any task runs; ``point(*args, basis)``
    returns the Hamiltonian and one (row labels, quadrature, normalization)
    per row; ``value_field`` names the column that gets the normalized
    variance. The header is the point labels,
    n_max, the row labels, ``value_field``, residual, residual_ok and
    method, then any column only the ``tail`` columns have; the tail's rows
    follow the ED rows, and a row has None where it has no cell. ``meta``
    gains the largest spread of a row's value over the truncations."""
    _require_no_a2(
        cfg, "the ED presets", "their quadrature angles carry no squared-displacement term"
    )
    tol, n_maxes = cfg["ed"]["tol"], cfg["ed"]["n_max"]
    for label, _, _, layout in points:
        _ed_bounds(f"{cfg['experiment']} {label}", layout, max(n_maxes))
    grid = list(itertools.product(points, n_maxes))
    tasks = [
        (f"{cfg['experiment']} {label}", point, args, replace(layout, n_max=nm), tol)
        for (label, _, args, layout), nm in grid
    ]
    results = _run_tasks(_ed_task, tasks, jobs)
    row_labels = results[0][0][0][0]  # the first task's first row
    header = (*points[0][1], "n_max", *row_labels, value_field)
    columns = {name: [] for name in (*header, "residual", "residual_ok", "method")}
    violations, by_key = [], {}
    for ((label, point_labels, _, _), nm), (values, residual, ok) in zip(grid, results):
        for labels, value in values:
            cells = (*point_labels.values(), nm, *labels.values(), value, residual, ok, "ed")
            _append_row(columns, cells)
            by_key.setdefault((*point_labels.values(), *labels.values()), []).append(value)
        if not ok:
            violations.append(
                f"{cfg['experiment']} {label} n_max={nm}: residual {residual:.3e}"
            )
    deltas = [max(vals) - min(vals) for vals in by_key.values() if len(vals) > 1]
    if deltas:
        meta["max_truncation_delta"] = f"{max(deltas):.3e}"
    if tail:
        n_ed, n_tail = len(columns["method"]), len(next(iter(tail.values())))
        for name in {**columns, **tail}:
            columns[name] = columns.get(name, [None] * n_ed) + tail.get(name, [None] * n_tail)
    return SweepResult(cfg["experiment"], columns, meta, violations)


def _run_tasks(func, tasks, jobs):
    # no more workers than tasks, nor than the CPUs this process may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(func, tasks)
    return [func(t) for t in tasks]


# -- experiments -------------------------------------------------------------

def run_fig2(cfg: dict, jobs: int = 1) -> SweepResult:
    """Ground-state squeezing ratio against coupling at resonance, with and
    without the TRK-valued squared-displacement term."""
    g_ratios = _grid(cfg["grids"]["g_over_omega"], "g_over_omega").tolist()
    omega = _model_real(cfg, "omega", 1.0)
    omega0 = _model_real(cfg, "omega0", omega)
    xis = []
    for g_ratio in g_ratios:
        g = g_ratio * omega
        for a2_coeff in (0.0, g * g / omega0):
            p = _model(cfg, g=g, a2_coeff=a2_coeff)
            xis.append(_checked("model", bogoliubov.squeezing_ratio_ground, p).xi)
    n = len(xis)
    columns = {
        "g_over_omega": [g_ratio for g_ratio in g_ratios for _ in ("ideal", "trk")],
        "variant": ["ideal", "trk"] * len(g_ratios),
        "xi": xis,
        "method": ["analytic"] * n,
        "n_max": [None] * n,
        "residual": [None] * n,
    }
    return SweepResult("fig2", columns, _meta(cfg))


def run_fig3(cfg: dict, jobs: int = 1) -> SweepResult:
    """Finite-size ground-state variances of the two squeezing witnesses
    against spin number, at the thermodynamic-limit critical coupling."""
    params = [_model(cfg, n_spins=v) for v in _grid(cfg["grids"]["n_spins"], "n_spins").tolist()]
    # all spins are permutation-equivalent: one collective spin J = N/2
    points = [
        (f"N={p.n_spins}", {"n_spins": p.n_spins}, (p,), build_basis(p.n_spins, 0, (p.n_spins,)))
        for p in params
    ]
    meta = _meta(cfg)
    meta["large_n_limits"] = "var_p_tilde_minus -> 0, var_s_tilde_y -> 0.70711"
    return _run_ed(cfg, jobs, _fig3_point, points, "variance", meta)


def _grid_at_least(cfg: dict, name: str, minimum: float, strict: bool = False) -> list[float]:
    """The grid ``name`` as floats, each finite and >= ``minimum`` (> if ``strict``)."""
    values = _grid(cfg["grids"][name], name).tolist()
    label = f"grid {name!r} value"
    return [_checked("grid", real_at_least, label, v, minimum, strict=strict) for v in values]


def run_fig4(cfg: dict, jobs: int = 1) -> SweepResult:
    """Thermal squeezing ratio over temperature and distance to the critical
    coupling, for one resonant and one detuned spin splitting. Pairs whose
    coupling would be negative are skipped and counted in the metadata."""
    _require_no_a2(cfg, "fig4", "its axis g_c - g takes the bare g_c = sqrt(omega*omega0)/2")
    omega = _model_real(cfg, "omega")
    ratios = _grid_at_least(cfg, "omega0_over_omega", 0.0, strict=True)
    deltas = _grid(cfg["grids"]["gc_minus_g_over_omega"], "gc_minus_g_over_omega").tolist()
    label = "grid 'gc_minus_g_over_omega' value"
    deltas = [_checked("grid", finite_real, label, delta) for delta in deltas]
    temps = _grid_at_least(cfg, "kt_over_omega", 0.0)
    points, skipped = [], 0
    for ratio in ratios:
        omega0 = ratio * omega
        gc = _checked("model", bare_critical_coupling, omega, omega0)
        for delta in deltas:
            g = gc - delta * omega
            if g < 0:
                skipped += 1
                continue
            points.append((ratio, delta, _model(cfg, omega0=omega0, g=g)))
    if not points:
        raise ConfigError("fig4: every (omega0, gc - g) pair gives g < 0; nothing to compute")
    kts = [kt * omega for kt in temps]
    xis = _checked("model", bogoliubov.thermal_squeezing_map, [p for _, _, p in points], kts)
    columns = {
        "omega0_over_omega": np.repeat([ratio for ratio, _, _ in points], len(temps)),
        "gc_minus_g_over_omega": np.repeat([delta for _, delta, _ in points], len(temps)),
        "kt_over_omega": np.tile(temps, len(points)),
        "xi": xis.ravel(),
        "method": ["analytic"] * xis.size,
    }
    meta = _meta(cfg)
    if skipped:
        meta["skipped_points"] = skipped
    return SweepResult("fig4", columns, meta)


def run_fig5(cfg: dict, jobs: int = 1) -> SweepResult:
    """Thermal squeezing ratio over temperature and spin splitting at fixed
    weak coupling; the optimum sits away from the critical splitting."""
    omega = _model_real(cfg, "omega")
    g = cfg["model"]["g"]
    ratios = _grid(cfg["grids"]["omega0_over_omega"], "omega0_over_omega").tolist()
    temps = _grid_at_least(cfg, "kt_over_omega", 0.0)
    params = [_model(cfg, omega0=ratio * omega, g=g) for ratio in ratios]
    kts = [kt * omega for kt in temps]
    # xis[j] holds instance j's xi over the temperatures; rows run T-major
    xis = _checked("model", bogoliubov.thermal_squeezing_map, params, kts)
    columns = {
        "omega0_over_omega": np.tile(ratios, len(temps)),
        "kt_over_omega": np.repeat(temps, len(ratios)),
        "xi": xis.T.ravel(),
        "method": ["analytic"] * xis.size,
    }
    return SweepResult("fig5", columns, _meta(cfg))


def _fig6_defects(cfg: dict) -> tuple[tuple[float, float], ...]:
    spec = cfg.get("disorder", {})
    if "omega_prime_range" in spec or "g_prime_range" in spec:
        _, draw = _defect_sampler(cfg, spec)
        return draw(_philox_word("disorder.counter", spec.get("counter", 0)))
    m = _defect_count(spec, 0)
    omega_prime = spec.get("omega_prime", 2.1)
    omega_prime = _checked("disorder", finite_real, "disorder.omega_prime", omega_prime)
    g_prime = _checked("disorder", finite_real, "disorder.g_prime", spec.get("g_prime", 2.0))
    omega = cfg["model"]["omega"]
    return ((omega_prime * omega, g_prime * omega),) * m


def run_fig6(cfg: dict, jobs: int = 1) -> SweepResult:
    """Squeezing ratio of the all-spin quadrature against defect fraction:
    exact diagonalization at both truncations plus the perturbative column."""
    params = [_model(cfg, n_spins=n) for n in _grid(cfg["grids"]["n_clean"], "n_clean").tolist()]
    defects = _fig6_defects(cfg)
    m = len(defects)
    fractions = [m / (p.n_spins + m) for p in params]
    # one collective spin holds the clean spins, one more each run of equal defects
    runs = tuple(len(list(run)) for _, run in itertools.groupby(defects))
    points, xis, valid = [], [], []
    for p, f in zip(params, fractions):
        label = f"N={p.n_spins}"
        try:
            ens = disorder.DisorderEnsemble(p.n_spins, defects)
            report = disorder.disorder_xi_perturbative(p, ens)
            xi, ok, gamma_bar = report.xi, all(report.validity), report.gamma_bar
        except disorder.CriticalSectorError:
            # the ED rows still stand at the critical point; the formula has
            # none, so the quadrature's angle comes from the sector itself
            xi, ok = None, False
            gbar = disorder.renormalized_coupling(p.g, p.n_spins, m)
            gamma_bar = bogoliubov.normal_modes(replace(p, g=gbar)).gamma
        except ValueError as exc:
            raise ConfigError(f"fig6 {label}: {exc}") from exc
        layout = build_basis(p.n_spins + m, 0, (p.n_spins, *runs))
        points.append((label, {"n_clean": p.n_spins, "fraction": f}, (p, ens, gamma_bar), layout))
        xis.append(xi)
        valid.append(ok)
    analytic = {
        "n_clean": [p.n_spins for p in params],
        "fraction": fractions,
        "xi": xis,
        "method": ["analytic"] * len(xis),
        "perturbative_valid": valid,
    }
    return _run_ed(cfg, jobs, _fig6_point, points, "xi", _meta(cfg), analytic)


def run_fig7(cfg: dict, jobs: int = 1) -> SweepResult:
    """Squeezing ratio of the zero-momentum quadrature against the Ising
    coupling ratio at the clean critical coupling."""
    p = _model(cfg, n_spins=cfg["model"].get("n_spins", 6))
    if p.n_spins < 2:
        raise ConfigError(f"fig7 needs model.n_spins >= 2 for the Ising ring, got {p.n_spins}")
    # the ring, the coupling and the quadrature commute with translation: k = 0
    layout = build_basis(p.n_spins, 0, k0=True)
    points = [
        (f"eta={eta:g}", {"eta": eta}, (p, eta, *_checked("ising", _fig7_mode, p, eta)), layout)
        for eta in (float(v) for v in _grid(cfg["grids"]["eta"], "eta"))
    ]
    return _run_ed(cfg, jobs, _fig7_point, points, "xi", _meta(cfg))


def run_sweep(cfg: dict, jobs: int = 1) -> SweepResult:
    """Generic cartesian sweeps over the analytic quantities: the one
    ``sweep.quantity`` names, which ``resolve_config`` checked, once the
    grids it needs are given."""
    quantity = cfg["sweep"]["quantity"]
    run, needed, _ = _SWEEPS[quantity]
    if any(name not in cfg["grids"] for name in needed):
        names = " and ".join(needed)
        grids = f"a {names} grid" if len(needed) == 1 else f"{names} grids"
        raise ConfigError(f"{quantity} sweep needs {grids}")
    return run(cfg)


def _sweep_xi_ground(cfg):
    grids = cfg["grids"]
    gs = _grid(grids["g"], "g").tolist()
    if "omega0" in grids:
        omega0s = _grid(grids["omega0"], "omega0").tolist()
    else:
        omega0s = [_model_real(cfg, "omega0")]
    xis = [
        _checked("model", bogoliubov.squeezing_ratio_ground, _model(cfg, omega0=omega0, g=g)).xi
        for omega0 in omega0s
        for g in gs
    ]
    columns = {
        "omega0": [omega0 for omega0 in omega0s for _ in gs],
        "g": gs * len(omega0s),
        "xi": xis,
        "method": ["analytic"] * len(xis),
    }
    return SweepResult("sweep", columns, _meta(cfg))


def _sweep_xi_thermal(cfg):
    grids = cfg["grids"]
    tc_mask = cfg.get("sweep", {}).get("tc_mask", False)
    if not isinstance(tc_mask, bool):
        raise ConfigError(f"sweep.tc_mask must be true or false, got {tc_mask!r}")
    temps = _grid_at_least(cfg, "kt", 0.0)
    gs = _grid(grids["g"], "g").tolist()
    params = [_model(cfg, g=g) for g in gs]
    superradiant = [
        _checked("model", classify_phase, p) is PhaseLabel.SUPERRADIANT for p in params
    ]
    t_cs = [
        _checked("model", bogoliubov.classical_critical_temperature, p) if sr else None
        for p, sr in zip(params, superradiant)
    ]
    normal = [p for p, sr in zip(params, superradiant) if not sr]
    xis = np.full((len(gs), len(temps)), 0.0 if tc_mask else math.nan)
    xis[np.logical_not(superradiant)] = _checked(
        "model", bogoliubov.thermal_squeezing_map, normal, temps
    )
    columns = {
        "g": np.repeat(gs, len(temps)),
        "kt": np.tile(temps, len(gs)),
        "xi": xis.ravel(),
        "t_c": [t_c for t_c in t_cs for _ in temps],
        "masked": [sr and tc_mask for sr in superradiant for _ in temps],
        "method": ["analytic"] * (len(gs) * len(temps)),
    }
    return SweepResult("sweep", columns, _meta(cfg))


def _sweep_ladder(cfg):
    ladder_cfg = cfg.get("sweep", {}).get("ladder")
    if not ladder_cfg:
        raise ConfigError("ladder_dispersion sweep needs sweep.ladder parameters")
    params = _checked("ladder", ladder_params_from_dict, ladder_cfg)
    if params.n_sites > MAX_GRID_POINTS:
        raise ConfigError(
            f"ladder_dispersion sweep: n_sites = {params.n_sites} rows, "
            f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    spec = _checked("ladder", map_ladder_to_dicke, params)
    modes = spec.modes
    columns = {
        "k_index": list(range(len(modes))),
        "k": [mode.k for mode in modes],
        "omega_k": [mode.omega_k for mode in modes],
        "g_x": [mode.g_x for mode in modes],
        "g_y": [mode.g_y for mode in modes],
        "method": ["analytic"] * len(modes),
    }
    meta = _meta(cfg)
    meta["validity_flags"] = "; ".join(spec.validity_flags) or "none"
    return SweepResult("sweep", columns, meta)


def _sweep_disorder_samples(cfg):
    sweep = cfg.get("sweep", {})
    spec = sweep.get("disorder")
    if not spec:
        raise ConfigError("disorder_sample sweep needs sweep.disorder parameters")
    m, draw = _defect_sampler(cfg, spec, 1)  # its rows are per defect
    count = _checked("sweep", integer_at_least, "sweep.samples", sweep.get("samples", 1), 1)
    if count * m > MAX_GRID_POINTS:
        raise ConfigError(
            f"disorder_sample sweep: sweep.samples x disorder.m rows, "
            f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    n_clean = _checked("disorder", integer_at_least, "disorder.n_clean", spec.get("n_clean", 1), 1)
    p = _model(cfg)
    header = ("sample", "defect", "omega_prime", "g_prime", "xi", "alpha", "perturbative_valid")
    columns = {name: [] for name in header}
    for sample in range(count):
        defects = draw(sample)
        ens = disorder.DisorderEnsemble(n_clean, defects)
        report = _checked("disorder", disorder.disorder_xi_perturbative, p, ens)
        for j, (omega_prime, g_prime) in enumerate(defects):
            cells = (sample, j, omega_prime, g_prime, report.xi, report.alpha, report.validity[j])
            _append_row(columns, cells)
    columns["method"] = ["analytic"] * len(columns["sample"])
    return SweepResult("sweep", columns, _meta(cfg))


# each sweep quantity's runner, the grids it needs and the other grids it reads
_SWEEPS = {
    "xi_ground": (_sweep_xi_ground, ("g",), ("omega0",)),
    "xi_thermal": (_sweep_xi_thermal, ("g", "kt"), ()),
    "ladder_dispersion": (_sweep_ladder, (), ()),
    "disorder_sample": (_sweep_disorder_samples, (), ()),
}

# each experiment's runner and the columns its plot script draws (x, y);
# a sweep plots its value column, xi or a ladder's omega_k, against its
# first column
_RUNNERS = {
    "fig2": (run_fig2, "g_over_omega", "xi"),
    "fig3": (run_fig3, "n_spins", "variance"),
    "fig4": (run_fig4, "gc_minus_g_over_omega", "xi"),
    "fig5": (run_fig5, "omega0_over_omega", "xi"),
    "fig6": (run_fig6, "fraction", "xi"),
    "fig7": (run_fig7, "eta", "xi"),
    "sweep": (run_sweep, None, None),
}


def run_experiment(experiment: str, cfg: dict, jobs: int = 1) -> SweepResult:
    return _RUNNERS[experiment][0](cfg, jobs=jobs)


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


def _format_column(column) -> list[str]:
    """``_format_value`` of every cell of a list or float64 array column.

    "%.17g" is most of the cost of a large CSV. A float64 array, or a list
    of Python floats only, is formatted as one array: a grid column repeats
    a few values over many rows, so one with at most two thirds distinct
    values formats each distinct value once and gathers the texts back into
    row order. A mostly-distinct one (a thermal map's xi) skips the gather,
    which would cost more than it saves, and formats every cell in one call.
    Values are told apart by IEEE bit pattern, not by value: a value key
    would merge -0.0 with 0.0 (they compare equal) and write one text for
    both. An all-str list is its own text; a constant one (the method
    column) is told by one count, without a scan of its cell types.
    """
    if not isinstance(column, np.ndarray):
        if column and type(column[0]) is str and column.count(column[0]) == len(column):
            return column
        kinds = set(map(type, column))
        if kinds == {str}:
            return column
        if kinds != {float}:
            return list(map(_format_value, column))
        column = np.array(column, dtype=np.float64)
    # the distinct patterns from one sort, as np.unique finds them, which
    # costs several times more here (it argsorts, or hashes)
    keys = column.view(np.int64)
    ordered = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    bits = ordered[first]
    if 3 * len(bits) > 2 * len(column):
        # one format call over the column costs ~10% less than one a cell
        return ("\n".join(["%.17g"] * len(column)) % tuple(column.tolist())).split("\n")
    texts = list(map("%.17g".__mod__, bits.view(np.float64).tolist()))
    return np.array(texts, dtype=object)[np.searchsorted(bits, keys)].tolist()


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
    cells = [_format_column(column) for column in result.columns.values()]
    # the body as one join over the cells, each followed by "," or, the last
    # of a row, by "\n": cheaper than a join per row and one over the rows
    width = 2 * len(cells)
    n_rows = len(cells[0]) if cells else 0
    body = [","] * (width * n_rows)
    for j, texts in enumerate(cells):
        body[2 * j :: width] = texts
    if n_rows:
        body[width - 1 :: width] = ["\n"] * n_rows
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.write("".join(body))


def write_plot_script(csv_path, script_path, result: SweepResult) -> None:
    names = list(result.columns)
    _, x, y = _RUNNERS[result.experiment]
    if x is None:
        x, y = names[0], "xi" if "xi" in result.columns else "omega_k"
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{x}'",
        f"set ylabel '{y}'",
        f"plot '{csv_path}' using {names.index(x) + 1}:{names.index(y) + 1} with points",
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
        out = args.out if args.out is not None else cfg.get("out", f"{args.experiment}.csv")
        # open() would take an int, or a bool, as a file descriptor
        if not isinstance(out, str) or not out:
            raise ConfigError(f"out must be a nonempty path string, got {out!r}")
        # a missing directory fails now, not after the whole run
        directory = os.path.dirname(out) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"cannot write output: no directory {directory!r}")
        jobs = 1 if args.strict else max(1, args.jobs)
        t0 = time.perf_counter()
        result = run_experiment(args.experiment, cfg, jobs=jobs)
        elapsed = time.perf_counter() - t0
        for violation in result.violations:
            print(f"warning: {violation}", file=sys.stderr)
        try:
            write_csv(out, result, elapsed=elapsed)
            if args.emit_plot_script:
                write_plot_script(out, f"{out}.gp", result)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        if args.strict and result.violations:
            return EXIT_STRICT
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
