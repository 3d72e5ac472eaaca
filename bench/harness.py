"""Workloads, correctness gate and span tracer of the dicke-squeeze benchmark.

A workload is a fixed job run as repeated passes. Each pass calls the
program's public entry points (``cli.main`` and, for the thermal oracle, the
``dicke_squeeze.ed`` functions directly) and leaves outputs that the gate
checks after the pass, outside the timed region. A traced pass wraps the same
entry points in spans; an untraced pass calls them bare.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("figures", "ed-ladder", "thermal-oracle", "analytic-grid")
PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# Every ED config the workloads run uses the solver's default tolerance.
ED_TOL = 1e-10
# ED values (variances, xi) must match the recorded reference to ED_ATOL.
# At ED_TOL the largest measured deviation from a 1e-13 solve is 5.6e-11
# (fig6), below ED_TOL itself; 1e3 * ED_TOL leaves room for any solver or
# basis that meets the same residual bound, and is far below any physics
# change.
ED_ATOL = 1e3 * ED_TOL
# Closed-form rows: a rewrite may reorder the arithmetic, not change it.
ANALYTIC_RTOL = 1e-12
# The closed-form thermal oracle re-derives xi independently; near the
# critical point the soft-mode energy loses a few digits to cancellation.
ORACLE_RTOL = 1e-9
# Criterion 03: a Gibbs-oracle draw must match the analytic xi to 1e-3.
THERMAL_ATOL = 1e-3
# Thermal-xi outputs are checked row by row against the closed form; their
# recorded reference keeps every SAMPLE_STRIDE-th row, other outputs every row.
CLOSED_FORM = ("fig4", "fig5")
SAMPLE_STRIDE = 487
# Boltzmann weight below which a computed eigenpair does not contribute.
USEFUL_WEIGHT = 1e-16


class MissingProgram(RuntimeError):
    """The checkout holds no dicke_squeeze sources to benchmark."""


def import_program():
    """Import dicke_squeeze from this checkout's ``src/``, never from an
    installed copy, so the benchmark measures the sources beside it."""
    package = SRC / "dicke_squeeze"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dicke_squeeze

    if Path(dicke_squeeze.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"dicke_squeeze imported from {dicke_squeeze.__file__}")
    return dicke_squeeze


def warm_up():
    """First calls that a fresh process pays once: LAPACK/BLAS loading and
    thread start, the Lanczos and dense paths, the Gibbs oracle, the closed
    form. Tiny sizes, so only the one-time cost remains."""
    from dicke_squeeze import DickeParams, normal_modes, thermal_squeezing_ratio
    from dicke_squeeze import ed

    basis = ed.build_basis(2, 10)
    h = ed.build_dicke_hamiltonian(DickeParams(1.0, 1.0, 0.3, 2), basis)
    for method in ("lanczos", "dense"):
        gs = ed.ground_state(h, method=method)
        ed.variance(gs, ed.p_tilde_minus(basis))
    p = DickeParams(1.0, 1.0, 0.3)
    q = ed.hopfield_p_minus(6, 6, 1.0, 1.0, normal_modes(p).gamma)
    ed.thermal_variance(ed.build_hopfield_hamiltonian(p, 6, 6), q, 0.2)
    thermal_squeezing_ratio(p, 0.2)


# -- tracing -----------------------------------------------------------------

class Tracer:
    """Spans kept in memory: [name, start, end, parent index, item, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = ""
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def wrap_module(self, module, prefix):
        """Namespace standing in for ``module``: its functions and dataclasses
        traced, everything else passed through."""
        names = {}
        for key, value in vars(module).items():
            traceable = inspect.isfunction(value) or (
                inspect.isclass(value) and dataclasses.is_dataclass(value)
            )
            names[key] = self.wrap(f"{prefix}.{key}", value) if traceable else value
        return types.SimpleNamespace(**names)


def _solve_counts(args, result):
    mat = getattr(args[0], "matrix", args[0])
    return {
        "dim": int(mat.shape[0]),
        "nnz": int(mat.nnz),
        "iterations": int(result.iterations),
        "method": result.method,
    }


def _thermal_counts(args, result):
    return {"dim": int(getattr(args[0], "matrix", args[0]).shape[0])}


_COUNTS = {"ed.ground_state": _solve_counts, "ed.thermal_variance": _thermal_counts}


def _wrap_named(tracer, name, fn):
    return tracer.wrap(name, fn, _COUNTS.get(name))


@contextlib.contextmanager
def traced_cli(tracer, cli):
    """Wrap, inside ``cli`` only, the names it imports from the engines plus
    ``run_experiment`` and ``write_csv``; yield a traced ``cli.main``."""
    saved = {}
    for key, value in list(vars(cli).items()):
        module = getattr(value, "__module__", "") or ""
        if inspect.isfunction(value) and module.startswith("dicke_squeeze.ed"):
            saved[key] = value
            setattr(cli, key, _wrap_named(tracer, f"ed.{key}", value))
        elif isinstance(value, types.ModuleType) and value.__name__ in (
            "dicke_squeeze.bogoliubov",
            "dicke_squeeze.disorder",
            "dicke_squeeze.ising",
        ):
            saved[key] = value
            setattr(cli, key, tracer.wrap_module(value, value.__name__.split(".")[-1]))
    for key in ("run_experiment", "write_csv"):
        saved[key] = getattr(cli, key)
        setattr(cli, key, tracer.wrap(f"cli.{key}", saved[key]))
    try:
        yield tracer.wrap("cli.main", cli.main)
    finally:
        for key, value in saved.items():
            setattr(cli, key, value)


def layer_of(span_name: str) -> str:
    """Layer a span's self time is charged to."""
    prefix, _, fn = span_name.partition(".")
    if prefix == "ed":
        if fn == "ground_state":
            return "ed.solve"
        if fn == "thermal_variance":
            return "thermal.oracle"
        if fn.startswith("build_") or fn == "parity_diagonal":
            return "ed.build"
        return "ed.observe"
    if prefix in ("bogoliubov", "disorder", "ising"):
        return "analytic"
    if prefix == "cli":
        return "cli.write" if fn == "write_csv" else "cli.run"
    return "bench"


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.
    Raises ValueError when a child is not inside its parent."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent < 0:
            continue
        p_name, p_start, p_end = spans[parent][:3]
        if start < p_start or end > p_end:
            raise ValueError(f"span {name} escapes its parent {p_name}")
        out[parent] -= end - start
    for (name, *_), value in zip(spans, out):
        if value < -1e-9:
            raise ValueError(f"span {name} has negative self time {value:.3e}")
    return out


def solver_work(counts: dict) -> dict:
    """Work of one ground-state solve computed from its size and iterations
    (labelled *_computed: counted from the algorithm, not measured).

    Lanczos with m vectors: m recurrence mat-vecs plus the final residual
    mat-vec; two Gram-Schmidt passes against j vectors cost 8*j*dim flops at
    step j, summing to 4*m*(m-1)*dim, and forming the two Ritz vectors
    4*m*dim; the Krylov basis holds m vectors of dim doubles. Dense: the
    residual mat-vec and the Householder reduction, 4/3*dim^3."""
    dim, nnz, m = counts["dim"], counts["nnz"], counts["iterations"]
    if counts["method"] == "lanczos":
        return {
            "matvecs": m + 1,
            "flops": 2 * nnz * (m + 1) + 4 * m * m * dim,
            "krylov_bytes": 8 * m * dim,
        }
    return {"matvecs": 1, "flops": 2 * nnz + (4 * dim**3) // 3, "krylov_bytes": 0}


def layer_metrics(spans) -> tuple[dict, dict]:
    """(layer self times, deterministic counts) of one traced pass."""
    times = {}
    for (name, *_), value in zip(spans, self_times(spans)):
        layer = layer_of(name)
        times[layer] = times.get(layer, 0.0) + value
    counts = dict.fromkeys(
        ("ed.dim", "ed.nnz", "ed.iterations", "ed.solve_lanczos", "ed.solve_dense",
         "ed.matvecs_computed", "ed.flops_computed", "ed.krylov_bytes_computed",
         "thermal.dim", "analytic.points"),
        0,
    )
    for name, _, _, _, _, extra in spans:
        if name == "ed.ground_state":
            counts["ed.dim"] += extra["dim"]
            counts["ed.nnz"] += extra["nnz"]
            counts["ed.iterations"] += extra["iterations"]
            counts[f"ed.solve_{extra['method']}"] += 1
            for key, value in solver_work(extra).items():
                counts[f"ed.{key}_computed"] += value
        elif name == "ed.thermal_variance":
            counts["thermal.dim"] += extra["dim"]
        elif layer_of(name) == "analytic":
            counts["analytic.points"] += 1
    return times, counts


# -- output reading and checking ----------------------------------------------

def read_csv(path) -> tuple[list[str], list[list[str]], int]:
    """(header, rows, bytes) of a program CSV. Bytes leave out the
    '# generated:' line, whose timestamp and elapsed time vary by run."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    data = [line for line in lines if not line.startswith("#")]
    stamp = sum(len(line) + 1 for line in lines if line.startswith("# generated:"))
    reader = csv.reader(io.StringIO("\n".join(data)))
    header = next(reader)
    return header, list(reader), len(text.encode("utf-8")) - stamp


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def row_matches(header, row, ref_row) -> bool:
    """One output row against its recorded reference row. The residual is the
    solver's own report and is not compared; an ED row must carry
    residual_ok = true and its value must lie within ED_ATOL."""
    if len(row) != len(header) or len(ref_row) != len(header):
        return False
    fields = dict(zip(header, row))
    is_ed = fields.get("method") == "ed"
    if is_ed and fields.get("residual_ok") != "true":
        return False
    for column, cell, ref in zip(header, row, ref_row):
        if column == "residual":
            continue
        value, expected = _as_float(cell), _as_float(ref)
        if value is None or expected is None:
            if cell != ref:
                return False
        elif is_ed and column in ("variance", "xi"):
            if not abs(value - expected) <= ED_ATOL:
                return False
        elif not math.isclose(value, expected, rel_tol=ANALYTIC_RTOL, abs_tol=1e-300):
            return False
    return True


def thermal_xi_closed_form(omega0: float, g: float, temperature: float) -> float:
    """xi(T) = eps_-/min(1, omega0) * coth(eps_-/2T) at omega = 1, derived here
    independently of the program; the critical point gives inf."""
    em_sq = 0.5 * ((1.0 + omega0**2) - math.sqrt((omega0**2 - 1.0) ** 2 + 16.0 * g * g * omega0))
    if em_sq <= 1e-12 * (1.0 + omega0**2):
        return math.inf
    eps = math.sqrt(em_sq)
    return eps / min(1.0, omega0) / math.tanh(eps / (2.0 * temperature))


def closed_form_row(experiment, fields) -> float:
    """Closed-form xi for a fig4/fig5 row (omega = 1, no A^2 term)."""
    omega0 = float(fields["omega0_over_omega"])
    temperature = float(fields["kt_over_omega"])
    if experiment == "fig4":
        delta = float(fields["gc_minus_g_over_omega"])
        if delta == 0.0:
            return math.inf
        g = math.sqrt(omega0) / 2.0 - delta
    else:
        g = 0.1
    return thermal_xi_closed_form(omega0, g, temperature)


def check_csv(path, experiment, reference) -> tuple[int, int]:
    """(rows attempted, rows failed) of one output against its reference
    entry; thermal-xi outputs (fig4, fig5) are also checked row by row
    against the closed form."""
    header, rows, _ = read_csv(path)
    if header != reference["columns"] or len(rows) != reference["count"]:
        return max(len(rows), reference["count"]), max(len(rows), reference["count"])
    bad = set()
    stride = reference["stride"]
    for k, ref_row in enumerate(reference["rows"]):
        if not row_matches(header, rows[k * stride], ref_row):
            bad.add(k * stride)
    if experiment in CLOSED_FORM:
        for k, row in enumerate(rows):
            fields = dict(zip(header, row))
            value = _as_float(fields["xi"])
            expected = closed_form_row(experiment, fields)
            if value is None or not math.isclose(value, expected, rel_tol=ORACLE_RTOL):
                bad.add(k)
    return len(rows), len(bad)


def reference_entry(path, experiment) -> dict:
    """What the reference file records for one output CSV."""
    header, rows, _ = read_csv(path)
    stride = SAMPLE_STRIDE if experiment in CLOSED_FORM else 1
    return {"columns": header, "count": len(rows), "stride": stride, "rows": rows[::stride]}


# -- workloads -----------------------------------------------------------------

def _ladder_config(tiny):
    return {"grids": {"n_spins": [4, 6] if tiny else [6, 8, 10, 12]}, "ed": {"n_max": [40] if tiny else [50]}}


def _grid_config(tiny):
    return {
        "grids": {
            "gc_minus_g_over_omega": {"min": 0.0, "max": 0.45, "count": 11 if tiny else 181},
            "kt_over_omega": {"min": 0.01, "max": 0.6, "count": 12 if tiny else 240},
        }
    }


class Workload:
    """One workload: ``run_pass`` is timed, ``check`` and ``output_counts``
    read what it left behind."""

    def __init__(self, name: str, seed: int, workdir: Path, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.jobs = []  # (label, experiment, argv for cli.main, out path)
        self.draws = []
        if name == "figures":
            for fig in PRESETS:
                # tiny: the ED presets at small truncations, so they stay dense
                ed = fig in ("fig3", "fig6", "fig7")
                self._add_job(fig, fig, ["--n-max", "4,5"] if tiny and ed else [], tiny and ed)
        elif name == "ed-ladder":
            self._add_job("ladder", "fig3", self._config_args("ladder", _ladder_config(tiny)), tiny)
        elif name == "analytic-grid":
            self._add_job("grid", "fig4", self._config_args("grid", _grid_config(tiny)), tiny)
        else:
            self.n_max = 20 if tiny else 40
            self.draws = thermal_draws(seed, 2 if tiny else 4)

    def _config_args(self, label, cfg):
        path = self.workdir / f"{label}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return ["--config", str(path)]

    def _add_job(self, label, experiment, extra, tiny):
        out = self.workdir / f"{label}.csv"
        argv = [experiment, *extra, "--out", str(out), "--jobs", "1"]
        self.jobs.append((f"{label}-tiny" if tiny else label, experiment, argv, out))

    def reset(self):
        """Remove the last pass's outputs, so a pass that writes none fails."""
        for *_, out in self.jobs:
            out.unlink(missing_ok=True)

    def run_pass(self, api, tracer=None):
        """One pass through the program; returns the exit codes or ED xi."""
        if self.draws:
            results = []
            for k, draw in enumerate(self.draws):
                if tracer is not None:
                    tracer.item = f"draw-{k}"
                results.append(thermal_draw_xi(api, draw, self.n_max))
            return results
        codes = []
        for label, _, argv, _ in self.jobs:
            if tracer is not None:
                tracer.item = label
            codes.append(api.main(argv))
        return codes

    def check(self, results, reference) -> tuple[int, int]:
        """(attempted, failed) items of the pass: draws or output rows."""
        if self.draws:
            failed = sum(
                not abs(xi - draw["xi_analytic"]) < THERMAL_ATOL
                for xi, draw in zip(results, self.draws)
            )
            return len(self.draws), failed
        attempted = failed = 0
        for (label, experiment, _, out), code in zip(self.jobs, results):
            if code != 0 or not out.is_file() or label not in reference:
                n = reference.get(label, {}).get("count", 1)
                attempted, failed = attempted + n, failed + n
                continue
            a, f = check_csv(out, experiment, reference[label])
            attempted, failed = attempted + a, failed + f
        return attempted, failed

    def output_counts(self) -> dict:
        """Rows and bytes the pass wrote (cli.rows, cli.bytes) and, for the
        thermal oracle, the computed share of useful eigenpairs."""
        if self.draws:
            useful = sum(d["useful"] for d in self.draws)
            dim = len(self.draws) * (self.n_max + 1) ** 2
            return {"cli.rows": 0, "cli.bytes": 0, "thermal.useful_frac": useful / dim}
        rows = size = 0
        for *_, out in self.jobs:
            _, data, n_bytes = read_csv(out)
            rows, size = rows + len(data), size + n_bytes
        return {"cli.rows": rows, "cli.bytes": size, "thermal.useful_frac": 0.0}


def thermal_draws(seed: int, count: int) -> list[dict]:
    """Normal-phase draws under criterion 03's rules: omega0 in [0.5, 2],
    g up to 0.9 g_c, k_B T in [0.05, 0.5], eps_- >= 0.1."""
    import numpy as np
    from dicke_squeeze import DickeParams, normal_modes, thermal_squeezing_ratio

    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        omega0 = float(rng.uniform(0.5, 2.0))
        g = float(rng.uniform(0.1, 0.9)) * math.sqrt(omega0) / 2.0
        temperature = float(rng.uniform(0.05, 0.5))
        p = DickeParams(1.0, omega0, g)
        modes = normal_modes(p)
        if modes.eps_minus < 0.1:
            continue
        draws.append(
            {
                "omega0": omega0,
                "g": g,
                "temperature": temperature,
                "xi_analytic": thermal_squeezing_ratio(p, temperature).xi,
                "useful": useful_pairs(modes.eps_minus, modes.eps_plus, temperature),
            }
        )
    return draws


def useful_pairs(eps_minus, eps_plus, temperature) -> int:
    """Levels n_- eps_- + n_+ eps_+ of the analytic two-mode spectrum whose
    normalized Boltzmann weight exceeds USEFUL_WEIGHT."""
    log_z = -math.log1p(-math.exp(-eps_minus / temperature)) - math.log1p(
        -math.exp(-eps_plus / temperature)
    )
    e_max = temperature * (-math.log(USEFUL_WEIGHT) - log_z)
    count = 0
    n_minus = 0
    while n_minus * eps_minus <= e_max:
        count += int((e_max - n_minus * eps_minus) // eps_plus) + 1
        n_minus += 1
    return count


def thermal_draw_xi(api, draw, n_max) -> float:
    """Gibbs-oracle xi of one draw, as criterion 03 computes it."""
    p = api.DickeParams(1.0, draw["omega0"], draw["g"])
    gamma = api.normal_modes(p).gamma
    h = api.build_hopfield_hamiltonian(p, n_max, n_max)
    q = api.hopfield_p_minus(n_max, n_max, 1.0, draw["omega0"], gamma)
    return api.thermal_variance(h, q, draw["temperature"]) / (min(1.0, draw["omega0"]) / 2.0)


# (name, span prefix) of the calls a thermal-oracle draw makes directly.
_DRAW_CALLS = (
    ("normal_modes", "bogoliubov"),
    ("build_hopfield_hamiltonian", "ed"),
    ("hopfield_p_minus", "ed"),
    ("thermal_variance", "ed"),
)


def program_api(tracer=None):
    """Context manager yielding the entry points a pass calls: ``main`` (the
    CLI) and the calls of a thermal draw, bare or traced."""
    import dicke_squeeze
    from dicke_squeeze import cli

    calls = {
        name: getattr(dicke_squeeze.ed if prefix == "ed" else dicke_squeeze, name)
        for name, prefix in _DRAW_CALLS
    }
    if tracer is None:
        return contextlib.nullcontext(
            types.SimpleNamespace(main=cli.main, DickeParams=dicke_squeeze.DickeParams, **calls)
        )
    return _traced_api(tracer, cli, dicke_squeeze.DickeParams, calls)


@contextlib.contextmanager
def _traced_api(tracer, cli, dicke_params, calls):
    with traced_cli(tracer, cli) as main:
        wrapped = {
            name: _wrap_named(tracer, f"{prefix}.{name}", calls[name])
            for name, prefix in _DRAW_CALLS
        }
        yield types.SimpleNamespace(main=main, DickeParams=dicke_params, **wrapped)


# -- environment ---------------------------------------------------------------

def environment(seed: int) -> dict:
    """Where the numbers come from: commit, seed, cores, BLAS, versions, caches."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": cache_sizes(),
    }


def commit(short: bool = False) -> str | None:
    """The checkout's git commit; None outside a git checkout (git is not
    asked, so it cannot report an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", *(["--short"] if short else []), "HEAD"],
            capture_output=True, text=True, cwd=ROOT, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the program sources, naming the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dicke_squeeze").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded in this process (numpy's, scipy's)."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        name = Path(path).name
        if not name.startswith("lib"):
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[name] = fn()
                break
    return found


def cache_sizes() -> dict:
    """Unified and data cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes
