"""Benchmark of the dicke-squeeze engines: one workload per process.

    python3 bench/run.py --workload figures --seed 1 --seconds 24 --trace 0

Run from a checkout holding ``src/dicke_squeeze``. With ``--trace 0`` the
last stdout line is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken from
traced passes that alternate with untraced ones. Every pass is checked
against the recorded reference (bench/reference.json) or the analytic
answer; a wrong answer counts as failed, never as a time. The environment,
the per-pass figures and the spans of the last traced pass go to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``. Exit code 0 when all
outputs are correct, 1 when any is not, 2 when there is nothing to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import harness

SETUP_PROBES = 3  # the first also measures peak memory over one pass
MIN_PASSES = 3  # untraced run; a traced run needs one traced and one untraced
OUT_DIR = harness.ROOT / ".bench_out"

# Per-layer counts that must repeat exactly from pass to pass.
DETERMINISTIC = (
    "ed.dim", "ed.nnz", "ed.iterations", "ed.solve_lanczos", "ed.solve_dense",
    "ed.matvecs_computed", "ed.flops_computed", "ed.krylov_bytes_computed",
    "thermal.dim", "thermal.useful_frac", "analytic.points", "cli.rows", "cli.bytes",
)
LAYER_TIMES = {
    "ed.build_s": "ed.build",
    "ed.solve_s": "ed.solve",
    "ed.observe_s": "ed.observe",
    "thermal.oracle_s": "thermal.oracle",
    "analytic.s": "analytic",
    "cli.write_s": "cli.write",
    "cli.run_s": "cli.run",
}


def measure_setup(probes, workload_name, seed, tiny):
    """Set-up seconds of ``probes`` fresh processes, as a CLI user pays on
    every run, and the peak resident memory (MB) of the first, which then
    runs one pass of the workload the way a user's process would."""
    times, peak = [], 0.0
    for index in range(probes):
        job = [workload_name, str(seed), str(int(tiny))] if index == 0 else []
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH / "probe.py"), *job],
            capture_output=True, text=True, timeout=170, cwd=harness.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup, rss = (float(v) for v in proc.stdout.split()[-2:])
        times.append(setup)
        peak = max(peak, rss)
    return times, peak


def run_passes(workload, reference, seconds, trace):
    """Timed passes until ``seconds`` would be exceeded (at least MIN_PASSES
    untraced, or one of each kind when tracing, alternating). Every pass goes
    through the gate."""
    passes = []
    spans = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = harness.Tracer() if traced else None
        workload.reset()
        with harness.program_api(tracer) as api:
            run = tracer.wrap("bench.pass", workload.run_pass) if traced else workload.run_pass
            cpu0, t0 = time.process_time(), time.perf_counter()
            results = run(api, tracer)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        attempted, failed = workload.check(results, reference)
        record = {"traced": traced, "wall_s": wall, "cpu_s": cpu,
                  "attempted": attempted, "failed": failed,
                  "counts": workload.output_counts()}
        if traced:
            layers, counts = harness.layer_metrics(tracer.spans)
            record["layers"] = layers
            record["counts"].update(counts)
            record["self_sum_s"] = sum(layers.values())
            spans = tracer.spans
        passes.append(record)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and elapsed + max(p["wall_s"] for p in passes[-2:]) > seconds:
            return passes, spans


def count_drift(passes) -> list[str]:
    """Deterministic counts that differ between passes."""
    drift = []
    for key in DETERMINISTIC:
        values = {p["counts"][key] for p in passes if key in p["counts"]}
        if len(values) > 1:
            drift.append(f"{key}: {sorted(values)}")
    return drift


def end_to_end(setup, peak_rss, passes, attempted, failed):
    walls = [p["wall_s"] for p in passes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name == "cli.bytes":
        return "B"
    return "s" if name.endswith(("_s", ".s")) else "count"


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {
        name: statistics.median(p["layers"].get(layer, 0.0) for p in traced)
        for name, layer in LAYER_TIMES.items()
    }
    metrics.update({key: traced[0]["counts"][key] for key in DETERMINISTIC})
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    metrics["trace.self_sum_s"] = statistics.median(p["self_sum_s"] for p in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / untraced_wall - 1.0
    )
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def load_inputs():
    """BENCHMARK.json and the recorded reference outputs; imports the program.
    Raises OSError, ValueError or MissingProgram when the checkout lacks them."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))["outputs"]
    harness.import_program()
    return spec, reference


def measure(spec, reference, workload_name, seed, seconds, trace, *, tiny=False, probes=SETUP_PROBES):
    """Run one workload. Returns (result, details, errors): the result object
    of the last stdout line, the per-pass record with the spans of the last
    traced pass, and why the run is not correct besides failed outputs."""
    # set-up time and memory are end-to-end metrics, not needed when tracing
    setup, peak_rss = measure_setup(0 if trace else probes, workload_name, seed, tiny)
    harness.warm_up()
    workdir = OUT_DIR / f"{workload_name}-{os.getpid()}"
    try:
        workload = harness.Workload(workload_name, seed, workdir, tiny=tiny)
        passes, spans = run_passes(workload, reference, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    kind = "per_layer" if trace else "end_to_end"
    metrics = per_layer(passes) if trace else end_to_end(setup, peak_rss, passes, attempted, failed)
    errors = count_drift(passes)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if emitted != declared:
        errors.append(f"metrics {emitted} do not match BENCHMARK.json {kind} {declared}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload_name, "trace": int(trace), "tiny": tiny,
        "env": harness.environment(seed), "setup_probes_s": setup, "peak_rss_mb": peak_rss,
        "passes": passes, "spans": spans,
    }
    return result, details, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec, reference = load_inputs()
    except (OSError, ValueError, harness.MissingProgram) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, details, errors = measure(
        spec, reference, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, separators=(",", ":")), encoding="utf-8")
    summary = {"env": details["env"], "passes": len(details["passes"]),
               "details": str(out.relative_to(harness.ROOT))}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
