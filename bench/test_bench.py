"""Tests of the benchmark itself: tiny smoke runs of every workload, the
correctness gate, and the refusal to run without program sources."""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import run


@pytest.fixture(scope="module")
def inputs():
    return run.load_inputs()


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_smoke_run(inputs, workload, trace):
    spec, reference = inputs
    result, details, errors = run.measure(
        spec, reference, workload, 7, 0, trace, tiny=True, probes=1
    )
    assert errors == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert json.loads(json.dumps(result)) == result
    if not trace:
        return
    spans = details["spans"]
    assert spans and spans[0][0] == "bench.pass" and spans[0][3] == -1
    for index, (_, start, end, parent, _, _) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < index
            assert spans[parent][1] <= start and end <= spans[parent][2]
    self_times = harness.self_times(spans)
    assert min(self_times) >= -1e-9
    root = spans[0][2] - spans[0][1]
    assert sum(self_times) == pytest.approx(root, rel=1e-9, abs=1e-12)


def _one_pass(workload_name, tmp_path):
    harness.import_program()
    workload = harness.Workload(workload_name, 7, tmp_path, tiny=True)
    with harness.program_api() as api:
        results = workload.run_pass(api)
    return workload, results


def _corrupt(path, column, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    index = lines[start].split(",").index(column)
    cells = lines[start + 1].split(",")
    cells[index] = edit(cells[index])
    lines[start + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "workload_name, label, column, edit",
    [
        # an ED value off by ten times the gate's tolerance
        ("ed-ladder", "ladder-tiny", "variance", lambda v: repr(float(v) + 10 * harness.ED_ATOL)),
        # an ED row whose solver reported a residual violation
        ("ed-ladder", "ladder-tiny", "residual_ok", lambda v: "false"),
        # a closed-form row off in the tenth digit
        ("analytic-grid", "grid-tiny", "xi", lambda v: repr(float(v) * (1 + 1e-9)) if v != "inf" else "1.0"),
        # a recorded analytic row off in the tenth digit
        ("figures", "fig2", "xi", lambda v: repr(float(v) * (1 + 1e-9) + 1e-12)),
    ],
)
def test_corrupted_output_trips_gate(inputs, tmp_path, workload_name, label, column, edit):
    _, reference = inputs
    workload, results = _one_pass(workload_name, tmp_path)
    assert workload.check(results, reference)[1] == 0
    out = next(path for lab, _, _, path in workload.jobs if lab == label)
    _corrupt(out, column, edit)
    attempted, failed = workload.check(results, reference)
    assert failed == 1 and attempted >= 1


def test_wrong_thermal_draw_trips_gate(inputs, tmp_path):
    _, reference = inputs
    workload, results = _one_pass("thermal-oracle", tmp_path)
    assert workload.check(results, reference) == (2, 0)
    results[1] += 2 * harness.THERMAL_ATOL
    assert workload.check(results, reference) == (2, 1)


def test_failed_cli_run_counts_every_expected_row(inputs, tmp_path):
    _, reference = inputs
    workload, results = _one_pass("analytic-grid", tmp_path)
    assert workload.check([1], reference) == (264, 264)


@pytest.mark.parametrize("seed", [0, 987654321])
def test_thermal_draws_follow_criterion_03(seed):
    harness.import_program()
    from dicke_squeeze import DickeParams, normal_modes

    draws = harness.thermal_draws(seed, 8)
    assert draws == harness.thermal_draws(seed, 8)
    for draw in draws:
        gc = draw["omega0"] ** 0.5 / 2
        assert 0.5 <= draw["omega0"] <= 2.0 and draw["g"] <= 0.9 * gc
        assert 0.05 <= draw["temperature"] <= 0.5
        assert normal_modes(DickeParams(1.0, draw["omega0"], draw["g"])).eps_minus >= 0.1


def test_useful_pairs_counts_the_harmonic_levels():
    # eps_+ far above T leaves the levels n * eps_-: log Z = 0.4587 and the
    # weight exp(-n)/Z stays above 1e-16 up to n = 36
    assert harness.useful_pairs(1.0, 1e9, 1.0) == 37
    assert harness.useful_pairs(1.0, 1e9, 0.5) == 19


def test_count_drift_is_reported():
    passes = [
        {"traced": True, "counts": {"ed.iterations": 115, "cli.rows": 8}},
        {"traced": True, "counts": {"ed.iterations": 116, "cli.rows": 8}},
    ]
    assert run.count_drift(passes) == ["ed.iterations: [115, 116]"]
    assert run.count_drift(passes[:1]) == []


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
