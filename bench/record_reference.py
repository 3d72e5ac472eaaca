"""Record the outputs the benchmark's gate compares against.

    python3 bench/record_reference.py

Runs one pass of every CLI workload, full size and tiny, and writes
bench/reference.json. Record only at a commit whose outputs are known good:
the gate then holds every later commit to them.
"""

import json
import shutil

import harness


def main() -> None:
    harness.import_program()
    workdir = harness.ROOT / ".bench_out" / "reference"
    entries = {}
    try:
        for tiny in (False, True):
            for name in ("figures", "ed-ladder", "analytic-grid"):
                workload = harness.Workload(name, 0, workdir, tiny=tiny)
                with harness.program_api() as api:
                    codes = workload.run_pass(api)
                for (label, experiment, argv, out), code in zip(workload.jobs, codes):
                    if code != 0:
                        raise SystemExit(f"{label}: cli.main({argv}) exited {code}")
                    entries[label] = harness.reference_entry(out, experiment)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one output row per line, so a re-recording diffs row by row
    parts = [f'{{\n"recorded_at": {json.dumps(harness.commit(short=True))},\n"outputs": {{']
    for i, label in enumerate(sorted(entries)):
        entry = entries[label]
        rows = ",\n".join(json.dumps(row) for row in entry["rows"])
        sep = "," if i < len(entries) - 1 else ""
        parts.append(
            f'{json.dumps(label)}: {{"columns": {json.dumps(entry["columns"])}, '
            f'"count": {entry["count"]}, "stride": {entry["stride"]}, "rows": [\n{rows}\n]}}{sep}'
        )
    parts.append("}\n}\n")
    harness.REFERENCE.write_text("\n".join(parts), encoding="utf-8")


if __name__ == "__main__":
    main()
