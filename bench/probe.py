"""Set-up probe: a fresh process times the import of dicke_squeeze (with its
CLI) and the first, one-time-cost calls. Given a workload, it then runs one
pass of it, as a CLI user's process would, and reports that process's peak
resident memory. Prints "<setup seconds> <peak MB>" (peak 0 without a pass).

    python3 bench/probe.py [<workload> <seed> <tiny 0|1>]
"""

import json
import os
import resource
import shutil
import sys
import time

import harness

t0 = time.perf_counter()
harness.import_program()
import dicke_squeeze.cli  # noqa: E402,F401  (part of what a CLI user imports)

harness.warm_up()
setup = time.perf_counter() - t0

peak = 0.0
if len(sys.argv) == 4:
    reference = json.loads(harness.REFERENCE.read_text(encoding="utf-8"))["outputs"]
    workdir = harness.ROOT / ".bench_out" / f"probe-{os.getpid()}"
    try:
        workload = harness.Workload(sys.argv[1], int(sys.argv[2]), workdir, tiny=sys.argv[3] == "1")
        with harness.program_api() as api:
            results = workload.run_pass(api)
        _, failed = workload.check(results, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        sys.exit(f"{failed} outputs of the memory pass failed the gate")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(setup, peak)
