"""One round of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per round, so the module-level caches of
cochoice start cold, as they do for every ``pytest`` or ``cochoice suite``
run. It imports cochoice from ``src/`` of the checkout it sits in, builds
the workload's inputs from the seed, runs every check of every program and
prints one JSON object: set-up time, wall and CPU time, peak RSS, and each
program's latency and verdicts. With ``--spans`` it also traces the calls
into each cochoice layer and writes the spans to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process started")
    ap.add_argument("--limit", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path)
    ns = ap.parse_args(argv)

    if not (SRC / "cochoice" / "__init__.py").is_file():
        print(f"no cochoice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    corpus = workloads.WORKLOADS[ns.workload][0](ns.seed)
    if ns.limit:
        corpus = corpus[:ns.limit]
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - ns.spawned
    if ns.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = workloads.run_program
    tracer = None
    if ns.spans:
        from tracer import PROGRAM, Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(PROGRAM, run)

    programs = []
    states = 0
    errors = []
    t_first = time.perf_counter()
    cpu_first = time.process_time()
    for pid, e in corpus:
        if tracer:
            tracer.current_program = pid
        t0 = time.perf_counter()
        verdicts, explored, error = run(ns.workload, e)
        programs.append([pid, time.perf_counter() - t0, verdicts])
        states += explored
        if error:
            errors.append(f"program {pid}: {error}")
    wall_s = time.perf_counter() - t_first
    cpu_s = time.process_time() - cpu_first

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "states": states,
        "checks": workloads.WORKLOADS[ns.workload][2],
        "programs": programs,
        "errors": errors,
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["spans"] = len(tracer.name)
        tracer.write(ns.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown: freeing the caches of a bisim round takes
    # more than a second that no round measures.
    sys.stdout.flush()
    os._exit(code)
