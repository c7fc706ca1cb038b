"""Run the benchmark over two sets of seeds and check that they agree.

    python3 bench/record.py --sets 0-9 1000-1009 --out bench/out/record.json

Each set is a list of seeds, all sets of the same length. Run ``i`` of every
set is made for every workload before run ``i + 1`` of any, and the order of
the sets is reversed on every other ``i``, so a drift in host speed falls on
every set and every workload alike instead of on whichever ran last. Each
run is untraced and uses the ``run_seconds`` of ``BENCHMARK.json``. Then one
traced run per workload is made at the first seed of the first set.

For each workload and set this writes each end-to-end metric's median,
quartiles and spread (the distance between the quartiles as a share of the
median), and for each later set the change of each median against the first
set's, in the metric's worse direction. It prints them with the bound of
``BENCHMARK.json``: a spread must stay within the bound (``setup_s`` is
exempt) and a change of median must not exceed it. It exits 1 if any run
failed and 3 if a spread or a change exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), None)
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "exit": proc.returncode, "provenance": prov,
            "result": last, "stderr": proc.stderr[-2000:]}


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def worsening(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=seeds, nargs="+", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ns = ap.parse_args(argv)
    if len({len(s) for s in ns.sets}) != 1:
        ap.error("every set needs the same number of seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {(w, k): [] for w in names for k in range(len(ns.sets))}
    for i in range(len(ns.sets[0])):
        order = list(range(len(ns.sets)))[::-1 if i % 2 else 1]
        for w in names:
            for k in order:
                r = run(w, ns.sets[k][i], seconds, 0)
                runs[w, k].append(r)
                print(f"{w} seed {r['seed']} exit {r['exit']}", flush=True)
    traced = {w: run(w, ns.sets[0][0], seconds, 1) for w in names}

    record = {"sets": ns.sets, "run_seconds": seconds, "workloads": {}}
    failed_any = out_of_bounds = False
    for w in names:
        failed = [r for k in range(len(ns.sets)) for r in runs[w, k] + [traced[w]]
                  if r["exit"] != 0 or r["result"] is None]
        failed_any = failed_any or bool(failed)
        sets = []
        for k in range(len(ns.sets)):
            good = [r for r in runs[w, k] if r not in failed]
            sets.append({m["name"]: summary([r["result"]["metrics"][m["name"]]["value"]
                                             for r in good])
                         for m in spec["end_to_end"]} if len(good) > 1 else {})
        record["workloads"][w] = {
            "provenance": runs[w, 0][0]["provenance"],
            "sets": sets,
            "per_layer": ({n: v["value"] for n, v in traced[w]["result"]["metrics"].items()}
                          if traced[w] not in failed else None),
            "failed_runs": [{"seed": r["seed"], "exit": r["exit"], "stderr": r["stderr"]}
                            for r in failed],
        }
        print(f"{w}: {len(failed)} failed runs")
        for m in spec["end_to_end"]:
            if not all(m["name"] in s for s in sets):
                continue
            spreads = [s[m["name"]]["spread"] for s in sets]
            medians = [s[m["name"]]["median"] for s in sets]
            changes = [worsening(medians[0], x, m["better"]) for x in medians[1:]]
            for s, c in zip(sets[1:], changes):
                s[m["name"]]["worse_than_first"] = c
            bad = (m["name"] != "setup_s" and max(spreads) > m["bound"]) or \
                max(changes, default=0.0) > m["bound"]
            out_of_bounds = out_of_bounds or bad
            print(f"  {m['name']:<16} medians {' '.join(f'{x:.6g}' for x in medians)}"
                  f"  spreads {' '.join(f'{x:.4f}' for x in spreads)}"
                  f"  worse by {' '.join(f'{x:+.4f}' for x in changes)}"
                  f"  bound {m['bound']}{'  OUT OF BOUND' if bad else ''}")
    ns.out.parent.mkdir(parents=True, exist_ok=True)
    ns.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed_any else 3 if out_of_bounds else 0


if __name__ == "__main__":
    sys.exit(main())
