"""The cochoice benchmark: one run of one workload at one seed.

    python3 bench/run.py --workload bisim --seed 0 --seconds 30 --trace 0

Workloads (inputs and checks are in ``workloads.py``):

* ``bisim``: strong and weak bisimulation (depth 8, fuel 200), then
  ``end_to_end`` (fuel 200), on each acceptance program: criteria 6 and 7.
* ``typing``: subject reduction and non-coordination (depth 8) of each
  acceptance program compiled at three seeds: criterion 5.
* ``translate``: print and parse back, source typing, compilation and
  effect typing at three seeds, and erasure, on larger programs:
  criteria 4 and 10.

A run makes rounds, one at a time, each in a fresh interpreter
(``worker.py``) that runs every check of every program once, so the
module-level caches start cold in every round. Before each untraced round it
starts ``SETUP_SAMPLES`` interpreters that only import cochoice and build the
inputs, so the set-up samples are spread over the run as the rounds are. Rounds repeat while the
next one is expected to end within ``--seconds``; at least ``MIN_ROUNDS`` run.
End-to-end metrics are medians over rounds, and ``setup_s`` the median over
all interpreters started. ``cpu_s`` is the CPU time of a round, printed next
to ``wall_s``: the two differ only when the host takes the processor away. With ``--trace 1`` a run makes one untraced round
and one traced round, reports the per-layer metrics of the traced round,
and reports the tracing overhead as traced minus untraced ``wall_s``.

Every verdict is checked against its known answer. A CounterExample, an
exception or a failed translate identity is a failure, and so is a verdict
that changes between rounds. For ``bisim`` and ``typing`` a check that the
acceptance code decides on the same program (OK in ``pins.json``) must end
OK; one it leaves FuelExhausted may end OK, which counts as drift from the
pins. Any failure makes ``correct`` false and the exit code 1.

The output is a table of every metric with its unit, the run's provenance,
a record with one row per program under ``bench/out/``, and as the last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit codes: 0 pass, 1 failed check or round, 2 usage error or
no cochoice sources in this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

WORKLOADS = ("bisim", "typing", "translate")
SETUP_SAMPLES = 5  # per untraced round
MIN_ROUNDS = 2  # untraced; a median of one round lets one slow moment through
DEADLINE_S = 170.0  # the whole run, including set-up samples

# The statuses of workloads.py, repeated because this process does not import
# cochoice: a checkout without sources must fail cleanly.
OK, FUEL_EXHAUSTED, COUNTEREXAMPLE = "OK", "FuelExhausted", "CounterExample"
ERROR, MISMATCH = "Error", "Mismatch"
FAILURES = (COUNTEREXAMPLE, ERROR, MISMATCH)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "program_p50_ms": "ms",
    "program_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
    "failed_ratio": "ratio",
}
# The last line carries the metrics that BENCHMARK.json bounds. It leaves out
# cpu_s, which tracks wall_s on a host that does not steal time, and
# failed_ratio, which is 0 on a correct run (the gate and the "failed" count
# carry it).
GATED = [m for m in END_TO_END if m not in ("cpu_s", "failed_ratio")]


def _unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".entries") or name in (
            "harness.states", "harness.fuel_exhausted", "trace.spans"):
        return "count"
    if name.endswith(".hit_ratio"):
        return "ratio"
    return "s"


PER_LAYER = {name: _unit(name) for name in [
    "harness.strong_bisim.s", "harness.weak_bisim.s", "harness.end_to_end.s",
    "harness.subject_reduction.s", "harness.non_coordination.s",
    "harness.states", "harness.fuel_exhausted",
    "syntax.canon_key.calls", "syntax.canon_key.s", "syntax.canon_key.hit_ratio",
    "syntax.canon_key.entries", "syntax.subst_term.s", "syntax.name_subst.s",
    "syntax.alpha_eq.s",
    "source.src_step_all.calls", "source.src_step_all.s", "source.src_eval.s",
    "source.src_typecheck.s",
    "target.tgt_step_all.calls", "target.tgt_step_all.s", "target.tgt_step_nc.s",
    "target.effect_typecheck.calls", "target.effect_typecheck.s",
    "target.subtype.s", "target.tgt_eval.s",
    "effects.includes.calls", "effects.includes.s",
    "effects.overlap_witness.calls", "effects.overlap_witness.s",
    "effects.deriv.hit_ratio", "effects.deriv.entries",
    "compiler.compile_expr.s", "compiler.erase.s", "compiler.erase.hit_ratio",
    "compiler.pseudo_compile.s", "compiler.pseudo_compile.hit_ratio",
    "parser.parse.s", "printer.format_expr.s",
    "harness.s", "syntax.s", "source.s", "target.s", "effects.s", "compiler.s",
    "parser.s", "printer.s", "other.s",
    "trace.overhead_s", "trace.spans",
]}


class RunFailed(Exception):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # worker can subtract the parent's reading taken before it started.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, ns):
        self.ns = ns
        self.t_start = _now()

    def spawn(self, *extra) -> dict:
        """Start one worker, wait for it, and return its JSON result."""
        remaining = DEADLINE_S - (_now() - self.t_start)
        if remaining <= 0:
            raise RunFailed(f"run exceeded {DEADLINE_S:.0f} s")
        cmd = [sys.executable, str(WORKER), "--workload", self.ns.workload,
               "--seed", str(self.ns.seed), "--spawned", repr(_now())]
        if self.ns.limit:
            cmd += ["--limit", str(self.ns.limit)]
        proc = subprocess.Popen(list(cmd) + list(extra), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed(f"run exceeded {DEADLINE_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RunFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def rounds(self) -> tuple:
        """Untraced rounds for --seconds (one with --trace), each after
        SETUP_SAMPLES set-up samples, then the traced round."""
        rounds, setups = [], []
        spent = 0.0
        while True:
            setups += [self.spawn("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
            t0 = _now()
            rounds.append(self.spawn())
            took = _now() - t0
            spent += took
            if self.ns.trace:
                break
            if len(rounds) >= MIN_ROUNDS and spent + took > self.ns.seconds:
                break
            if _now() - self.t_start + 1.5 * took > DEADLINE_S:
                break
        traced = None
        if self.ns.trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{self.ns.workload}-seed{self.ns.seed}.spans"
            traced = self.spawn("--spans", str(spans))
        return setups + [r["setup_s"] for r in rounds], rounds, traced


def load_pins() -> dict:
    with open(BENCH / "pins.json") as f:
        return json.load(f)


def judge(workload: str, rounds: list, pins: dict) -> dict:
    """Compare every verdict with its known answer and with later rounds.

    A check fails if it gives a CounterExample, raises or breaks a translate
    identity, if its verdict changes between rounds, or if the acceptance
    code decides it (a pinned OK) and this run does not. A pinned
    FuelExhausted that now ends OK is no failure: it counts as drift from the
    pins and raises decided_ratio, so a change that decides more checks can
    pass the gate unchanged.
    """
    expected = pins.get(workload, {})
    later = [{pid: v for pid, _, v in r["programs"]} for r in rounds[1:]]
    counts = dict.fromkeys((OK, FUEL_EXHAUSTED) + FAILURES, 0)
    attempted = failed = drift = unsteady = 0
    for pid, _, verdicts in rounds[0]["programs"]:
        known = expected.get(str(pid), [OK] * len(verdicts))
        for j, (got, want) in enumerate(zip(verdicts, known)):
            attempted += 1
            counts[got] = counts.get(got, 0) + 1
            moved = any(r[pid][j] != got for r in later)
            drift += got != want and got not in FAILURES
            unsteady += moved
            failed += got in FAILURES or moved or (want == OK and got != OK)
    return {
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "drift_from_pins": drift,
        "unsteady_between_rounds": unsteady,
        "decided_ratio": (counts[OK] + counts[COUNTEREXAMPLE] + counts[MISMATCH])
        / attempted,
        "failed_ratio": failed / attempted,
    }


def _p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def end_to_end_metrics(setups: list, rounds: list, verdict: dict) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "program_p50_ms": statistics.median(
            1e3 * statistics.median(t for _, t, _ in r["programs"]) for r in rounds),
        "program_p90_ms": statistics.median(
            1e3 * _p90([t for _, t, _ in r["programs"]]) for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "decided_ratio": verdict["decided_ratio"],
        "failed_ratio": verdict["failed_ratio"],
    }


def layer_metrics(traced: dict, untraced: dict, verdict: dict) -> dict:
    out = {name: traced["layers"].get(name, 0) for name in PER_LAYER}
    out["harness.states"] = traced["states"]
    out["harness.fuel_exhausted"] = verdict["counts"][FUEL_EXHAUSTED]
    out["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    out["trace.spans"] = traced["spans"]
    return out


def provenance(ns, rounds: list) -> dict:
    def git_commit():
        try:
            r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                                "HEAD"], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = r.stdout.split()
        if r.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return None  # not a git checkout of its own
        return lines[1]

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    programs = rounds[0]["programs"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": ns.workload,
        "seed": ns.seed,
        "programs": len(programs),
        "checks": sum(len(v) for _, _, v in programs),
        "traced": bool(ns.trace),
        "seconds": ns.seconds,
        "rounds": len(rounds),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="run only the first N programs (for quick checks)")
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "cochoice" / "__init__.py").is_file():
        print(f"no cochoice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(ns)
    try:
        setups, rounds, traced = runner.rounds()
        pins = load_pins()
    except (RunFailed, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    verdict = judge(ns.workload, rounds + ([traced] if traced else []), pins)
    e2e = end_to_end_metrics(setups, rounds, verdict)
    layers = layer_metrics(traced, rounds[0], verdict) if traced else None
    prov = provenance(ns, rounds)

    print(f"workload {ns.workload}  seed {ns.seed}  programs {prov['programs']}  "
          f"checks {prov['checks']}  rounds {len(rounds)}  traced {bool(ns.trace)}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<34} {e2e[name]:>14.6g} {unit}")
    if layers:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}")
    print(f"  verdicts {verdict['counts']}  drift from pins "
          f"{verdict['drift_from_pins']}  unsteady {verdict['unsteady_between_rounds']}")
    errors = sorted({e for r in rounds for e in r["errors"]})
    for line in errors[:10]:
        print(f"  error: {line}")
    print("provenance " + json.dumps(prov))

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json"
    latencies = {}
    for r in rounds:
        for pid, t, _ in r["programs"]:
            latencies.setdefault(pid, []).append(t)
    rows = [[pid, 1e3 * statistics.median(latencies[pid]), v]
            for pid, _, v in rounds[0]["programs"]]
    with open(record, "w") as f:
        json.dump({"provenance": prov, "end_to_end": e2e, "per_layer": layers,
                   "verdicts": verdict, "setup_samples": setups,
                   "round_wall_s": [r["wall_s"] for r in rounds],
                   "errors": errors,
                   "programs": {"columns": ["id", "latency_ms", "verdicts"],
                                "checks": rounds[0]["checks"], "rows": rows}}, f)
    print(f"record {record.relative_to(ROOT)}")

    if layers:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": END_TO_END[n]} for n in GATED}
    correct = verdict["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
