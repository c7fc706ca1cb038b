"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cochoice.harness import gen_typed_source  # noqa: E402
from cochoice.syntax import alpha_eq  # noqa: E402


def bench(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=170)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dst: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--limit", "4")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 4 * len(workloads.WORKLOADS[workload][2])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {n: v["unit"] for n, v in out["metrics"].items()}
    for name, unit in run.END_TO_END.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name
    if trace:
        spans = tracer.read_spans(run.OUT / f"{workload}-seed3.spans")
        assert len(spans["start"]) == out["metrics"]["trace.spans"]["value"] > 0
        assert all(p < i for i, p in enumerate(spans["parent"]))
        assert all(s <= e for s, e in zip(spans["start"], spans["end"]))


def test_planted_counterexample_fails_the_gate(tmp_path):
    root = copy_checkout(tmp_path)
    with open(root / "src" / "cochoice" / "harness.py", "a") as f:
        f.write("\n\ndef check_strong_bisim(e, m, depth=8):\n"
                "    return BisimReport(COUNTEREXAMPLE, 'planted', 0)\n")
    proc = bench(root, "--workload", "bisim", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--limit", "3")
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] >= 3
    failed_ratio = next(float(line.split()[1]) for line in proc.stdout.splitlines()
                        if line.split()[:1] == ["failed_ratio"])
    assert failed_ratio > 0


def _round(verdicts: list) -> dict:
    return {"programs": [[1, 0.001, verdicts]]}


def test_gate_lets_a_pinned_fuel_exhausted_end_ok():
    pins = {"bisim": {"1": ["OK", "FuelExhausted", "OK"]}}
    same = run.judge("bisim", [_round(["OK", "FuelExhausted", "OK"])], pins)
    better = run.judge("bisim", [_round(["OK", "OK", "OK"])], pins)
    assert same["failed"] == better["failed"] == 0
    assert (same["drift_from_pins"], better["drift_from_pins"]) == (0, 1)
    assert better["decided_ratio"] > same["decided_ratio"]


@pytest.mark.parametrize("rounds", [
    [["FuelExhausted", "FuelExhausted", "OK"]],  # a pinned OK is lost
    [["OK", "FuelExhausted", "Error"]],
    [["OK", "FuelExhausted", "OK"], ["OK", "OK", "OK"]],  # unsteady
])
def test_gate_fails_a_lost_ok_an_error_and_an_unsteady_verdict(rounds):
    pins = {"bisim": {"1": ["OK", "FuelExhausted", "OK"]}}
    out = run.judge("bisim", [_round(r) for r in rounds], pins)
    assert out["failed"] == 1 and out["failed_ratio"] == 1 / 3


def test_without_sources_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = bench(root, "--workload", "bisim", "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pins_reproduce_the_acceptance_lines():
    pins = run.load_pins()
    pair = [s for v in pins["bisim"].values() for s in v[:2]]
    e2e = [v[2] for v in pins["bisim"].values()]
    assert len(pins["bisim"]) == len(pins["typing"]) == workloads.ACCEPTANCE_N
    assert (pair.count("OK"), pair.count("FuelExhausted")) == (514, 86)
    assert (e2e.count("OK"), e2e.count("FuelExhausted")) == (283, 17)
    typing = [s for v in pins["typing"].values() for s in v]
    assert (typing.count("OK"), typing.count("FuelExhausted")) == (1422, 378)


def test_seed_zero_is_the_acceptance_corpus():
    corpus = workloads.acceptance_corpus(0)
    assert [i for i, _ in corpus] == [i for i in range(300) if i not in workloads.EXCLUDED]
    assert all(e == gen_typed_source(i, 5 + i % 26) for i, e in corpus)


def test_other_seeds_rename_the_same_programs():
    base = dict(workloads.acceptance_corpus(0))
    corpus = workloads.acceptance_corpus(7)
    assert [i for i, _ in corpus] == list(base)
    renamed = sum(e != base[i] for i, e in corpus)
    assert renamed > len(corpus) // 2
    assert all(alpha_eq(e, base[i]) for i, e in corpus)
    assert workloads.acceptance_corpus(7) == corpus


def test_translate_programs_differ_by_seed():
    a = workloads.translate_corpus(0)
    b = workloads.translate_corpus(1)
    assert len(a) == len(b) == workloads.TRANSLATE_N
    assert not {i for i, _ in a} & {i for i, _ in b}
    assert min(workloads.syntax.size_of(e) for _, e in a) >= workloads.TRANSLATE_MIN_NODES
