"""Write ``pins.json``: the verdict of every acceptance check on every
acceptance program, as the acceptance code computes it.

    python3 bench/make_pins.py

The calls are those of ``tests/test_acceptance.py`` (criteria 5, 6 and 7),
made here on their own, so the pins do not depend on the benchmark's check
code. Program 250 is included, so the totals can be compared with the
acceptance lines. Takes about two minutes and 1.4 GB.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cochoice.compiler import compile_expr, pseudo_compile  # noqa: E402
from cochoice.harness import (  # noqa: E402
    check_non_coordination, check_strong_bisim, check_subject_reduction,
    check_weak_bisim_pseudo, end_to_end, gen_typed_source,
)
from cochoice.syntax import name_subst  # noqa: E402

SEEDS = [(), ("o",), ("b", "o")]


def main() -> int:
    corpus = [gen_typed_source(i, 5 + i % 26) for i in range(300)]
    bisim, typing = {}, {}
    for i, e in enumerate(corpus):
        m = name_subst(compile_expr(e, "al", ()), "al", ())
        bisim[str(i)] = [check_strong_bisim(pseudo_compile(e), m, depth=8).status,
                         check_weak_bisim_pseudo(e, depth=8, fuel=200).status,
                         end_to_end(e, fuel=200).status]
        row = []
        for seed in SEEDS:
            m = name_subst(compile_expr(e, "al", seed), "al", ())
            row += [check_subject_reduction(m, depth=8).status,
                    check_non_coordination(m, depth=8).status]
        typing[str(i)] = row
    with open(BENCH / "pins.json", "w") as f:
        json.dump({"bisim": bisim, "typing": typing}, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
