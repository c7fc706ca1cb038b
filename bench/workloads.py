"""Inputs and per-program checks of the three benchmark workloads.

``bisim`` and ``typing`` run the acceptance corpus
``gen_typed_source(i, 5 + i % 26)``, ``i < 300``, in that order. At seed 0
the programs are exactly those terms. Any other seed renames every binder of
every program to a fresh name drawn from the seed, so the inputs differ
while their state spaces stay the same size. The bounded checks cost a few
milliseconds on most programs and seconds on one program in a hundred, so
drawing new programs per seed would make the cost of a run depend on which
of those it drew. The order stays, because the module-level caches carry
work from one program to the next: a shuffled order moved the median
program latency of ``bisim`` by up to 15 % from seed to seed. Program ids
stay the acceptance indices, so every verdict can be compared with the
verdict the acceptance code gives on the same program.

``translate`` explores no states, so its cost follows program size. It
draws programs from ``gen_typed_source(seed * 1_000_003 + i, 240)`` and
keeps the first 300 of at least 120 nodes, because the generator often
stops far below its size budget.

Every check returns one of the harness statuses, or ``ERROR`` when it
raised, or ``MISMATCH`` when a translate identity does not hold.
"""

from __future__ import annotations

import random

from cochoice import compiler, effects, harness, parser, printer, source, syntax, target

OK = harness.OK
FUEL_EXHAUSTED = harness.FUEL_EXHAUSTED
COUNTEREXAMPLE = harness.COUNTEREXAMPLE
ERROR = "Error"
MISMATCH = "Mismatch"

ACCEPTANCE_N = 300
# Acceptance program 250 alone takes 62 s and 1.1 GB in its weak
# bisimulation, more than one run may spend. Program 198, of the same shape
# (a choice of lambdas applied to a choice of arguments), stays.
EXCLUDED = frozenset({250})

TRANSLATE_N = 300
TRANSLATE_SIZE = 240
TRANSLATE_MIN_NODES = 120

COMPILE_SEEDS = [(), ("o",), ("b", "o")]
BISIM_CHECKS = ("strong_bisim", "weak_bisim", "end_to_end")
TYPING_CHECKS = tuple(f"{c}@{'.'.join(s) or 'eps'}"
                      for s in COMPILE_SEEDS
                      for c in ("subject_reduction", "non_coordination"))
TRANSLATE_CHECKS = ("roundtrip",) + tuple(
    f"{c}@{'.'.join(s) or 'eps'}"
    for s in COMPILE_SEEDS for c in ("typed", "erasure"))


def rename_binders(e, rng: random.Random):
    """An alpha-variant of the closed term ``e`` in which every binder has
    its own fresh name, so no renaming can capture a variable."""
    pool = iter(rng.sample(range(100_000), _count_binders(e)))

    def go(t, env):
        if isinstance(t, syntax.Var):
            return syntax.Var(env.get(t.name, t.name))
        if isinstance(t, syntax.App):
            return syntax.App(go(t.fn, env), go(t.arg, env))
        if isinstance(t, syntax.Choice):
            return syntax.Choice(go(t.left, env), go(t.right, env))
        if isinstance(t, (syntax.Lam, syntax.Fix)):
            new = f"{t.var[0]}{next(pool)}"
            return type(t)(new, t.ann, go(t.body, {**env, t.var: new}))
        return t

    return go(e, {})


def _count_binders(e) -> int:
    if isinstance(e, (syntax.Lam, syntax.Fix)):
        return 1 + _count_binders(e.body)
    if isinstance(e, syntax.App):
        return _count_binders(e.fn) + _count_binders(e.arg)
    if isinstance(e, syntax.Choice):
        return _count_binders(e.left) + _count_binders(e.right)
    return 0


def acceptance_corpus(seed: int) -> list:
    """``(program id, term)`` pairs of the acceptance corpus for ``seed``."""
    ids = [i for i in range(ACCEPTANCE_N) if i not in EXCLUDED]
    terms = {i: harness.gen_typed_source(i, 5 + i % 26) for i in ids}
    if seed == 0:
        return [(i, terms[i]) for i in ids]
    return [(i, rename_binders(terms[i], random.Random(f"names-{seed}-{i}")))
            for i in ids]


def translate_corpus(seed: int) -> list:
    out = []
    g = seed * 1_000_003
    while len(out) < TRANSLATE_N:
        e = harness.gen_typed_source(g, TRANSLATE_SIZE)
        if syntax.size_of(e) >= TRANSLATE_MIN_NODES:
            out.append((g, e))
        g += 1
    return out


def _closed(e, seed=()):
    return syntax.name_subst(compiler.compile_expr(e, "al", seed), "al", ())


def check_bisim(e) -> list:
    """The checks of acceptance criteria 6 and 7 on one program."""
    m = _closed(e)
    return [
        harness.check_strong_bisim(compiler.pseudo_compile(e), m, depth=8),
        harness.check_weak_bisim_pseudo(e, depth=8, fuel=200),
        harness.end_to_end(e, fuel=200),
    ]


def check_typing(e) -> list:
    """The checks of acceptance criterion 5 on one program."""
    out = []
    for seed in COMPILE_SEEDS:
        m = _closed(e, seed)
        out.append(harness.check_subject_reduction(m, depth=8))
        out.append(harness.check_non_coordination(m, depth=8))
    return out


def check_translate(e) -> list:
    """The identities of acceptance criteria 4 and 10 on one program."""
    back = parser.parse("src", printer.format_expr(e))
    out = [syntax.alpha_eq(back, e)]
    ty = compiler.compile_type(source.src_typecheck(e))
    image = compiler.pseudo_compile(e)
    for seed in COMPILE_SEEDS:
        m = compiler.compile_expr(e, "al", seed)
        t, pnf = target.effect_typecheck(target.TargetEnv().push_name("al"), m)
        bound = effects.cat(effects.Lit(("al",) + seed),
                            effects.star(effects.alt(effects.Lit(("o",)),
                                                     effects.Lit(("b",)))))
        out.append(target.subtype(t, ty) and effects.includes(pnf.denote(), bound))
        out.append(syntax.alpha_eq(compiler.erase(m), image))
    return out


WORKLOADS = {
    "bisim": (acceptance_corpus, check_bisim, BISIM_CHECKS),
    "typing": (acceptance_corpus, check_typing, TYPING_CHECKS),
    "translate": (translate_corpus, check_translate, TRANSLATE_CHECKS),
}


def run_program(workload: str, e) -> tuple:
    """Verdicts of every check of one program, and the states they explored.

    An exception marks every check of the program ``ERROR``: the checks of
    one program share their compiled term, so the later ones cannot run.
    """
    _, check, names = WORKLOADS[workload]
    try:
        results = check(e)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed check
        return [ERROR] * len(names), 0, f"{type(exc).__name__}: {exc}"
    if workload == "translate":
        return [OK if r else MISMATCH for r in results], 0, None
    return [r.status for r in results], sum(r.explored for r in results), None
