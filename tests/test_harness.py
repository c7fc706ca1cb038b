"""Verification harness: bisimulation checks, metatheory checks, the source
program generator, and end-to-end runs."""

import importlib
import pkgutil
import re

import pytest
from hypothesis import given, settings, strategies as st

import cochoice
from cochoice import cli, harness, source, target
from cochoice.compiler import compile_expr, pseudo_compile
from cochoice.harness import (
    OK, COUNTEREXAMPLE, FUEL_EXHAUSTED, PreconditionViolated,
    check_strong_bisim, check_weak_bisim_pseudo,
    check_subject_reduction, check_non_coordination,
    gen_typed_source, end_to_end,
)
from cochoice.parser import parse
from cochoice.source import src_typecheck
from cochoice.syntax import (
    NAT, Num, Var, Lam, App, Choice, SrcExpr, TgtExpr,
    TNum, TChoice, TNameAbs, TNameApp, TVar, TLam, TNAT,
    alpha_eq, canon_key, free_vars, name_subst, size_of,
)
from oracle import reference_non_coordination, reference_weak_bisim


def src(text):
    return parse("src", text)


def tgt(text):
    return parse("tgt", text)


def closed_compile(e, alpha="a"):
    return name_subst(compile_expr(e, alpha, ()), alpha, ())


def empty_memos(monkeypatch):
    """Swap the step memo for an empty one, so that no entry of an earlier
    run answers a step."""
    monkeypatch.setattr(source, "_STEPS", {})


# ----------------------------------------------------------------- bisim

def test_strong_bisim_ok_example():
    e = src("(\\x:nat. (x || 7)) (3 || 5)")
    rep = check_strong_bisim(pseudo_compile(e), closed_compile(e))
    assert rep.status == OK
    assert rep.explored > 0


def test_strong_bisim_precondition_erasure():
    with pytest.raises(PreconditionViolated):
        check_strong_bisim(Num(1), TNum(2))


def test_strong_bisim_precondition_typing():
    # erases correctly but reuses a choice name, so it is untyped
    m = tgt("((1 ||{o} 2) ||{o} 3)")
    e = Choice(Choice(Num(1), Num(2)), Num(3))
    with pytest.raises(PreconditionViolated):
        check_strong_bisim(e, m)


def test_weak_bisim_ok_examples():
    for text in ["(1 || 2)",
                 "(\\x:nat. x) (1 || 2)",
                 "(\\f:nat->nat. f 3) (\\x:nat. (x || 9))"]:
        rep = check_weak_bisim_pseudo(src(text))
        assert rep.status == OK, text


def test_weak_bisim_precondition():
    with pytest.raises(PreconditionViolated):
        check_weak_bisim_pseudo(Var("x"))


@pytest.mark.parametrize("check", [check_weak_bisim_pseudo, end_to_end])
def test_a_builtin_program_fails_the_precondition(check):
    # typed, but the compiler refuses the builtin
    e = src("(\\x:nat. add x 1) (3 || 5)")
    src_typecheck(e)
    with pytest.raises(PreconditionViolated, match="does not compile"):
        check(e)


def test_weak_bisim_agrees_with_reference():
    # every acceptance program but 250, which alone takes seconds in the
    # reference: where the bounded matching runs certify the bisimulation,
    # the check modulo administrative steps certifies it too
    for i in range(300):
        if i == 250:
            continue
        e = gen_typed_source(i, 5 + i % 26)
        rep = check_weak_bisim_pseudo(e)
        assert rep.status != COUNTEREXAMPLE, (i, rep.witness)
        if reference_weak_bisim(e).status == OK:
            assert rep.status == OK, i


def test_weak_bisim_fuel_bounds_each_closure():
    # the distributed application steps once more inside its adm class, so
    # a one-state closure search leaves that member unexpanded
    rep = check_weak_bisim_pseudo(src("(\\x:nat. x) (1 || 2)"), fuel=1)
    assert (rep.status, rep.cause) == (FUEL_EXHAUSTED, "states")


def test_weak_bisim_divergent_cyclic_space_closes():
    # the divergent demo loops through finitely many states, so the pair
    # exploration closes and certifies the bisimulation
    rep = check_weak_bisim_pseudo(src("(fix f:nat->nat. \\x:nat. f x) 0"),
                                  depth=6, fuel=100)
    assert rep.status == OK


# --------------------------------------------------- metatheory checks

def test_subject_reduction_ok():
    e = src("(\\x:nat. (x || 0)) (3 || 5)")
    rep = check_subject_reduction(closed_compile(e))
    assert rep.status == OK


def test_subject_reduction_precondition():
    with pytest.raises(PreconditionViolated):
        check_subject_reduction(tgt("1 2"))


def test_non_coordination_ok():
    e = src("((1 || 2) || (3 || 4))")
    rep = check_non_coordination(closed_compile(e))
    assert rep.status == OK


def test_non_coordination_negative_control():
    # an ill-typed reuse of one name does coordinate, and the check
    # refuses to certify it
    m = tgt("((1 ||{o} 2) ||{o} (3 ||{o} 4))")
    with pytest.raises(PreconditionViolated):
        check_non_coordination(m)
    # dropping the typing gate would expose the collapse: under the empty
    # world the left branch of the outer choice steps by coordination
    from cochoice.target import tgt_step_all, tgt_step_nc
    from cochoice.syntax import canon_key
    coord = {canon_key(s) for s in tgt_step_all(m, frozenset())}
    nc = {canon_key(s) for s in tgt_step_nc(m)}
    assert not coord <= nc or coord == nc == set()
    assert coord - nc  # genuine coordination happened


@pytest.mark.parametrize("seed", [(), ("o",), ("b", "o")],
                         ids=["eps", "o", "b.o"])
def test_non_coordination_agrees_with_reference(seed):
    # the check decides as the unmemoized reference relations do
    for i in range(300):
        m = name_subst(compile_expr(gen_typed_source(i, 5 + i % 26), "a", seed),
                       "a", ())
        rep, ref = check_non_coordination(m), reference_non_coordination(m)
        assert (rep.status, rep.explored) == (ref.status, ref.explored), i


# ------------------------------------------------------ negative controls
#
# Each case plants a fault into ``target.tgt_step_trace``, which every
# target relation steps by, or into the harness namespace, and checks that
# the check it targets reports it on a program the check passes unmutated.
# The step memo is swapped for an empty one, so that the mutated run does
# not start from entries of the unmutated one.

def _drop_last_successor(real):
    return lambda t, world=frozenset(): real(t, world)[:-1]


def _add_self_loop(real):
    return lambda t, world=frozenset(): real(t, world) + [("TR-Loop", t)]


def _skip_a_step(real):
    # an extra move two steps ahead: it reaches no new normal form
    def mutant(t, world=frozenset()):
        out = real(t, world)
        return out + [("TR-Skip", s2) for _, s in out[:1]
                      for _, s2 in real(s, world)[:1]]
    return mutant


def _step_to_untyped(real):
    return lambda t, world=frozenset(): \
        [("TR-Beta", tgt("1 2"))] if real(t, world) else []


def _collapse_root_choice(real):
    # TR-WorldL at a root choice, as if its name were in the empty world
    def mutant(t, world=frozenset()):
        out = real(t, world)
        return out + [("TR-WorldL", t.left)] if isinstance(t, TChoice) else out
    return mutant


def _shift_numbers(e):
    if isinstance(e, Num):
        return Num(e.value + 1)
    if isinstance(e, Choice):
        return Choice(_shift_numbers(e.left), _shift_numbers(e.right))
    return e


def _renumber(real):
    # erasure that adds one to every number of a choice tree of answers
    return lambda m: _shift_numbers(real(m))


def _swap_choice(real):
    def mutant(e):
        p = real(e)
        return Choice(p.right, p.left) if isinstance(p, Choice) else p
    return mutant


def _drop_dummy(real):
    def mutant(e):
        p = real(e)
        return p.fn if isinstance(e, App) else p
    return mutant


DEMO = "(\\x:nat. (x || 7)) (3 || 5)"


@pytest.mark.parametrize("fault, mutate, check, text, status, cause", [
    ((target, "tgt_step_trace"), _drop_last_successor,
     lambda e: check_strong_bisim(pseudo_compile(e), closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ((target, "tgt_step_trace"), _add_self_loop,
     lambda e: check_strong_bisim(pseudo_compile(e), closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ((target, "tgt_step_trace"), _step_to_untyped,
     lambda e: check_subject_reduction(closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ((target, "tgt_step_trace"), _collapse_root_choice,
     lambda e: check_non_coordination(closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ((harness, "erase"), _renumber, end_to_end, DEMO, COUNTEREXAMPLE, None),
    ((target, "tgt_step_trace"), _skip_a_step, end_to_end,
     DEMO, COUNTEREXAMPLE, None),
    ((harness, "pseudo_compile"), _swap_choice, check_weak_bisim_pseudo,
     "(\\x:nat. x) (1 || 2)", COUNTEREXAMPLE, None),
    ((harness, "pseudo_compile"), _drop_dummy, check_weak_bisim_pseudo,
     "(\\x:nat. x) (1 || 2)", COUNTEREXAMPLE, None),
    ((harness, "pseudo_compile"), _drop_dummy, end_to_end,
     "(\\x:nat. x) (1 || 2)", COUNTEREXAMPLE, None),
], ids=["strong_bisim", "strong_bisim_extra_step", "subject_reduction",
        "non_coordination", "end_to_end", "end_to_end_strong", "weak_bisim",
        "weak_bisim_dummy", "end_to_end_dummy"])
def test_negative_control(monkeypatch, fault, mutate, check, text, status,
                          cause):
    e = src(text)
    assert check(e).status == OK
    module, name = fault
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    empty_memos(monkeypatch)
    rep = check(e)
    assert (rep.status, rep.cause) == (status, cause)
    if mutate is _step_to_untyped:
        assert rep.witness[1].startswith("untyped")
    if mutate is _collapse_root_choice:
        t, s = rep.witness
        assert isinstance(t, TChoice) and s is t.left
    if mutate is _renumber:
        # the normal forms compared: (only_src, only_tgt)
        only_src, only_tgt = rep.witness
        assert only_src and only_tgt
    if mutate is _skip_a_step:
        # the normal forms agree, and the strong bisimulation sees the move
        assert rep.witness[0] == "strong"
    if check is end_to_end and mutate is _drop_dummy:
        # the compiled term no longer erases to the faulty pseudo image
        assert rep.witness == ("strong", "target term does not erase to the "
                                         "source term")


class CountingMemo(dict):
    """A step memo that counts its lookups and the ones that miss."""

    lookups = misses = 0

    def pop(self, key, default=None):
        self.lookups += 1
        self.misses += key not in self
        return super().pop(key, default)


def test_each_state_is_stepped_once(monkeypatch):
    # subject reduction steps each state; non-coordination after it asks
    # the step memo for every state's coordinated and non-coordinated
    # steps, and every lookup hits: it builds no successor
    memo = CountingMemo()
    monkeypatch.setattr(source, "_STEPS", memo)
    for text in [DEMO, "((1 || 2) || (3 || 4))"]:
        m = closed_compile(src(text))
        memo.lookups = memo.misses = 0
        check_subject_reduction(m)
        assert memo.misses > 0
        memo.lookups = memo.misses = 0
        nc = check_non_coordination(m)
        assert nc.status == OK
        assert 0 < memo.lookups <= 2 * nc.explored and memo.misses == 0
    assert len(memo) < source._STEP_CACHE_SIZE  # nothing was evicted


def test_checks_step_by_the_public_relations(monkeypatch):
    # The checks step only inside calls of the calculi's relations by their
    # public names, where a tracer that wraps those names (bench/tracer.py)
    # sees every step they take.
    calls = dict.fromkeys(["src_step_all", "src_eval", "tgt_step_all",
                           "tgt_step_nc", "tgt_eval"], 0)
    inside, outside = [0], []  # open public calls; steps taken outside them
    for name in calls:
        real = getattr(harness, name)
        assert real is getattr(source if name.startswith("src") else target,
                               name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            inside[0] += 1
            try:
                return _real(*args, **kwargs)
            finally:
                inside[0] -= 1
        monkeypatch.setattr(harness, name, counted)
    def step(*args, _real=source._step):
        if not inside[0]:
            outside.append(args[0])
        return _real(*args)
    monkeypatch.setattr(source, "_step", step)
    e = src(DEMO)
    m = closed_compile(e)
    check_subject_reduction(m)
    check_non_coordination(m)
    check_strong_bisim(pseudo_compile(e), m)
    check_weak_bisim_pseudo(e)
    end_to_end(e)
    assert all(calls.values()), calls
    assert outside == []


def test_suite_reports_a_faulty_pseudo_compilation(monkeypatch, capsys):
    """With ``pseudo_compile`` faulty, every check the suite runs ends in a
    status line, not a traceback: a violated precondition is a FAIL.  Every
    line counts the states explored, and a witness prints its terms in
    concrete syntax."""
    for module in (harness, cli):
        monkeypatch.setattr(module, "pseudo_compile",
                            _drop_dummy(module.pseudo_compile))
    empty_memos(monkeypatch)
    code = cli.main(["suite", "--n", "3", "--seed", "0", "--size", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 15
    assert all(re.search(r" status=\w+ explored=\d+", line) for line in lines)
    assert any("check=strong-bisim status=FAIL explored=0 precondition=" in line
               for line in lines)
    assert any("check=end-to-end status=FAIL explored=" in line
               and "witness=('strong', 'target term does not erase" in line
               for line in lines)
    weak = [line.split(" witness=")[1] for line in lines
            if "check=weak-bisim status=FAIL" in line]
    # ((source, pseudo), ('src', source successor)), with no field names
    assert weak and all(w.startswith("((") and ", ('src', " in w
                        and "=" not in w for w in weak)


# ------------------------------------------------------------- generator

def test_generator_deterministic():
    assert gen_typed_source(42, 18) == gen_typed_source(42, 18)
    assert gen_typed_source(1, 18) != gen_typed_source(2, 18)


def test_generator_output_is_closed_typed_and_bounded():
    for i in range(60):
        size = 5 + i % 26
        e = gen_typed_source(i, size)
        assert free_vars(e) == frozenset()
        src_typecheck(e)
        assert size_of(e) <= size


# ------------------------------------------------------------ end to end

def test_end_to_end_examples():
    for text in ["(1 || 2)",
                 "(\\x:nat. x) (1 || 2)",
                 "((1 || 2) || 3)"]:
        rep = end_to_end(src(text))
        assert rep.status == OK, text


def test_end_to_end_divergent():
    rep = end_to_end(src("(fix f:nat->nat. \\x:nat. f x) 0"), fuel=100)
    assert rep.status == FUEL_EXHAUSTED
    assert rep.cause == "cycle"
    assert rep.explored > 0


def test_end_to_end_reports_an_undecided_sub_check(monkeypatch):
    # OK only when both bisimulation checks decide: a sub-check that runs
    # out makes end_to_end FuelExhausted, naming the sub-check
    e = src(DEMO)
    assert end_to_end(e).status == OK
    monkeypatch.setattr(harness, "_MAX_PAIRS", 1)
    rep = end_to_end(e)
    assert (rep.status, rep.witness, rep.cause) == (FUEL_EXHAUSTED, "strong",
                                                    "states")
    monkeypatch.setattr(harness, "_MAX_PAIRS", 3000)
    weak = harness.check_weak_bisim_pseudo
    monkeypatch.setattr(harness, "check_weak_bisim_pseudo",
                        lambda e, depth, fuel: weak(e, depth, fuel=1))
    rep = end_to_end(e)
    assert (rep.status, rep.witness, rep.cause) == (FUEL_EXHAUSTED, "weak",
                                                    "states")
    assert rep.explored > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 14))
def test_end_to_end_never_counterexamples(seed, size):
    rep = end_to_end(gen_typed_source(seed, size))
    assert rep.status != COUNTEREXAMPLE


# ---------------------------------------------------------------- memory

# The intern tables map structure to ids that stay in the nodes (``_key``,
# ``_hash``) and are never reissued: dropping an entry would give an equal
# node built later a second id. They are the only tables allowed to grow.
INTERN_TABLES = {"syntax._IDS", "syntax._NODES", "syntax._TERMS",
                 "syntax._NAMES", "node._IDS"}


def _modules():
    return {info.name: importlib.import_module(f"cochoice.{info.name}")
            for info in pkgutil.iter_modules(cochoice.__path__)}


def _tables():
    return {f"{name}.{attr}": value
            for name, mod in _modules().items()
            for attr, value in vars(mod).items()
            if type(value) in (dict, list, set)}


def test_every_cache_is_bounded(monkeypatch):
    lru = {f"{name}.{attr}": value.cache_parameters()["maxsize"]
           for name, mod in _modules().items()
           for attr, value in vars(mod).items()
           if hasattr(value, "cache_parameters")  # a functools LRU wrapper
           and value.__module__ == mod.__name__}
    assert "effects.deriv" in lru and "compiler.erase" in lru
    assert [name for name, size in lru.items() if size is None] == []

    # The step memo is an LRU table: run checks over more distinct terms
    # of both calculi than its bound, with the bound made small, and it
    # never holds more.
    bound, default = 32, source._STEP_CACHE_SIZE
    assert default == 1024
    monkeypatch.setattr(source, "_STEP_CACHE_SIZE", bound)
    empty_memos(monkeypatch)
    sizes = {name: len(t) for name, t in _tables().items()}
    real_step = source._step
    keys = set()  # the memo keys met

    def bounded_step(*args):
        out = real_step(*args)
        assert len(source._STEPS) <= bound
        if source._STEPS:
            keys.add(next(reversed(source._STEPS)))
        return out

    monkeypatch.setattr(source, "_step", bounded_step)
    programs = [gen_typed_source(i, 5 + i % 26) for i in range(40, 60)]
    bounded = [end_to_end(e) for e in programs]
    for calculus in (SrcExpr, TgtExpr):
        assert sum(isinstance(t, calculus) for t, _ in keys) > 4 * bound
    assert len(source._STEPS) == bound

    grown = {name for name, t in _tables().items() if len(t) > sizes[name]}
    assert grown <= INTERN_TABLES | {"source._STEPS"}

    # the bound changes no verdict
    monkeypatch.setattr(source, "_step", real_step)
    monkeypatch.setattr(source, "_STEP_CACHE_SIZE", default)
    empty_memos(monkeypatch)
    assert [end_to_end(e) for e in programs] == bounded


def test_each_subterm_is_stepped_once(monkeypatch):
    # A state's successors are built from its subterms' successors, which
    # the step memo returns for every subterm stepped before: stepping a
    # successor recurses only along the spine that its step changed.  The
    # recursive calls of the step function, counted per calculus over the
    # checks of the bisim benchmark workload on acceptance programs 0-39
    # from an empty memo, repeat exactly.  A state that a check meets again
    # is an outer call answered from the memo.  Without the memo the same
    # run makes 31,692 and 14,891 recursive calls, for the same 3,562 and
    # 1,713 outer calls.
    empty_memos(monkeypatch)
    counts = {SrcExpr: [0, 0], TgtExpr: [0, 0]}  # outer, inner calls
    depth = [0]
    real = source._step

    def step(m, world):
        counts[TgtExpr if isinstance(m, TgtExpr) else SrcExpr][
            depth[0] > 0] += 1
        depth[0] += 1
        try:
            return real(m, world)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(source, "_step", step)
    for i in range(40):
        e = gen_typed_source(i, 5 + i % 26)
        check_strong_bisim(pseudo_compile(e), closed_compile(e, "al"), depth=8)
        check_weak_bisim_pseudo(e, depth=8, fuel=200)
        end_to_end(e, fuel=200)
    assert counts[SrcExpr] == [3562, 3926]
    assert counts[TgtExpr] == [1713, 2821]
