"""Verification harness: bisimulation checks, metatheory checks, the source
program generator, and end-to-end runs."""

import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import cochoice
from cochoice import harness
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
    NAT, Num, Var, Lam, App, Choice,
    TNum, TChoice, TNameAbs, TNameApp, TVar, TLam, TNAT,
    alpha_eq, canon_key, free_vars, name_subst, size_of,
)
from oracle import reference_weak_bisim


def src(text):
    return parse("src", text)


def tgt(text):
    return parse("tgt", text)


def closed_compile(e, alpha="a"):
    return name_subst(compile_expr(e, alpha, ()), alpha, ())


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


# ------------------------------------------------------ negative controls
#
# Each case plants a fault into the harness namespace and checks that the
# check it targets reports it on a program the check passes unmutated.  The
# successor memo is swapped for an empty one: a memo warmed by the unmutated
# run would answer with the correct successors and hide the fault.

def _drop_last_successor(real):
    return lambda t, world: real(t, world)[:-1]


def _add_self_loop(real):
    return lambda t, world: real(t, world) + [t]


def _step_to_untyped(real):
    return lambda t, world: [tgt("1 2")] if real(t, world) else []


def _no_steps(real):
    return lambda t: []


def _drop_normal_form(real):
    def mutant(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, normal_forms=res.normal_forms[:-1])
    return mutant


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
    ("tgt_step_all", _drop_last_successor,
     lambda e: check_strong_bisim(pseudo_compile(e), closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ("tgt_step_all", _add_self_loop,
     lambda e: check_strong_bisim(pseudo_compile(e), closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ("tgt_step_all", _step_to_untyped,
     lambda e: check_subject_reduction(closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ("tgt_step_nc", _no_steps,
     lambda e: check_non_coordination(closed_compile(e)),
     DEMO, COUNTEREXAMPLE, None),
    ("tgt_eval", _drop_normal_form, end_to_end, DEMO, COUNTEREXAMPLE, None),
    ("pseudo_compile", _swap_choice, check_weak_bisim_pseudo,
     "(\\x:nat. x) (1 || 2)", COUNTEREXAMPLE, None),
    ("pseudo_compile", _drop_dummy, check_weak_bisim_pseudo,
     "(\\x:nat. x) (1 || 2)", COUNTEREXAMPLE, None),
], ids=["strong_bisim", "strong_bisim_extra_step", "subject_reduction",
        "non_coordination", "end_to_end", "weak_bisim", "weak_bisim_dummy"])
def test_negative_control(monkeypatch, fault, mutate, check, text, status,
                          cause):
    e = src(text)
    assert check(e).status == OK
    monkeypatch.setattr(harness, fault, mutate(getattr(harness, fault)))
    monkeypatch.setattr(harness, "_SUCC", {})
    rep = check(e)
    assert (rep.status, rep.cause) == (status, cause)
    if mutate is _step_to_untyped:
        assert rep.witness[1].startswith("untyped")


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 14))
def test_end_to_end_never_counterexamples(seed, size):
    rep = end_to_end(gen_typed_source(seed, size))
    assert rep.status != COUNTEREXAMPLE


# ---------------------------------------------------------------- memory

# The intern tables map structure to ids that stay in the nodes (``_key``,
# ``_hash``) and are never reissued: dropping an entry would give an equal
# node built later a second id. They are the only tables allowed to grow.
INTERN_TABLES = {"syntax._IDS", "syntax._NODES", "syntax._FREE", "node._IDS"}


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

    # _SUCC is an LRU table: run checks over more distinct states than its
    # bound, with the bound made small, and it never holds more.
    bound, default = 32, harness._CACHE_SIZE
    monkeypatch.setattr(harness, "_CACHE_SIZE", bound)
    monkeypatch.setattr(harness, "_SUCC", {})
    sizes = {name: len(t) for name, t in _tables().items()}
    seen, real = set(), harness._succ

    def succ(t):
        seen.add(canon_key(t))
        out = real(t)
        assert len(harness._SUCC) <= bound
        assert next(reversed(harness._SUCC)) == canon_key(t)  # last used
        return out

    monkeypatch.setattr(harness, "_succ", succ)
    programs = [gen_typed_source(i, 5 + i % 26) for i in range(40, 60)]
    bounded = [end_to_end(e) for e in programs]
    assert len(seen) > 4 * bound
    assert len(harness._SUCC) == bound

    grown = {name for name, t in _tables().items() if len(t) > sizes[name]}
    assert grown <= INTERN_TABLES | {"harness._SUCC"}

    # the bound changes no verdict
    monkeypatch.setattr(harness, "_succ", real)
    monkeypatch.setattr(harness, "_CACHE_SIZE", default)
    monkeypatch.setattr(harness, "_SUCC", {})
    assert [end_to_end(e) for e in programs] == bounded
