"""Seed-threaded compilation, name erasure, and pseudo compilation."""

import pytest
from hypothesis import given, settings, strategies as st

from cochoice.effects import EMPTY, Lit, alt, cat, star, lang_eq
from cochoice.parser import parse
from cochoice.printer import format_expr, format_type
from cochoice.syntax import (
    NAT, Arrow, TNAT, TArrow, TForall,
    Var, App, Lam, Choice, Num, ADD,
    TVar, TApp, TChoice, TNameApp,
    alpha_eq, canon_key, subst_term, name_subst,
)
from cochoice.compiler import (
    ID_NAT, DUMMY_TY, BuiltinNotCompilable,
    compile_expr, compile_type, compile_env,
    erase, erase_type, pseudo_compile, pseudo_type, collect_choice_names, adm,
)
from cochoice.harness import gen_typed_source
from cochoice.source import explore, src_step_all


def src(text):
    return parse("src", text)


# ---------------------------------------------------------------- compile

def test_compile_application_threads_seed():
    m = compile_expr(App(Var("x"), Var("y")), "al", ())
    assert m == TNameApp(TApp(TVar("x"), TVar("y")), ("al", "b"))


def test_compile_choice_names_branch_point():
    m = compile_expr(Choice(Var("x"), Var("y")), "al", ("o",))
    assert m == TChoice(TVar("x"), ("al", "o", "b"), TVar("y"))


def test_compile_lambda_abstracts_fresh_name():
    m = compile_expr(src("\\x:nat. (1 || 2)"), "al", ())
    assert format_expr(m) == "\\x:nat. /\\g1. (1 ||{g1 b} 2)"


def test_compile_nested_choice_names():
    e = src("((1 || 2) || (3 || 4))")
    names = collect_choice_names(compile_expr(e, "al", ()))
    assert names[1] == ("al", "b")          # the root choice
    # sibling branches share the extended seed, so the two inner choices
    # carry the same name and stay coordinated
    assert names[0] == names[2] == ("al", "o", "b")


def test_compile_rejects_builtin():
    with pytest.raises(BuiltinNotCompilable):
        compile_expr(ADD)


def test_compile_type_examples():
    assert compile_type(NAT) == TNAT
    t = compile_type(Arrow(NAT, NAT))
    assert isinstance(t, TArrow) and t.latent == EMPTY
    body = t.res
    assert isinstance(body, TForall) and body.var == "a1"
    assert lang_eq(body.latent,
                   cat(Lit(("a1",)), star(alt(Lit(("o",)), Lit(("b",))))))
    assert format_type(t) == "nat -> all a1.{a1 (b + o)*} nat"


def test_compile_env():
    env = compile_env({"f": Arrow(NAT, NAT), "x": NAT})
    assert env.lookup("x") == TNAT
    assert env.lookup("f") == compile_type(Arrow(NAT, NAT))


# ---------------------------------------------------------------- erasure

def test_erase_examples():
    assert erase(TNameApp(TVar("x"), ("o",))) == App(Var("x"), ID_NAT)
    m = compile_expr(src("\\x:nat. x"), "al", ())
    lam = erase(m)
    assert isinstance(lam, Lam) and lam.ann == NAT
    assert isinstance(lam.body, Lam) and lam.body.ann == DUMMY_TY
    assert erase(TChoice(TVar("x"), ("al",), TVar("y"))) == \
        Choice(Var("x"), Var("y"))


def test_erase_type_examples():
    assert erase_type(TNAT) == NAT
    assert erase_type(TForall("a", EMPTY, TNAT)) == Arrow(DUMMY_TY, NAT)


def test_pseudo_examples():
    assert pseudo_compile(App(Var("x"), Var("y"))) == \
        App(App(Var("x"), Var("y")), ID_NAT)
    assert pseudo_type(Arrow(NAT, NAT)) == Arrow(NAT, Arrow(DUMMY_TY, NAT))


def test_adm_examples():
    dummy = Lam("y", DUMMY_TY, Var("x"))
    assert adm(App(dummy, ID_NAT), {}) == Var("x")
    # y is free in the body, so this is no administrative redex
    assert adm(App(Lam("y", DUMMY_TY, Var("y")), ID_NAT), {}) == \
        App(Lam("y", DUMMY_TY, Var("y")), ID_NAT)
    assert adm(App(Choice(dummy, Num(1)), ID_NAT), {}) == \
        Choice(Var("x"), App(Num(1), ID_NAT))
    assert adm(Lam("z", NAT, App(dummy, ID_NAT)), {}) == \
        Lam("z", NAT, Var("x"))
    assert adm(App(dummy, Num(0)), {}) == App(dummy, Num(0))


# -------------------------------------------------------------- properties

terms = st.builds(
    lambda seed, size: gen_typed_source(seed, size),
    st.integers(0, 10**6),
    st.integers(1, 16),
)
seeds = st.sampled_from([(), ("o",), ("b", "o"), ("o", "o", "b")])


@settings(max_examples=150, deadline=None)
@given(terms, seeds)
def test_erasure_coherence(e, seed):
    assert alpha_eq(erase(compile_expr(e, "al", seed)), pseudo_compile(e))


def _choice_name_well_nested(m, names_above):
    """Every choice name is a strict extension point: it never reappears
    inside the choice's own branches, and deeper names extend shallower
    seed paths."""
    from cochoice.syntax import (
        TApp, TChoice, TFix, TLam, TNameAbs, TNameApp,
    )
    if isinstance(m, TChoice):
        n = tuple(m.name)
        assert n not in names_above
        below = names_above | {n}
        _choice_name_well_nested(m.left, below)
        _choice_name_well_nested(m.right, below)
    elif isinstance(m, TApp):
        _choice_name_well_nested(m.fn, names_above)
        _choice_name_well_nested(m.arg, names_above)
    elif isinstance(m, (TLam, TFix, TNameAbs)):
        _choice_name_well_nested(m.body, names_above)
    elif isinstance(m, TNameApp):
        _choice_name_well_nested(m.fn, names_above)


@settings(max_examples=100, deadline=None)
@given(terms, seeds)
def test_choice_names_fresh_along_paths(e, seed):
    m = compile_expr(e, "al", seed)
    _choice_name_well_nested(m, set())
    for n in collect_choice_names(m):
        assert n[-1] == "b"  # every name ends at a branch marker


@settings(max_examples=100, deadline=None)
@given(terms, terms)
def test_pseudo_commutes_with_substitution(e1, e2):
    lhs = pseudo_compile(subst_term(e1, "x", e2))
    rhs = subst_term(pseudo_compile(e1), "x", pseudo_compile(e2))
    assert alpha_eq(lhs, rhs)


@settings(max_examples=100, deadline=None)
@given(terms)
def test_name_substitution_invisible_after_erasure(e):
    m = compile_expr(e, "al", ())
    assert alpha_eq(erase(name_subst(m, "al", ("o", "b"))), erase(m))


def _succ(t):
    return [s for _, s in src_step_all(t)]


@settings(max_examples=100, deadline=None)
@given(terms)
def test_pseudo_images_are_adm_normal_and_adm_is_idempotent(e):
    p = pseudo_compile(e)
    assert alpha_eq(adm(p, {}), p)
    memo = {}
    for q in explore(p, _succ, depth=4, limit=40).found.values():
        r = adm(q, {})
        assert alpha_eq(adm(r, {}), r)
        assert alpha_eq(adm(q, memo), r)  # a memo shared across terms


def test_pseudo_steps_are_administrative_or_match_a_source_step():
    # Pair each reachable pseudo term q with the source term a whose image
    # is adm(q).  A step of q stays in that class (an administrative step)
    # or lands in the class of the image of a source successor of a.
    for i in range(0, 300, 10):
        e = gen_typed_source(i, 5 + i % 26)
        memo = {}

        def step(pair):
            a, q = pair
            images = {canon_key(pseudo_compile(a2)): a2 for a2 in _succ(a)}
            out = []
            for q2 in _succ(q):
                k = canon_key(adm(q2, memo))
                if k == canon_key(pseudo_compile(a)):
                    out.append((a, q2))
                else:
                    assert k in images, (i, a, q, q2)
                    out.append((images[k], q2))
            return out

        explore((e, pseudo_compile(e)), step, limit=2000,
                key=lambda pair: (canon_key(pair[0]), canon_key(pair[1])))
