"""Source calculus: typing, non-collapse stepping, and evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from cochoice import source
from cochoice.parser import parse
from cochoice.printer import format_expr
from cochoice.source import (
    src_typecheck, src_step_all, src_eval, choice_leaves, explore, bfs_eval,
    Stop, UnboundVariable, TypeMismatch, NonFunctionApplication,
    FixBodyNotLambda,
)
from cochoice.syntax import (
    NAT, Arrow, Var, App, Lam, Fix, Choice, Num, ADD, alpha_eq,
)
from cochoice.harness import gen_typed_source
from oracle import reference_src_step


def src(text):
    return parse("src", text)


def nums(result):
    return sorted(n.value for n in result.normal_forms)


# ---------------------------------------------------------------- typing

def test_typecheck_examples():
    assert src_typecheck(Num(3)) == NAT
    assert src_typecheck(Lam("x", NAT, Var("x"))) == Arrow(NAT, NAT)
    assert src_typecheck(App(App(ADD, Num(1)), Num(2))) == NAT
    assert src_typecheck(Choice(Num(1), Num(2))) == NAT
    assert src_typecheck(src("fix f:nat->nat. \\x:nat. f x")) == Arrow(NAT, NAT)


def test_typecheck_rejections():
    with pytest.raises(UnboundVariable):
        src_typecheck(Var("x"))
    with pytest.raises(TypeMismatch):
        src_typecheck(App(Lam("x", NAT, Var("x")), Lam("y", NAT, Var("y"))))
    with pytest.raises(TypeMismatch):
        src_typecheck(Choice(Num(1), Lam("x", NAT, Var("x"))))
    with pytest.raises(NonFunctionApplication):
        src_typecheck(App(Num(1), Num(2)))
    with pytest.raises(FixBodyNotLambda):
        src_typecheck(Fix("f", Arrow(NAT, NAT), Var("f")))


# --------------------------------------------------------------- stepping

def test_beta_step():
    e = App(Lam("x", NAT, Var("x")), Num(7))
    assert [(r, t) for r, t in src_step_all(e)] == [("SR-Beta", Num(7))]


def test_choice_does_not_collapse():
    # arguments distribute over choices instead of picking a branch
    e = App(Lam("x", NAT, Var("x")), Choice(Num(1), Num(2)))
    succs = {format_expr(t) for _, t in src_step_all(e)}
    assert succs == {"((\\x:nat. x) 1 || (\\x:nat. x) 2)"}


def test_function_choice_distributes():
    e = App(Choice(Lam("x", NAT, Var("x")), Lam("x", NAT, Num(9))), Num(1))
    rules = {r for r, _ in src_step_all(e)}
    assert "SR-DistAppL" in rules


def test_branches_step_independently():
    e = Choice(App(Lam("x", NAT, Var("x")), Num(1)), Num(2))
    assert [(r, format_expr(t)) for r, t in src_step_all(e)] == [
        ("SR-ChoiceL/SR-Beta", "(1 || 2)")
    ]


def test_rule_paths_name_every_rule():
    # the path runs from the root rule down to the redex
    e = Choice(Num(0), App(Lam("x", NAT, Var("x")),
                           App(Choice(Lam("y", NAT, Var("y")),
                                      Lam("y", NAT, Num(9))), Num(1))))
    assert [(r, format_expr(t)) for r, t in src_step_all(e)] == [
        ("SR-ChoiceR/SR-AppR/SR-DistAppL",
         "(0 || (\\x:nat. x) ((\\y:nat. y) 1 || (\\y:nat. 9) 1))")
    ]


def test_add_delta_rule():
    e = App(App(ADD, Num(2)), Num(3))
    assert [(r, t) for r, t in src_step_all(e)] == [("SR-Add", Num(5))]


def test_memoized_steps_agree_with_reference(monkeypatch):
    # every state within three steps of the first 60 acceptance programs,
    # stepped first from an empty memo and then from the one it filled
    monkeypatch.setattr(source, "_STEPS", {})
    checked = 0
    for i in range(60):
        found = explore(gen_typed_source(i, 5 + i % 26),
                        lambda t: [s for _, s in src_step_all(t)], depth=3).found
        for t in found.values():
            assert src_step_all(t) == reference_src_step(t), i
            checked += 1
    assert checked > 150  # 199 states, 60 of them the programs


def test_step_memo_is_not_poisoned():
    e = src("((\\x:nat. x) 1 || (\\y:nat. y) (2 || 3))")
    first = src_step_all(e)
    assert len(first) == 2
    first.append(("SR-Bogus", e))
    assert src_step_all(e) == first[:2]
    src_step_all(e).clear()
    assert src_step_all(e) == first[:2] == reference_src_step(e)


def deep_tree():
    t = src("(\\x:nat. x) 1")
    for i in range(900):
        t = Choice(t, Num(i))
    return t


def test_deep_choice_tree_steps():
    # one frame per level: a 900-deep choice tree steps at its leaf redex,
    # and an equal tree built apart is answered from the memo
    ((path, s),) = src_step_all(deep_tree())
    assert path == "SR-ChoiceL/" * 900 + "SR-Beta"
    assert src_step_all(deep_tree()) == [(path, s)]
    for _ in range(900):
        s = s.left
    assert s == Num(1)


# --------------------------------------------------------------- evaluation

def test_eval_demo_leaves():
    e = src("(\\x:nat. (add x 1 || add x 3)) (3 || 5)")
    res = src_eval(e)
    assert not res.exhausted and not res.stuck
    assert len(res.normal_forms) == 1
    leaves = sorted(n.value for n in choice_leaves(res.normal_forms[0]))
    assert leaves == [4, 6, 6, 8]


def test_eval_shared_argument_demo():
    # the two occurrences of the bound variable share the same choice
    e = src("(\\x:nat. add x x) (1 || 2)")
    res = src_eval(e)
    leaves = sorted(n.value for n in choice_leaves(res.normal_forms[0]))
    assert leaves == [2, 4]


def test_divergent_term_exhausts():
    e = src("(fix f:nat->nat. \\x:nat. f x) 0")
    res = src_eval(e, fuel=200)
    assert res.exhausted
    assert res.normal_forms == []


def test_stuck_term_reported():
    res = src_eval(App(Num(1), Num(2)))
    assert res.stuck


# -------------------------------------------------------------- explorer

def ident(s):
    return s


def chain(n):
    """Successors of the path 0 -> 1 -> ... -> n-1."""
    return lambda s: [s + 1] if s + 1 < n else []


def test_explore_does_not_expand_states_at_depth():
    search = explore(0, lambda s: [s + 1], depth=2, key=ident)
    assert list(search.found) == [0, 1, 2]
    assert search.expanded == 2
    assert search.cause == "depth"
    closed = explore(0, chain(3), depth=3, key=ident)
    assert closed.expanded == 3 and closed.cause is None


def test_explore_expands_at_most_limit_states():
    closed = explore(0, chain(5), limit=5, key=ident)
    assert closed.expanded == 5 and closed.cause is None
    cut = explore(0, chain(6), limit=5, key=ident)
    assert cut.expanded == 5 and cut.cause == "states"
    assert list(cut.found) == [0, 1, 2, 3, 4, 5]


def test_explore_finds_each_state_once():
    # a diamond 0 -> {1, 2} -> 3: state 3 is found twice, expanded once
    succ = {0: [1, 2], 1: [3], 2: [3], 3: []}
    search = explore(0, succ.__getitem__, key=ident)
    assert list(search.found) == [0, 1, 2, 3]
    assert search.expanded == 4 and search.cause is None


def test_explore_stops_with_a_verdict():
    def step(s):
        if s == 2:
            raise Stop("two")
        return [s + 1]

    search = explore(0, step, key=ident)
    assert search.verdict == "two"
    assert search.expanded == 3 and search.cause is None


def test_bfs_eval_reports_a_cycle(monkeypatch):
    monkeypatch.setattr(source, "canon_key", ident)
    res = bfs_eval(0, lambda s: [(s + 1) % 3], fuel=100)
    assert res.exhausted and res.cause == "cycle"
    assert res.explored == 3 and res.normal_forms == []
    acyclic = bfs_eval(0, chain(3), fuel=100)
    assert not acyclic.exhausted and acyclic.normal_forms == [2]
    cut = bfs_eval(0, chain(3), fuel=2)
    assert cut.cause == "states" and cut.explored == 2


# --------------------------------------------------------------- properties

terms = st.builds(
    lambda seed, size: gen_typed_source(seed, size),
    st.integers(0, 10**6),
    st.integers(1, 16),
)


@settings(max_examples=150, deadline=None)
@given(terms)
def test_source_subject_reduction(e):
    ty = src_typecheck(e)
    for _, e2 in src_step_all(e):
        assert src_typecheck(e2) == ty


@settings(max_examples=100, deadline=None)
@given(terms)
def test_values_do_not_step(e):
    res = src_eval(e, fuel=300)
    for nf in res.normal_forms:
        assert src_step_all(nf) == []


@settings(max_examples=100, deadline=None)
@given(terms)
def test_print_parse_round_trip(e):
    assert alpha_eq(src(format_expr(e)), e)
