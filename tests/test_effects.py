"""Effect languages: smart constructors, derivatives, and the decision
procedures, cross-checked against brute-force enumeration."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from cochoice import effects as eff, node
from cochoice.effects import (
    EMPTY, EPS_EFF, Alt, Cat, Lit, Star, alt, cat, star, lit,
    nullable, deriv, member, includes, disjoint, lang_eq,
    inclusion_witness, overlap_witness, is_empty_lang, first_atoms,
    effect_subst, effect_vars, is_closed,
    quotient_word, CoverageError,
)
from cochoice import target
from cochoice.compiler import compile_expr
from cochoice.harness import gen_typed_source
from cochoice.target import (
    NonClosedResidual, TargetEnv, effect_pnf, effect_typecheck,
)
from oracle import (
    lang_upto, match_word, random_effect, reference_is_empty, reference_pnf,
)

O = Lit(("o",))
B = Lit(("b",))
AL = Lit(("al",))


# ---------------------------------------------------------------- units

def test_smart_constructor_identities():
    assert cat(EMPTY, O) == EMPTY
    assert cat(O, EMPTY) == EMPTY
    assert cat(EPS_EFF, O) == O
    assert cat(O, EPS_EFF) == O
    assert cat(O, B) == Lit(("o", "b"))
    assert alt() == EMPTY
    assert alt(O) == O
    assert alt(O, EMPTY, O) == O
    assert alt(O, B) == alt(B, O)
    assert star(EMPTY) == EPS_EFF
    assert star(EPS_EFF) == EPS_EFF
    assert star(star(O)) == star(O)


def test_lit_normalizes():
    assert lit("o") == O
    assert lit(("o", ("b",))) == Lit(("o", "b"))


def test_nullable():
    assert nullable(EPS_EFF)
    assert not nullable(O)
    assert nullable(star(O))
    assert nullable(cat(star(O), star(B)))
    assert not nullable(cat(O, star(B)))


def test_deriv_examples():
    assert deriv(O, "o") == EPS_EFF
    assert deriv(O, "b") == EMPTY
    assert deriv(star(O), "o") == star(O)
    # d/do (o b)* = b (o b)*
    assert lang_eq(deriv(star(cat(O, B)), "o"), cat(B, star(cat(O, B))))


def test_member_examples():
    e = cat(O, star(alt(O, B)))
    assert member(("o",), e)
    assert member(("o", "b", "b"), e)
    assert not member((), e)
    assert not member(("b", "o"), e)


def test_includes_and_disjoint_examples():
    assert includes(O, alt(O, B))
    assert not includes(alt(O, B), O)
    assert inclusion_witness(alt(O, B), O) == ("b",)
    assert includes(cat(O, O), cat(O, star(O)))
    assert disjoint(cat(O, star(O)), cat(B, star(B)))
    assert not disjoint(star(O), star(B))  # both contain eps
    assert overlap_witness(star(O), star(B)) == ()


def test_lang_eq_regex_identities():
    # (o + b)* = (o* b*)*
    assert lang_eq(star(alt(O, B)), star(cat(star(O), star(B))))
    # o (b o)* = (o b)* o
    assert lang_eq(cat(O, star(cat(B, O))), cat(star(cat(O, B)), O))
    assert not lang_eq(star(O), star(alt(O, B)))


def test_is_empty_lang():
    assert is_empty_lang(EMPTY)
    assert is_empty_lang(cat(O, EMPTY))
    assert not is_empty_lang(star(EMPTY))  # contains eps


def test_effect_caches_are_bounded():
    for cached in (includes, overlap_witness, first_atoms, nullable, deriv,
                   eff.alphabet, effect_pnf):
        assert cached.cache_info().maxsize is not None
    assert not hasattr(is_empty_lang, "cache_info")


def test_effect_shapes_are_not_tracked_by_the_gc():
    """The id table's shapes hold no class object, so collections untrack
    them (a word tuple in one pass, the shape holding it in the next) and
    later full collections skip them."""
    e = alt(cat(O, star(B)), Lit(("a", "o")), star(alt(O, EPS_EFF)))
    assert e == alt(star(alt(O, EPS_EFF)), Lit(("a", "o")), cat(O, star(B)))
    gc.collect()
    gc.collect()
    assert not any(gc.is_tracked(shape) for shape in node._IDS)


def assert_agrees_with_derivative_search(e):
    """Emptiness, first atoms and the prefix normal form, all found from
    structure, equal those found by searching derivatives."""
    assert is_empty_lang(e) == reference_is_empty(e)
    assert first_atoms(e) == {a for a in eff.alphabet(e)
                              if not reference_is_empty(deriv(e, a))}
    try:
        want = reference_pnf(e)
    except NonClosedResidual as exc:
        with pytest.raises(NonClosedResidual) as got:
            effect_pnf(e)
        assert str(got.value) == str(exc)
    else:
        assert effect_pnf(e) == want


def test_structure_agrees_with_derivatives_on_unreduced_effects():
    # built without the smart constructors, so empty parts survive
    for e in [Cat(EMPTY, O), Cat(star(O), EMPTY), Alt((EMPTY, EMPTY)),
              Alt((EMPTY, B)), Star(EMPTY), Cat(Star(EMPTY), O),
              Cat(Alt((EMPTY, AL)), Star(Alt((O, EMPTY)))),
              Cat(Alt((EPS_EFF, Cat(O, EMPTY))), B)]:
        assert_agrees_with_derivative_search(e)


def test_structure_agrees_with_derivatives_on_compiled_latents(monkeypatch):
    seen = set()

    def record(e):
        seen.add(e)
        return effect_pnf(e)

    monkeypatch.setattr(target, "effect_pnf", record)
    effect_typecheck.cache_clear()  # so every latent reaches effect_pnf again
    for i in range(0, 300, 5):
        e = gen_typed_source(i, 5 + i % 26)
        for seed in [(), ("o",), ("b", "o")]:
            effect_typecheck(TargetEnv().push_name("al"),
                             compile_expr(e, "al", seed))
    assert len(seen) > 100
    for e in seen:
        assert_agrees_with_derivative_search(e)


def test_effect_vars_and_subst():
    e = cat(AL, star(alt(O, B)))
    assert effect_vars(e) == {"al"}
    assert not is_closed(e)
    s = effect_subst(e, "al", ("o", "b"))
    assert is_closed(s)
    assert member(("o", "b", "o"), s)
    assert not member(("b",), s)


def test_quotient_word():
    e = cat(O, alt(O, B))
    q = quotient_word(("o",), e)
    assert lang_eq(q, alt(O, B))
    assert quotient_word((), e) == e


def test_quotient_word_coverage_error():
    with pytest.raises(CoverageError) as exc:
        quotient_word(("o",), alt(cat(O, B), B))
    assert exc.value.witness == ("b",)


# ----------------------------------------------------- properties

effect_strategy = st.builds(
    lambda seed, size: random_effect(random.Random(seed), size),
    st.integers(0, 10**6),
    st.integers(1, 12),
)
closed_effect = st.builds(
    lambda seed, size: random_effect(random.Random(seed), size, atoms=("o", "b")),
    st.integers(0, 10**6),
    st.integers(1, 12),
)
word_strategy = st.lists(st.sampled_from(["o", "b", "al"]), max_size=6).map(tuple)


@settings(max_examples=200)
@given(effect_strategy, word_strategy)
def test_member_agrees_with_backtracking_matcher(e, w):
    assert member(w, e) == match_word(w, e)


@settings(max_examples=150)
@given(effect_strategy)
def test_language_agrees_with_enumeration(e):
    words = lang_upto(e, 5)
    for w in words:
        assert member(w, e)
    # and a few words outside the enumeration must be rejected
    for w in [(), ("o",), ("b", "o"), ("al", "al")]:
        if len(w) <= 5 and w not in words:
            assert not member(w, e)


@settings(max_examples=150)
@given(effect_strategy, st.sampled_from(["o", "b", "al"]))
def test_derivative_soundness(e, a):
    lhs = {w[1:] for w in lang_upto(e, 5) if w and w[0] == a}
    rhs = lang_upto(deriv(e, a), 4)
    assert lhs == rhs


@settings(max_examples=100)
@given(effect_strategy, effect_strategy)
def test_inclusion_agrees_with_enumeration(e1, e2):
    l1, l2 = lang_upto(e1, 6), lang_upto(e2, 6)
    if includes(e1, e2):
        assert l1 <= l2
    else:
        w = inclusion_witness(e1, e2)
        assert match_word(w, e1) and not match_word(w, e2)


@settings(max_examples=100)
@given(effect_strategy, effect_strategy)
def test_disjointness_agrees_with_enumeration(e1, e2):
    l1, l2 = lang_upto(e1, 6), lang_upto(e2, 6)
    if disjoint(e1, e2):
        assert not (l1 & l2)
    else:
        w = overlap_witness(e1, e2)
        assert match_word(w, e1) and match_word(w, e2)


@settings(max_examples=200)
@given(effect_strategy)
def test_structure_agrees_with_derivatives(e):
    assert_agrees_with_derivative_search(e)
    for a in eff.alphabet(e):
        assert_agrees_with_derivative_search(deriv(e, a))


@settings(max_examples=100)
@given(st.lists(effect_strategy, min_size=1, max_size=5))
def test_alternation_parts_are_sorted_by_repr(ps):
    flat = {q for p in ps for q in (p.parts if isinstance(p, Alt) else (p,))
            if q != EMPTY}
    if len(flat) > 1:
        assert alt(*ps).parts == tuple(sorted(flat, key=repr))


@settings(max_examples=100)
@given(effect_strategy, effect_strategy, effect_strategy)
def test_includes_is_a_preorder(a, b, c):
    assert includes(a, a)
    if includes(a, b) and includes(b, c):
        assert includes(a, c)


@settings(max_examples=100)
@given(effect_strategy, word_strategy)
def test_subst_commutes_with_language(e, phi):
    s = effect_subst(e, "al", phi)
    expected = {
        tuple(a2 for a in w for a2 in (phi if a == "al" else (a,)))
        for w in lang_upto(e, 4)
    }
    for w in expected:
        assert member(w, s)
