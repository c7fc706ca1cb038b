"""Term syntax: substitution, free variables, and alpha-equivalence."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cochoice import effects as eff
from cochoice.effects import Lit, cat, star, alt
from cochoice.syntax import (
    NAT, Arrow, TNAT, TArrow, TForall,
    Var, App, Lam, Fix, Choice, Num, Add, ADD,
    TVar, TApp, TLam, TNameApp, TNameAbs, TFix, TChoice, TNum,
    SrcExpr, SrcType, TgtExpr, TgtType,
    TADD, is_answer, is_value, size_of, free_vars, free_name_vars,
    fresh, subst_term, name_subst, alpha_eq, canon_key,
)
from cochoice.harness import gen_typed_source
from cochoice.compiler import compile_expr, erase, pseudo_compile
from cochoice.names import normalize_name
from cochoice.parser import parse
from cochoice.printer import format_any
from cochoice.source import src_step_all
from cochoice.target import tgt_step_all
from oracle import (
    random_effect, reference_key, reference_name_subst, reference_subst,
)


def test_values():
    assert is_value(Num(3))
    assert is_value(Lam("x", NAT, Var("x")))
    assert is_value(App(ADD, Num(1)))  # partially applied builtin
    assert not is_value(App(Lam("x", NAT, Var("x")), Num(1)))
    assert not is_value(Choice(Num(1), Num(2)))
    assert is_value(TNameAbs("al", TNum(7)))
    assert is_value(TApp(TADD, TNum(1)))
    assert not is_value(TNameApp(TNameAbs("al", TNum(7)), ("o",)))
    assert not is_value(TChoice(TNum(1), ("o",), TNum(2)))


def test_answers():
    # values and choice trees of values, in either calculus
    assert is_answer(Choice(Num(1), Choice(Lam("x", NAT, Var("x")), Num(2))))
    assert is_answer(TChoice(TNum(1), ("o",), TNameAbs("al", TNum(7))))
    assert not is_answer(Choice(Num(1), App(Num(1), Num(2))))
    assert not is_answer(TChoice(TNum(1), ("o",), TVar("x")))


def test_free_vars():
    e = Lam("x", NAT, App(Var("x"), Var("y")))
    assert free_vars(e) == {"y"}
    m = TLam("x", TNAT, TApp(TVar("x"), TVar("y")))
    assert free_vars(m) == {"y"}


def test_free_name_vars():
    m = TNameAbs("al", TChoice(TVar("x"), ("al", "be"), TVar("y")))
    assert free_name_vars(m) == {"be"}
    t = TForall("al", Lit(("al", "g7")), TNAT)
    assert free_name_vars(t) == {"g7"}


def test_fresh_avoids():
    assert fresh("x", {"x", "x1"}) not in {"x", "x1"}
    assert fresh("x", set()) == "x"


def test_subst_capture_avoiding():
    # (\y. x y)[x := y]  must not capture the free y
    e = Lam("y", NAT, App(Var("x"), Var("y")))
    s = subst_term(e, "x", Var("y"))
    assert isinstance(s, Lam) and s.var != "y"
    assert free_vars(s) == {"y"}
    assert alpha_eq(s, Lam("z", NAT, App(Var("y"), Var("z"))))


def test_subst_shadowed_binder_is_untouched():
    e = Lam("x", NAT, Var("x"))
    assert subst_term(e, "x", Num(1)) == e


def test_name_subst_on_terms_and_types():
    m = TChoice(TNum(1), ("al",), TNum(2))
    assert name_subst(m, "al", ("o", "b")) == TChoice(TNum(1), ("o", "b"), TNum(2))
    t = TForall("al", Lit(("al",)), TNAT)
    # bound name variable is untouched
    assert alpha_eq(name_subst(t, "al", ("o",)), t)
    t2 = TForall("be", Lit(("al",)), TNAT)
    assert name_subst(t2, "al", ("o",)) == TForall("be", Lit(("o",)), TNAT)


def test_name_subst_avoids_name_capture():
    # (/\be. x @ al)[al := be] must rename the binder
    m = TNameAbs("be", TNameApp(TVar("x"), ("al",)))
    s = name_subst(m, "al", ("be",))
    assert isinstance(s, TNameAbs) and s.var != "be"
    assert free_name_vars(s) == {"be"}


O_ARROW = TArrow(TNAT, Lit(("o",)), TNAT)


TARGET_CASES = [
    # a target term binder that would capture the replacement's free y
    (subst_term, TLam("y", TNAT, TApp(TVar("x"), TVar("y"))), "x", TVar("y"),
     "\\y1:nat. y y1", TLam("z", TNAT, TApp(TVar("y"), TVar("z")))),
    (subst_term, TFix("y", TNAT, TApp(TVar("x"), TVar("y"))), "x", TVar("y"),
     "fix y1:nat. y y1", TFix("z", TNAT, TApp(TVar("y"), TVar("z")))),
    # a name binder that would capture the replacement's free name al
    (subst_term, TNameAbs("al", TNameApp(TVar("x"), ("al",))), "x",
     TNameApp(TVar("f"), ("al",)), "/\\al1. (f @ al) @ al1",
     TNameAbs("g", TNameApp(TNameApp(TVar("f"), ("al",)), ("g",)))),
    # latents of arrows, and a Forall that would capture the name be
    (name_subst,
     TArrow(TNAT, Lit(("al",)), TArrow(TNAT, Lit(("al", "o")), TNAT)),
     "al", ("o", "b"), "nat -{o b}-> nat -{o b o}-> nat",
     TArrow(TNAT, Lit(("o", "b")), TArrow(TNAT, Lit(("o", "b", "o")), TNAT))),
    (name_subst, TForall("be", Lit(("al", "be")),
                         TArrow(TNAT, Lit(("be", "al")), TNAT)),
     "al", ("be",), "all be1.{be be1} nat -{be1 be}-> nat",
     TForall("g", Lit(("be", "g")), TArrow(TNAT, Lit(("g", "be")), TNAT))),
    # the annotations of term binders
    (name_subst, TLam("x", TArrow(TNAT, Lit(("al",)), TNAT), TVar("x")),
     "al", ("o",), "\\x:nat -{o}-> nat. x", TLam("y", O_ARROW, TVar("y"))),
    (name_subst, TFix("f", TArrow(TNAT, Lit(("al",)), TNAT),
                      TLam("x", TNAT, TApp(TVar("f"), TVar("x")))),
     "al", ("o",), "fix f:nat -{o}-> nat. \\x:nat. f x",
     TFix("g", O_ARROW, TLam("y", TNAT, TApp(TVar("g"), TVar("y"))))),
]


@pytest.mark.parametrize("subst, entity, var, repl, printed, expected",
                         TARGET_CASES, ids=[
                             "tlam_capture", "tfix_capture", "name_abs_capture",
                             "arrow_latents", "forall_capture",
                             "tlam_annotation", "tfix_annotation"])
def test_target_substitution_cases(subst, entity, var, repl, printed,
                                   expected):
    out = subst(entity, var, repl)
    assert format_any(out) == printed
    assert alpha_eq(out, expected)


def test_alpha_eq_examples():
    assert alpha_eq(Lam("x", NAT, Var("x")), Lam("y", NAT, Var("y")))
    assert not alpha_eq(Lam("x", NAT, Var("x")), Lam("x", Arrow(NAT, NAT), Var("x")))
    assert alpha_eq(
        TNameAbs("al", TChoice(TNum(1), ("al",), TNum(2))),
        TNameAbs("be", TChoice(TNum(1), ("be",), TNum(2))),
    )
    assert not alpha_eq(TVar("x"), TVar("y"))  # free variables by name
    assert not alpha_eq(
        TNameApp(TVar("x"), ("al",)), TNameApp(TVar("x"), ("be",))
    )


def test_alpha_eq_modulo_effect_canonicalization():
    a = TForall("a", alt(Lit(("o",)), Lit(("b",))), TNAT)
    b = TForall("c", alt(Lit(("b",)), Lit(("o",))), TNAT)
    assert alpha_eq(a, b)


def test_size_of():
    assert size_of(Num(1)) == 1
    assert size_of(App(Var("x"), Var("y"))) == 3


terms = st.builds(
    lambda seed, size: gen_typed_source(seed, size),
    st.integers(0, 10**6),
    st.integers(1, 14),
)


@settings(max_examples=100, deadline=None)
@given(terms)
def test_alpha_eq_reflexive_and_stable_under_renaming(e):
    assert alpha_eq(e, e)
    m = compile_expr(e, "al", ())
    assert alpha_eq(m, m)
    assert canon_key(m) == canon_key(name_subst(m, "zz", ("o",)))


@settings(max_examples=100, deadline=None)
@given(terms, st.sampled_from(["x", "y", "f"]))
def test_identity_substitution(e, x):
    assert alpha_eq(subst_term(e, x, Var(x)), e)


@settings(max_examples=100, deadline=None)
@given(terms)
def test_name_subst_identity_on_closed(e):
    m = compile_expr(e, "al", ())
    assert free_name_vars(m) <= {"al"}
    assert alpha_eq(name_subst(m, "be", ("o",)), m)


# ------------------------------------------ substitution against the reference

def _subterms(x):
    yield x
    for f in x.__match_args__:
        v = getattr(x, f)
        if isinstance(v, (SrcExpr, TgtExpr)):
            yield from _subterms(v)


def _subst_cases(x):
    """(term, variable, replacement) for each binder below ``x``: each free
    variable of its body replaced, in the body for the binder's own
    variable and in the binder for the others, by ``x``, by variables named
    after the binders, and in target terms by terms with the names that
    name binders bind, so that binders of either kind must rename."""
    subs = list(_subterms(x))
    var = TVar if isinstance(x, TgtExpr) else Var
    terms = sorted({s.var for s in subs if isinstance(s, (Lam, Fix, TLam, TFix))})
    names = sorted({s.var for s in subs if isinstance(s, TNameAbs)})
    pool = [x] + [var(v) for v in terms]
    pool += [TNameApp(TVar(v), (n, "o")) for v in terms[:2] for n in names]
    for s in subs:
        if isinstance(s, (Lam, Fix, TLam, TFix, TNameAbs)):
            for v in sorted(free_vars(s.body)):
                for r in pool:
                    yield (s.body if v == s.var else s), v, r


def _name_cases(m):
    """(entity, name variable, name) for ``m`` and each name binder's body
    below it, with names built from the name variables bound there."""
    names = sorted({s.var for s in _subterms(m) if isinstance(s, TNameAbs)})
    phis = [(), ("o",), ("b", "o")] + [(n,) for n in names] \
        + [("al", n, "o") for n in names[:2]]
    for s in _subterms(m):
        if isinstance(s, TNameAbs):
            for phi in phis:
                yield s.body, s.var, phi
    for phi in phis:
        yield m, "al", phi


def _random_type(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return TNAT
    latent = random_effect(rng, rng.randrange(1, 6))
    if rng.random() < 0.5:
        return TForall(rng.choice(["al", "be"]), latent,
                       _random_type(rng, depth - 1))
    return TArrow(_random_type(rng, depth - 1), latent,
                  _random_type(rng, depth - 1))


REFERENCE = {subst_term: reference_subst, name_subst: reference_name_subst}


@settings(max_examples=60, deadline=None)
@given(terms, st.integers(0, 10**6))
def test_substitution_agrees_with_reference(e, seed):
    # equal as trees, so the renamed binders carry the same fresh names
    cases = [(subst_term, *c) for c in _subst_cases(e)]
    for s in [(), ("o",), ("b", "o")]:
        m = compile_expr(e, "al", s)
        closed = name_subst(m, "al", ())
        for t in [m, closed, *tgt_step_all(closed)]:
            cases += [(subst_term, *c) for c in _subst_cases(t)]
            cases += [(name_subst, *c) for c in _name_cases(t)]
    rng = random.Random(seed)
    for t in [_random_type(rng, 4) for _ in range(4)]:
        cases += [(name_subst, t, alpha, phi) for alpha in ["al", "be"]
                  for phi in [(), ("o",), ("be",), ("al", "be", "o")]]
    cases += [case[:4] for case in TARGET_CASES]
    for subst, entity, var, repl in cases:
        assert subst(entity, var, repl) == REFERENCE[subst](entity, var, repl)


# Generated programs are closed and rarely nest a binder that uses both its
# own variable and an outer one, so open terms over a few shared variable
# names make the renaming cases common.
term_vars = st.sampled_from(["x", "y", "x1"])
name_words = st.lists(st.sampled_from(["o", "al", "be", "al1", "be1"]),
                      max_size=3).map(tuple)
anns = st.sampled_from([TNAT, TArrow(TNAT, Lit(("al",)), TNAT),
                        TForall("be", Lit(("al", "be")), TNAT)])
open_src = st.recursive(
    term_vars.map(Var) | st.just(Num(0)),
    lambda t: st.builds(App, t, t) | st.builds(Choice, t, t)
    | st.builds(Lam, term_vars, st.just(NAT), t)
    | st.builds(Fix, term_vars, st.just(NAT), t),
    max_leaves=8)
open_tgt = st.recursive(
    term_vars.map(TVar) | st.just(TNum(0)),
    lambda t: st.builds(TApp, t, t) | st.builds(TChoice, t, name_words, t)
    | st.builds(TLam, term_vars, anns, t) | st.builds(TFix, term_vars, anns, t)
    | st.builds(TNameAbs, st.sampled_from(["al", "be"]), t)
    | st.builds(TNameApp, t, name_words),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.tuples(open_src, open_src) | st.tuples(open_tgt, open_tgt),
       name_words)
def test_substitution_agrees_with_reference_on_open_terms(pair, phi):
    body, repl = pair
    for s in _subterms(body):
        for x in sorted(free_vars(s)):
            assert subst_term(s, x, repl) == reference_subst(s, x, repl)
        for alpha in sorted(free_name_vars(s)) if isinstance(s, TgtExpr) else ():
            assert name_subst(s, alpha, phi) == \
                reference_name_subst(s, alpha, phi)


def test_substitution_keeps_the_kind_guards():
    with pytest.raises(TypeError):
        subst_term(Var("x"), "x", TVar("y"))
    with pytest.raises(TypeError):
        subst_term(TVar("x"), "x", Var("y"))
    for entity in [Var("x"), NAT, "al"]:
        with pytest.raises(TypeError):
            name_subst(entity, "al", ("o",))


# ------------------------------------------------ keys against the reference

def renamed(x, fresh_names=True):
    """``x`` with every term and name binder renamed. With ``fresh_names``
    each binder gets its own new name, an alpha-variant; otherwise all term
    binders share one name and all name binders another, which captures
    references to outer binders and so usually changes the term."""
    counter = itertools.count()

    def new(v, kind):
        return f"{kind}{next(counter)}" if fresh_names else kind

    def word(w, nenv):
        return tuple(nenv.get(a, a) for a in normalize_name(w))

    def effect(e, nenv):
        if isinstance(e, eff.Lit):
            return eff.Lit(word(e.word, nenv))
        if isinstance(e, eff.Cat):
            return eff.Cat(effect(e.left, nenv), effect(e.right, nenv))
        if isinstance(e, eff.Alt):
            return eff.Alt(tuple(effect(p, nenv) for p in e.parts))
        if isinstance(e, eff.Star):
            return eff.Star(effect(e.inner, nenv))
        return e

    def ty(t, nenv):
        if isinstance(t, (Arrow, TArrow)):
            mid = (effect(t.latent, nenv),) if isinstance(t, TArrow) else ()
            return type(t)(ty(t.arg, nenv), *mid, ty(t.res, nenv))
        if isinstance(t, TForall):
            v = new(t.var, "nv")
            inner = {**nenv, t.var: v}
            return TForall(v, effect(t.latent, inner), ty(t.body, inner))
        return t

    def term(e, tenv, nenv):
        if isinstance(e, (Var, TVar)):
            return type(e)(tenv.get(e.name, e.name))
        if isinstance(e, (App, TApp)):
            return type(e)(term(e.fn, tenv, nenv), term(e.arg, tenv, nenv))
        if isinstance(e, (Lam, Fix, TLam, TFix)):
            v = new(e.var, "tv")
            return type(e)(v, ty(e.ann, nenv), term(e.body, {**tenv, e.var: v}, nenv))
        if isinstance(e, Choice):
            return Choice(term(e.left, tenv, nenv), term(e.right, tenv, nenv))
        if isinstance(e, TChoice):
            return TChoice(term(e.left, tenv, nenv), word(e.name, nenv),
                           term(e.right, tenv, nenv))
        if isinstance(e, TNameApp):
            return TNameApp(term(e.fn, tenv, nenv), word(e.name, nenv))
        if isinstance(e, TNameAbs):
            v = new(e.var, "nv")
            return TNameAbs(v, term(e.body, tenv, {**nenv, e.var: v}))
        return e

    if isinstance(x, (SrcType, TgtType)):
        return ty(x, {})
    return term(x, {}, {})


def family(e):
    """A program, its compilations at three seeds, their one-step
    successors, and binder-renamed variants of all of them."""
    base = [e, pseudo_compile(e)]
    for seed in [(), ("o",), ("b", "o")]:
        m = compile_expr(e, "al", seed)
        closed = name_subst(m, "al", ())
        base += [m, closed, erase(closed)]
        base += tgt_step_all(closed, frozenset())
    base += [s for _, s in src_step_all(e)]
    return base + [renamed(x) for x in base] + [renamed(x, False) for x in base]


HAND_WRITTEN = [
    parse("tgt", r"/\a. /\d. x @ a"),
    parse("tgt", r"/\d. /\a. x @ d"),
    parse("tgt", r"/\a. /\d. x @ d"),
    parse("tgt", r"/\a. (1 ||{a o} 2)"),
    parse("tgt", r"/\c. (1 ||{c o} 2)"),
    parse("tgt", r"/\c. (1 ||{a o} 2)"),
    TLam("x", TForall("a", Lit(("a", "g")), TNAT), TVar("x")),
    TLam("y", TForall("d", Lit(("d", "g")), TNAT), TVar("y")),
    TLam("y", TForall("d", Lit(("g", "d")), TNAT), TVar("y")),
    TForall("a", eff.Alt((Lit(("a",)), Lit(("o",)))), TNAT),
    TForall("d", eff.Alt((Lit(("o",)), Lit(("d",)))), TNAT),
    TForall("d", eff.Alt((Lit(("o",)), Lit(("d",)), Lit(("o",)))), TNAT),
    TForall("a", eff.Cat(Lit(("a",)), Lit(("o",))),
            TForall("c", Lit(("a", "c")), TNAT)),
    TForall("a", Lit(("a", "o")), TForall("a", Lit(("a", "a")), TNAT)),
    TForall("a", Lit(("a", "o")), TForall("c", Lit(("c", "c")), TNAT)),
    eff.Alt((Lit(("o",)), Lit(("b",)))),
    eff.Alt((Lit(("b",)), Lit(("o",)))),
    eff.Cat(eff.Cat(Lit(("o",)), Lit(("b",))), Lit(("o",))),
    eff.Cat(Lit(("o",)), eff.Cat(Lit(("b",)), Lit(("o",)))),
    Lit(("o", "b", "o")),
    eff.Cat(Lit(()), eff.Star(Lit(("o",)))),
    eff.Star(Lit(("o",))),
    eff.Cat(eff.EMPTY, Lit(())),
    eff.EMPTY,
    ("o", ("b",)),
    ("o", "b"),
]


def _sort(x):
    for cls in (SrcExpr, TgtExpr, SrcType, TgtType, eff.Effect, tuple):
        if isinstance(x, cls):
            return cls
    raise TypeError(x)


def _agree(pool):
    keys = [canon_key(x) for x in pool]
    refs = [reference_key(x) for x in pool]
    for i, j in itertools.combinations(range(len(pool)), 2):
        same = _sort(pool[i]) is _sort(pool[j]) and refs[i] == refs[j]
        assert (keys[i] == keys[j]) == same, (pool[i], pool[j])


def test_keys_agree_with_reference_on_hand_written_cases():
    _agree(HAND_WRITTEN + [renamed(x) for x in HAND_WRITTEN
                           if not isinstance(x, (tuple, eff.Effect))])
    assert alpha_eq(HAND_WRITTEN[0], HAND_WRITTEN[1])
    assert not alpha_eq(HAND_WRITTEN[0], HAND_WRITTEN[2])
    assert alpha_eq(HAND_WRITTEN[15], HAND_WRITTEN[16])


def test_alternatives_are_sorted_again_after_binding():
    # the bound part's key is older than the literal's on one side and
    # younger on the other, so only sorting after binding equates them
    early = Lit(("q_early",))
    canon_key(early)
    word = Lit(("b", "o", "b", "b", "o", "o", "b"))
    canon_key(word)
    a = TForall("q_early", eff.Alt((early, word)), TNAT)
    b = TForall("q_late", eff.Alt((word, Lit(("q_late",)))), TNAT)
    assert reference_key(a) == reference_key(b)
    assert alpha_eq(a, b)


@settings(max_examples=60, deadline=None)
@given(terms)
def test_keys_agree_with_reference(e):
    _agree(family(e))


def test_keys_tell_source_from_target():
    assert canon_key(Num(3)) != canon_key(TNum(3))
    assert canon_key(Choice(Num(1), Num(2))) != canon_key(TChoice(TNum(1), (), TNum(2)))
    assert reference_key(Num(3)) == reference_key(TNum(3))


def test_key_cache_info():
    e = gen_typed_source(7, 20)
    before = canon_key.cache_info()
    canon_key(e)
    canon_key(e)
    after = canon_key.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses + 1
    assert after.currsize >= before.currsize


# ---------------------------------------------------------------- deep terms

def test_deep_terms_hash_and_compare_without_recursion():
    # hashing and equality walk a term from a stack, at any depth
    def deep(n):
        t = Num(0)
        for i in range(n):
            t = Choice(t, Num(i))
        return t

    a, b = deep(2000), deep(2000)
    assert hash(a) == hash(b)
    assert a == b and a != deep(1999)
    assert TChoice(TNum(1), ("o",), TNum(2)) == TChoice(TNum(1), ("o",), TNum(2))
    assert TChoice(TNum(1), ("o",), TNum(2)) != TChoice(TNum(1), ("b",), TNum(2))


def test_deep_terms_key_without_recursion():
    # keys and the free variables read from them are built from a stack:
    # 2,000-deep spines of each shape, and binders over 2,000-deep bodies
    # whose bound variable sits at the bottom (substitution still recurses,
    # so the renamed bodies are built apart)
    def spine(n, shape, x):
        node, var = shape
        t = var(x)
        for i in range(n):
            t = node(t, i, var(x))
        return t

    shapes = [
        (lambda t, i, v: Choice(t, Num(i)), Var),
        (lambda t, i, v: TChoice(TNum(i), ("o",) * (i % 3), t), TVar),
        (lambda t, i, v: App(t, v), Var),
        (lambda t, i, v: TApp(v, t), TVar),
    ]
    for shape in shapes:
        t = spine(2000, shape, "x")
        assert free_vars(t) == {"x"}
        assert alpha_eq(t, spine(2000, shape, "x"))
        assert not alpha_eq(t, spine(2000, shape, "y"))
        assert canon_key(t) != canon_key(spine(1999, shape, "x"))
        src = isinstance(t, SrcExpr)
        binder, ann = (Lam, NAT) if src else (TLam, TNAT)
        lam = binder("x", ann, t)
        assert free_vars(lam) == set()
        assert alpha_eq(lam, binder("z", ann, spine(2000, shape, "z")))
        assert not alpha_eq(lam, binder("z", ann, spine(2000, shape, "x")))
    named = [TNum(0), TNum(0)]
    for i in range(2000):
        named = [TChoice(TNum(i), (a, "o"), t) for a, t in zip("ac", named)]
    assert free_name_vars(named[0]) == {"a"}
    assert free_name_vars(TNameAbs("a", named[0])) == set()
    assert alpha_eq(TNameAbs("a", named[0]), TNameAbs("c", named[1]))
