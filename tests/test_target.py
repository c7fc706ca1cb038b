"""Coordinated calculus: effect typing, prefix normal forms, and stepping
under choice worlds."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cochoice import effects as eff
from cochoice.effects import EMPTY, Lit, alt, cat, star, lang_eq
from cochoice.parser import ParseError, parse, parse_world
from cochoice.printer import format_expr, format_type
from cochoice.syntax import (
    TNAT, TArrow, TForall,
    TVar, TApp, TLam, TNameApp, TNameAbs, TChoice, TNum,
    alpha_eq, canon_key, free_name_vars,
)
from cochoice.target import (
    TargetEnv, wf_check, subtype, type_join, type_meet,
    BOTTOM, EffectPNF, mk_pnf, effect_pnf, pnf_align,
    effect_typecheck, tgt_step_all, tgt_step_nc, tgt_step_trace,
    tgt_eval, tgt_eval_nc,
    EffectAlignError, DisjointnessViolation, NonClosedResidual,
    BuiltinRejected, IllFormed, TypeMismatch,
)
from cochoice import source
from cochoice.compiler import compile_expr, compile_type
from cochoice.harness import gen_typed_source
from cochoice.source import explore, src_typecheck
from cochoice.syntax import NAT, Arrow, name_subst
from oracle import random_effect, reference_subtype, reference_tgt_step

O = Lit(("o",))
B = Lit(("b",))


def tgt(text):
    return parse("tgt", text)


# ---------------------------------------------------------------- well-formed

def test_wf_check():
    env = TargetEnv().push_name("al")
    assert wf_check(env, ("al", "o"))
    assert not wf_check(env, ("be",))
    assert wf_check(env, TForall("be", Lit(("be",)), TNAT))
    assert not wf_check(env, TForall("al", EMPTY, TNAT))  # duplicate binder


def test_subtype():
    small = TArrow(TNAT, O, TNAT)
    big = TArrow(TNAT, alt(O, B), TNAT)
    assert subtype(small, big)
    assert not subtype(big, small)
    # argument position is contravariant
    f_small = TArrow(small, EMPTY, TNAT)
    f_big = TArrow(big, EMPTY, TNAT)
    assert subtype(f_big, f_small)
    assert subtype(
        TForall("al", Lit(("al",)), TNAT),
        TForall("be", alt(Lit(("be",)), O), TNAT),
    )


def test_subtype_aligns_binders_without_capture():
    # the binders agree; the right one is not free on the left, so the left
    # one is renamed to it; it is free there, so both go to a fresh one
    same = TForall("a", Lit(("a", "o")), TNAT)
    assert subtype(same, TForall("a", alt(Lit(("a", "o")), B), TNAT))
    assert subtype(TForall("c", Lit(("c", "o")), TNAT),
                   TForall("a", alt(Lit(("a", "o")), B), TNAT))
    # c is free on the left: renaming a to c there would capture it
    free_c = TForall("a", Lit(("c",)), TNAT)
    bound_c = TForall("c", Lit(("c",)), TNAT)
    assert not subtype(free_c, bound_c) and not subtype(bound_c, free_c)
    # under a nested binder of the same name the left one is renamed apart
    nested = TForall("a", Lit(("a",)), TForall("c", Lit(("a", "c")), TNAT))
    assert subtype(nested, TForall("c", Lit(("c",)),
                                   TForall("a", Lit(("c", "a")), TNAT)))
    assert not subtype(nested, TForall("c", Lit(("c",)),
                                       TForall("a", Lit(("a", "c")), TNAT)))


def test_type_join_and_meet():
    a = TArrow(TNAT, O, TNAT)
    b = TArrow(TNAT, B, TNAT)
    j = type_join(a, b)
    assert subtype(a, j) and subtype(b, j)
    assert type_meet(a, j) == a
    with pytest.raises(TypeMismatch):
        type_join(TNAT, a)
    # the join of unrelated arrows meets their arguments, here the second
    wide = TArrow(TNAT, alt(O, B), TNAT)
    j = type_join(TArrow(wide, O, TNAT), TArrow(a, B, TNAT))
    assert format_type(j) == "(nat -{o}-> nat) -{b + o}-> nat"
    assert type_meet(wide, a) == a


# ------------------------------------------------------------ prefix forms

def test_effect_pnf_examples():
    assert effect_pnf(EMPTY) == BOTTOM
    p = effect_pnf(cat(Lit(("al", "o")), star(alt(O, B))))
    assert p.prefix == ("al", "o")
    assert lang_eq(p.suffix, star(alt(O, B)))
    # a nullable effect forces nothing
    assert effect_pnf(star(O)).prefix == ()
    # branching at the first atom also forces nothing
    assert effect_pnf(alt(O, B)).prefix == ()


def test_effect_pnf_rejects_open_residual():
    with pytest.raises(NonClosedResidual):
        effect_pnf(alt(Lit(("al",)), O))


def test_pnf_align_examples():
    prefix, (s1, s2) = pnf_align([mk_pnf(("al", "o"), star(O)),
                                  mk_pnf(("al",), O)])
    assert prefix == ("al",)
    assert lang_eq(s1, cat(O, star(O)))
    assert lang_eq(s2, O)
    # bottoms are carried through as the empty language
    prefix, (s1, s2) = pnf_align([BOTTOM, mk_pnf(("o",), star(B))])
    assert prefix == ("o",)
    assert s1 == EMPTY


def test_pnf_align_rejects_variable_leftover():
    with pytest.raises(EffectAlignError):
        pnf_align([mk_pnf(("al", "be"), O), mk_pnf(("al",), B)])


# ------------------------------------------------------------- effect typing

def test_typing_choice_records_its_name():
    env = TargetEnv().push_name("al").push_term("x", TNAT).push_term("y", TNAT)
    m = TChoice(TVar("x"), ("al", "b"), TVar("y"))
    t, p = effect_typecheck(env, m)
    assert t == TNAT
    assert lang_eq(p.denote(), Lit(("al", "b")))


def test_typing_name_abstraction():
    env = TargetEnv().push_term("x", TNAT)
    t, p = effect_typecheck(env, TNameAbs("be", TVar("x")))
    assert t == TForall("be", EMPTY, TNAT)
    assert p == BOTTOM
    # a binder that reuses a bound name is renamed apart from every bound name
    m = tgt("/\\a. /\\a1. /\\a. (1 ||{a a1} 2)")
    t, _ = effect_typecheck(TargetEnv(), m)
    assert format_type(t) == "all a.{{}} all a1.{{}} all a2.{a2 a1} nat"


def test_typing_name_application_substitutes_latent():
    m = tgt("(/\\a. (1 ||{a} 2)) @ o b")
    t, p = effect_typecheck(TargetEnv(), m)
    assert t == TNAT
    assert lang_eq(p.denote(), Lit(("o", "b")))


def test_typing_rejects_reused_name():
    env = (TargetEnv().push_name("al")
           .push_term("x", TNAT).push_term("y", TNAT).push_term("z", TNAT))
    m = TChoice(TChoice(TVar("x"), ("al",), TVar("y")), ("al",), TVar("z"))
    with pytest.raises(DisjointnessViolation) as exc:
        effect_typecheck(env, m)
    assert exc.value.witness == ()


def test_typing_rejects_builtin():
    with pytest.raises(BuiltinRejected):
        effect_typecheck(TargetEnv(), tgt("add"))


def test_typing_rejects_unbound_name():
    with pytest.raises(IllFormed):
        effect_typecheck(TargetEnv(), tgt("(1 ||{a} 2)"))


def test_compiled_identity_type():
    m = compile_expr(parse("src", "\\x:nat. x"), "al", ())
    t, p = effect_typecheck(TargetEnv().push_name("al"), m)
    assert p == BOTTOM
    # the inferred latent is tighter than the declared one but below it
    assert format_type(t) == "nat -> all g1.{{}} nat"
    declared = parse("type-tgt", "nat -> all a.{a (b + o)*} nat")
    assert subtype(t, declared)


# --------------------------------------------------------------- reduction

def test_world_rules_collapse_choices():
    m = tgt("(1 ||{o} 2)")
    assert [(r, t) for r, t in tgt_step_trace(m, {(("o",), "+")})] == \
        [("TR-WorldL", TNum(1))]
    assert [(r, t) for r, t in tgt_step_trace(m, {(("o",), "-")})] == \
        [("TR-WorldR", TNum(2))]
    # with no commitment recorded, neither collapse fires
    assert tgt_step_all(m, frozenset()) == []


def test_rule_paths_name_every_rule():
    # inside the left branch the world holds o+ and o-, so the inner choice
    # collapses either way; at the root only o- is recorded
    m = tgt("((\\x:nat. x) (1 ||{o} 2) ||{o} 3)")
    assert [(r, format_expr(t))
            for r, t in tgt_step_trace(m, {(("o",), "-")})] == [
        ("TR-ChoiceL/TR-DistAppR",
         "(((\\x:nat. x) 1 ||{o} (\\x:nat. x) 2) ||{o} 3)"),
        ("TR-ChoiceL/TR-AppR/TR-WorldL", "((\\x:nat. x) 1 ||{o} 3)"),
        ("TR-ChoiceL/TR-AppR/TR-WorldR", "((\\x:nat. x) 2 ||{o} 3)"),
        ("TR-WorldR", "3"),
    ]


def test_choice_recursion_extends_world():
    # stepping inside the left branch of a named choice records name+
    m = tgt("((1 ||{o} 2) ||{o} 3)")
    succs = {format_expr(t) for t in tgt_step_all(m, frozenset())}
    assert succs == {"(1 ||{o} 3)"}


def test_distinct_names_do_not_coordinate():
    m = tgt("((1 ||{o b} 2) ||{o} 3)")
    assert tgt_step_all(m, frozenset()) == []


def test_nc_steps_drop_world_rules():
    m = tgt("((\\x:nat. x) (1 ||{o} 2) ||{o} 3)")
    coord = {canon_key(t) for t in tgt_step_all(m, frozenset())}
    nc = {canon_key(t) for t in tgt_step_nc(m)}
    assert nc <= coord
    # distribution survives without worlds, collapses do not
    assert {format_expr(t) for t in tgt_step_nc(m)} == {
        "(((\\x:nat. x) 1 ||{o} (\\x:nat. x) 2) ||{o} 3)"}


def test_eval_coordinated_demo():
    m = tgt("(\\x:nat. (add x 1 ||{o} add x 3)) (3 ||{o} 5)")
    res = tgt_eval(m)
    assert len(res.normal_forms) == 1
    assert format_expr(res.normal_forms[0]) == "(4 ||{o} 8)"


def test_eval_nc_keeps_all_branches():
    m = tgt("(\\x:nat. (add x 1 ||{o} add x 3)) (3 ||{o} 5)")
    res = tgt_eval_nc(m)
    assert len(res.normal_forms) == 1
    nf = format_expr(res.normal_forms[0])
    assert nf == "((4 ||{o} 6) ||{o} (6 ||{o} 8))"


def test_delta_monotone():
    # a larger world can only enable more steps
    m = tgt("((1 ||{o} 2) ||{b} (3 ||{o} 4))")
    small = {canon_key(t) for t in tgt_step_all(m, {(("o",), "+")})}
    large = {canon_key(t) for t in
             tgt_step_all(m, {(("o",), "+"), (("b",), "-")})}
    assert small <= large


def test_parse_world():
    assert parse_world("o b+, o-") == frozenset(
        {(("o", "b"), "+"), (("o",), "-")})
    assert parse_world("") == parse_world(" , ") == frozenset()
    assert parse_world("eps+, al o-,") == frozenset(
        {((), "+"), (("al", "o"), "-")})


@pytest.mark.parametrize("text, where", [
    ("o+, b", "1:6: world entry must end in + or -, found end of input"),
    ("o+, o (+", "1:7: world entry must end in + or -, found '('"),
    ("o+ b-", "1:4: expected ',', found 'b'"),
    ("o+,\n -", "2:2: expected a name, found '-'"),
])
def test_parse_world_errors_point_into_the_text(text, where):
    # positions are in the text given, not in one comma-separated entry
    with pytest.raises(ParseError) as exc:
        parse_world(text)
    assert str(exc.value) == where


def terms_of(pairs):
    return [t for _, t in pairs]


def test_memoized_steps_agree_with_reference(monkeypatch):
    # every state within three ∅-steps of the first 60 acceptance programs,
    # under ∅ and under a world that names both polarities; the
    # non-coordinated steps are the reference's without worlds
    monkeypatch.setattr(source, "_STEPS", {})
    world = parse_world("o+, o b-, b o+")
    checked = 0
    for i in range(60):
        m = name_subst(compile_expr(gen_typed_source(i, 5 + i % 26), "a", ()),
                       "a", ())
        for t in explore(m, tgt_step_all, depth=3).found.values():
            for delta in (frozenset(), world):
                assert tgt_step_trace(t, delta) == reference_tgt_step(t, delta), i
            assert tgt_step_nc(t) == \
                terms_of(reference_tgt_step(t, worlds=False)), i
            checked += 1
    assert checked > 150


def test_step_memo_is_not_poisoned():
    m = tgt("((\\x:nat. x) 1 ||{o} (1 ||{o} 2))")
    world = {(("o",), "+")}
    first = tgt_step_trace(m, world)
    assert [r for r, _ in first] == [
        "TR-ChoiceL/TR-Beta", "TR-ChoiceR/TR-WorldL", "TR-ChoiceR/TR-WorldR",
        "TR-WorldL"]
    first.append(("TR-Bogus", m))
    assert tgt_step_trace(m, world) == first[:4]
    tgt_step_trace(m, world).clear()
    assert tgt_step_trace(m, world) == first[:4] == reference_tgt_step(m, world)
    assert tgt_step_nc(m) == terms_of(reference_tgt_step(m, worlds=False))


def deep_tree():
    m = tgt("(\\x:nat. x) 1")
    for i in range(900):
        m = TChoice(m, tuple("ob"[int(d)] for d in bin(i)[2:]), TNum(i))
    return m


def test_deep_choice_tree_steps():
    # one frame per level: a 900-deep choice tree steps at its leaf redex,
    # and an equal tree built apart is answered from the memo
    first = tgt_step_trace(deep_tree())
    assert tgt_step_trace(deep_tree()) == first
    ((path, s),) = first  # every choice has its own name
    assert path == "TR-ChoiceL/" * 900 + "TR-Beta"
    for _ in range(900):
        s = s.left
    assert s == TNum(1)


# -------------------------------------------------------------- properties

terms = st.builds(
    lambda seed, size: gen_typed_source(seed, size),
    st.integers(0, 10**6),
    st.integers(1, 14),
)


@settings(max_examples=100, deadline=None)
@given(terms)
def test_compiled_terms_typecheck(e):
    m = compile_expr(e, "al", ())
    t, p = effect_typecheck(TargetEnv().push_name("al"), m)
    assert t is not None


@settings(max_examples=100, deadline=None)
@given(terms)
def test_nc_successors_subset_of_coordinated(e):
    m = compile_expr(e, "al", ())
    nc = {canon_key(t) for t in tgt_step_nc(m)}
    coord = {canon_key(t) for t in tgt_step_all(m, frozenset())}
    assert nc <= coord


@settings(max_examples=50, deadline=None)
@given(terms)
def test_step_all_is_one_term_per_derivation(e):
    # the coordinated relation keeps the term of every derivation, in order
    m = name_subst(compile_expr(e, "a", ()), "a", ())
    world = parse_world("o+, o b-")
    for t in explore(m, tgt_step_all, depth=2).found.values():
        assert tgt_step_all(t) == terms_of(tgt_step_trace(t))
        assert tgt_step_all(t, world) == terms_of(tgt_step_trace(t, world))


@settings(max_examples=100, deadline=None)
@given(terms)
def test_target_print_parse_round_trip(e):
    m = compile_expr(e, "a", ())
    assert alpha_eq(tgt(format_expr(m)), m)


# ---------------------------------------------------- subtyping, differential

NAME_VARS = ("a", "c", "g")


def random_tgt_type(rng, depth):
    """A target type whose quantifiers bind a, c or g, with random latents
    over o, b and those variables, bound or free."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return TNAT
    latent = random_effect(rng, rng.randrange(1, 5), atoms=("o", "b") + NAME_VARS)
    if roll < 0.55:
        return TArrow(random_tgt_type(rng, depth - 1), latent,
                      random_tgt_type(rng, depth - 1))
    return TForall(rng.choice(NAME_VARS), latent, random_tgt_type(rng, depth - 1))


def variant(rng, t):
    """``t`` with some quantifiers rebound to another of a, c and g (renamed
    consistently, or not, which frees the old variable and captures the new
    one) and some latents widened or replaced."""
    if isinstance(t, TArrow):
        latent, roll = t.latent, rng.random()
        if roll < 0.3:
            latent = alt(latent, random_effect(rng, 2, atoms=("o", "b") + NAME_VARS))
        elif roll < 0.4:
            latent = random_effect(rng, 3, atoms=("o", "b") + NAME_VARS)
        return TArrow(variant(rng, t.arg), latent, variant(rng, t.res))
    if isinstance(t, TForall):
        var, latent, body = t.var, t.latent, variant(rng, t.body)
        roll = rng.random()
        if roll < 0.6:
            var = rng.choice(NAME_VARS)
            latent = name_subst(latent, t.var, (var,))
            body = name_subst(body, t.var, (var,))
        elif roll < 0.7:
            var = rng.choice(NAME_VARS)
        elif roll < 0.85:
            latent = alt(latent, random_effect(rng, 2, atoms=("o", "b", t.var)))
        return TForall(var, latent, body)
    return t


def random_src_type(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return NAT
    return Arrow(random_src_type(rng, depth - 1), random_src_type(rng, depth - 1))


def agree_on_subtype(t1, t2):
    """Binder alignment answers as renaming both sides does, both ways."""
    got = subtype(t1, t2), subtype(t2, t1)
    assert got == (reference_subtype(t1, t2), reference_subtype(t2, t1))
    return got


def test_subtype_agrees_with_reference_on_every_alignment():
    answers, cases = set(), set()
    for seed in range(600):
        rng = random.Random(seed)
        t1 = random_tgt_type(rng, 3)
        t2 = variant(rng, t1)
        answers.add(agree_on_subtype(t1, t2))
        agree_on_subtype(t1, random_tgt_type(rng, 3))
        if isinstance(t1, TForall) and isinstance(t2, TForall):
            cases.add("same" if t1.var == t2.var else
                      "fresh" if t2.var in free_name_vars(t1) else "rename")
    assert answers >= {(True, True), (True, False), (False, False)}
    assert cases == {"same", "rename", "fresh"}


@settings(max_examples=60, deadline=None)
@given(terms)
def test_subtype_agrees_with_reference_on_compiled_types(e):
    # the types inferred at three compile seeds, against each other and
    # against the compiled source type
    env = TargetEnv().push_name("al")
    types = [effect_typecheck(env, compile_expr(e, "al", seed))[0]
             for seed in [(), ("o",), ("b", "o")]]
    types.append(compile_type(src_typecheck(e)))
    for t1 in types:
        for t2 in types:
            agree_on_subtype(t1, t2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_subtype_agrees_with_reference_on_random_types(seed):
    rng = random.Random(seed)
    s1, s2 = random_src_type(rng, 4), random_src_type(rng, 4)
    agree_on_subtype(compile_type(s1), compile_type(s2))
    agree_on_subtype(compile_type(s1), variant(rng, compile_type(s1)))
    t = random_tgt_type(rng, 4)
    agree_on_subtype(t, variant(rng, t))
    agree_on_subtype(variant(rng, t), variant(rng, t))
