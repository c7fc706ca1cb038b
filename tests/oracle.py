"""Brute-force reference implementations used to cross-check the effect
decision procedures, the prefix normal form, the alpha-equivalence keys,
one-step reduction in both calculi, term and name substitution, subtyping,
the tokenizer and the weak bisimulation and non-coordination checks, plus a
deterministic random-effect generator."""

from cochoice import effects as eff
from cochoice.compiler import pseudo_compile
from cochoice.harness import (
    COUNTEREXAMPLE, FUEL_EXHAUSTED, OK, CheckReport, PreconditionViolated,
)
from cochoice.names import is_name_var, name_vars, normalize_name, word_subst
from cochoice.parser import ParseError, _Tok
from cochoice.printer import format_effect
from cochoice.syntax import (
    Add, App, Arrow, Choice, Fix, Lam, Nat, Num, SrcExpr, TAdd, TApp, TArrow,
    TChoice, TFix, TForall, TLam, TNameAbs, TNameApp, TNat, TNum, TVar,
    TgtExpr, TgtType, Var, canon_key, free_name_vars, free_vars, fresh,
    is_value, name_subst, subst_term,
)
from cochoice.source import Stop, explore, src_step_all
from cochoice.source import SrcTypeError
from cochoice.target import (
    BOTTOM, EffectPNF, NonClosedResidual, TargetEnv, effect_typecheck,
)

ATOMS = ("o", "b", "al", "be")


def lang_upto(e, n):
    """All words of L(e) of length <= n, by structural enumeration."""
    if isinstance(e, eff.Empty):
        return set()
    if isinstance(e, eff.Lit):
        return {e.word} if len(e.word) <= n else set()
    if isinstance(e, eff.Cat):
        return _concat(lang_upto(e.left, n), lang_upto(e.right, n), n)
    if isinstance(e, eff.Alt):
        out = set()
        for p in e.parts:
            out |= lang_upto(p, n)
        return out
    if isinstance(e, eff.Star):
        base = lang_upto(e.inner, n) - {()}
        acc = frontier = {()}
        while frontier:  # each word is extended once, when it is new
            frontier = _concat(frontier, base, n) - acc
            acc |= frontier
        return acc
    raise TypeError(e)


def _concat(left, right, n):
    """Every ``u + v`` of length <= n with u in ``left`` and v in ``right``,
    pairing each u only with the words of ``right`` short enough for it."""
    by_len = {}
    for v in right:
        by_len.setdefault(len(v), []).append(v)
    return {u + v for u in left for k in range(n - len(u) + 1)
            for v in by_len.get(k, ())}


def match_word(w, e, _memo=None):
    """Backtracking regex matcher, independent of the derivative machinery."""
    if _memo is None:
        _memo = {}
    key = (w, e)
    if key in _memo:
        return _memo[key]
    if isinstance(e, eff.Empty):
        out = False
    elif isinstance(e, eff.Lit):
        out = w == e.word
    elif isinstance(e, eff.Cat):
        out = any(match_word(w[:i], e.left, _memo)
                  and match_word(w[i:], e.right, _memo)
                  for i in range(len(w) + 1))
    elif isinstance(e, eff.Alt):
        out = any(match_word(w, p, _memo) for p in e.parts)
    elif isinstance(e, eff.Star):
        if not w:
            out = True
        else:
            out = any(match_word(w[:i], e.inner, _memo)
                      and match_word(w[i:], e, _memo)
                      for i in range(1, len(w) + 1))
    else:
        raise TypeError(e)
    _memo[key] = out
    return out


def random_effect(rng, size, atoms=ATOMS):
    """A random effect AST with about ``size`` nodes."""
    if size <= 1:
        roll = rng.random()
        if roll < 0.1:
            return eff.EMPTY
        if roll < 0.2:
            return eff.Lit(())
        k = rng.randrange(1, 3)
        return eff.Lit(tuple(rng.choice(atoms) for _ in range(k)))
    roll = rng.random()
    if roll < 0.35:
        half = size // 2
        return eff.cat(random_effect(rng, half, atoms),
                       random_effect(rng, size - half, atoms))
    if roll < 0.7:
        half = size // 2
        return eff.alt(random_effect(rng, half, atoms),
                       random_effect(rng, size - half, atoms))
    return eff.star(random_effect(rng, size - 1, atoms))


# ---------------------------------------------------------------------------
# emptiness and prefix normal form by derivative search: the procedures that
# the structural effects.is_empty_lang and effects.first_atoms replaced, kept
# as the reference they must agree with


def reference_is_empty(e):
    """True iff no derivative of ``e`` reachable over its alphabet is nullable."""
    seen = {e}
    stack = [e]
    while stack:
        d = stack.pop()
        if eff.nullable(d):
            return False
        for a in eff.alphabet(d):
            d2 = eff.deriv(d, a)
            if d2 not in seen:
                seen.add(d2)
                stack.append(d2)
    return True


def reference_pnf(e):
    """``target.effect_pnf`` with every forced atom found by testing each
    atom of the alphabet for an empty derivative."""
    if reference_is_empty(e):
        return BOTTOM
    prefix = []
    while not eff.nullable(e):
        viable = [a for a in sorted(eff.alphabet(e))
                  if not reference_is_empty(eff.deriv(e, a))]
        if len(viable) != 1:
            break
        prefix.append(viable[0])
        e = eff.deriv(e, viable[0])
    if not eff.is_closed(e):
        raise NonClosedResidual(
            f"name variables left in effect residue: {format_effect(e)}")
    if reference_is_empty(e):
        return BOTTOM
    return EffectPNF(False, tuple(prefix), e)


# ---------------------------------------------------------------------------
# alpha equivalence by nested tuples: the key algorithm that syntax.canon_key
# replaced, kept as the reference it must agree with


def reference_key(x):
    """A hashable key equal for alpha-equivalent entities.

    Bound term and name variables are numbered by binding depth; names are
    normalized; effect concatenations and literals are flattened and
    alternations sorted, so the key is stable under associativity of
    concatenation. It does not tell a source term from a target term.
    """
    return _ck(x, {}, 0, {}, 0)


def _ck_atom(a, nenv):
    if is_name_var(a):
        return nenv.get(a, ("f", a))
    return a


def _ck_name(word, nenv):
    return ("name",) + tuple(_ck_atom(a, nenv) for a in normalize_name(word))


def _ck_eff_items(e, nenv):
    if isinstance(e, eff.Empty):
        # normally unreachable inside a canonical Cat, but handle raw trees
        return [("empty",)]
    if isinstance(e, eff.Lit):
        return [_ck_atom(a, nenv) for a in e.word]
    if isinstance(e, eff.Cat):
        return _ck_eff_items(e.left, nenv) + _ck_eff_items(e.right, nenv)
    if isinstance(e, eff.Alt):
        parts = sorted((_ck_eff(p, nenv) for p in e.parts), key=repr)
        return [("alt",) + tuple(parts)]
    if isinstance(e, eff.Star):
        return [("star", _ck_eff(e.inner, nenv))]
    raise TypeError(f"not an effect: {e!r}")


def _ck_eff(e, nenv):
    if isinstance(e, eff.Empty):
        return ("empty",)
    return ("cat",) + tuple(_ck_eff_items(e, nenv))


def _ck(x, tenv, tn, nenv, nn):
    # names
    if isinstance(x, tuple):
        return _ck_name(x, nenv)
    if isinstance(x, eff.Effect):
        return _ck_eff(x, nenv)
    # types
    if isinstance(x, Nat):
        return ("nat",)
    if isinstance(x, Arrow):
        return ("arrow", _ck(x.arg, tenv, tn, nenv, nn), _ck(x.res, tenv, tn, nenv, nn))
    if isinstance(x, TNat):
        return ("tnat",)
    if isinstance(x, TArrow):
        return (
            "tarrow",
            _ck(x.arg, tenv, tn, nenv, nn),
            _ck_eff(x.latent, nenv),
            _ck(x.res, tenv, tn, nenv, nn),
        )
    if isinstance(x, TForall):
        nenv2 = {**nenv, x.var: ("n", nn)}
        return (
            "forall",
            _ck_eff(x.latent, nenv2),
            _ck(x.body, tenv, tn, nenv2, nn + 1),
        )
    # expressions
    if isinstance(x, (Var, TVar)):
        return ("var", tenv.get(x.name, ("f", x.name)))
    if isinstance(x, (Num, TNum)):
        return ("num", x.value)
    if isinstance(x, (Add, TAdd)):
        return ("add",)
    if isinstance(x, (App, TApp)):
        return ("app", _ck(x.fn, tenv, tn, nenv, nn), _ck(x.arg, tenv, tn, nenv, nn))
    if isinstance(x, (Lam, TLam)):
        tenv2 = {**tenv, x.var: ("t", tn)}
        return (
            "lam",
            _ck(x.ann, tenv, tn, nenv, nn),
            _ck(x.body, tenv2, tn + 1, nenv, nn),
        )
    if isinstance(x, (Fix, TFix)):
        tenv2 = {**tenv, x.var: ("t", tn)}
        return (
            "fix",
            _ck(x.ann, tenv, tn, nenv, nn),
            _ck(x.body, tenv2, tn + 1, nenv, nn),
        )
    if isinstance(x, Choice):
        return (
            "choice",
            ("name",),
            _ck(x.left, tenv, tn, nenv, nn),
            _ck(x.right, tenv, tn, nenv, nn),
        )
    if isinstance(x, TChoice):
        return (
            "choice",
            _ck_name(x.name, nenv),
            _ck(x.left, tenv, tn, nenv, nn),
            _ck(x.right, tenv, tn, nenv, nn),
        )
    if isinstance(x, TNameApp):
        return ("nameapp", _ck(x.fn, tenv, tn, nenv, nn), _ck_name(x.name, nenv))
    if isinstance(x, TNameAbs):
        nenv2 = {**nenv, x.var: ("n", nn)}
        return ("nameabs", _ck(x.body, tenv, tn, nenv2, nn + 1))
    raise TypeError(f"cannot canonicalize: {x!r}")


# ---------------------------------------------------------------------------
# weak bisimulation by bounded matching runs: the check that the strong check
# modulo administrative steps (harness.check_weak_bisim_pseudo) replaced, kept
# as the reference it must agree with wherever this one decides


def reference_weak_bisim(e, depth=8, fuel=200, run=4, max_pairs=3000):
    """Weak mutual simulation between ``e`` and ``pseudo_compile(e)``.

    A source step ``a -> a2`` is matched when a run of at most ``run`` steps
    from the pseudo partner reaches ``pseudo_compile(a2)``; a pseudo step
    ``p -> p2`` is matched when runs of at most ``run`` steps from ``a`` and
    from ``p2`` re-converge on the pseudo compilation of some source term.
    Each run expands at most ``fuel`` states.  An unmatched step is a
    CounterExample only when the runs that failed to match it closed, and
    otherwise FuelExhausted with the cause that stopped a run.
    """
    succs, reached = {}, {}

    def succ(t):
        k = canon_key(t)
        if k not in succs:
            succs[k] = [s for _, s in src_step_all(t)]
        return succs[k]

    def reachable(t):
        k = canon_key(t)
        if k not in reached:
            search = explore(t, succ, depth=run, limit=fuel)
            reached[k] = (search.found, search.cause)
        return reached[k]

    def unmatched(pair, side, term, cause):
        status = COUNTEREXAMPLE if cause is None else FUEL_EXHAUSTED
        return Stop(CheckReport(status, (pair, (side, term)), cause=cause))

    def step(pair):
        a, p = pair
        sa, sp = succ(a), succ(p)
        out = []
        if sa:
            reach, cause = reachable(p)
            for a2 in sa:
                image = pseudo_compile(a2)
                if canon_key(image) not in reach:
                    raise unmatched(pair, "src", a2, cause)
                out.append((a2, image))
        if sp:
            cand, cause_a = reachable(a)
            images = {canon_key(pseudo_compile(a2)): a2
                      for a2 in cand.values()}
        for p2 in sp:
            reach2, cause_p = reachable(p2)
            hit = next((images[k] for k in reach2 if k in images), None)
            if hit is None:
                raise unmatched(pair, "pseudo", p2, cause_a or cause_p)
            out.append((hit, pseudo_compile(hit)))
        return out

    search = explore((e, pseudo_compile(e)), step, depth, limit=max_pairs,
                     key=lambda pair: (canon_key(pair[0]), canon_key(pair[1])))
    if search.verdict is not None:
        search.verdict.explored = search.expanded
        return search.verdict
    return CheckReport(OK if search.cause is None else FUEL_EXHAUSTED, None,
                       search.expanded, search.cause)


# ---------------------------------------------------------------------------
# non-coordination by the two unmemoized relations, the reference that
# harness.check_non_coordination must agree with


def reference_non_coordination(m, depth=8):
    """Every coordinated ∅-step of every state reachable from ``m`` within
    ``depth`` steps is also a non-coordinated step, compared by key, with
    both relations stepped by ``reference_tgt_step``; the witness
    ``(t, s)`` is the first coordinated successor ``s`` of ``t`` that the
    non-coordinated relation misses."""
    try:
        effect_typecheck(TargetEnv(), m)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"root term is untyped: {exc}") from exc

    def step(t):
        coord = [s for _, s in reference_tgt_step(t)]
        nc = {canon_key(s) for _, s in reference_tgt_step(t, worlds=False)}
        for s in coord:
            if canon_key(s) not in nc:
                raise Stop(CheckReport(COUNTEREXAMPLE, (t, s)))
        return coord

    search = explore(m, step, depth)
    if search.verdict is not None:
        search.verdict.explored = search.expanded
        return search.verdict
    return CheckReport(OK if search.cause is None else FUEL_EXHAUSTED, None,
                       search.expanded, search.cause)


# ---------------------------------------------------------------------------
# one-step reduction without the per-subterm memo: the steppers that
# source.src_step_all and target.tgt_step_trace memoize, which must give the
# same (path, term) pairs in the same order


def reference_src_step(e):
    """Every one-step successor of a source term, one per derivation, as
    ``(path, term)`` pairs, recomputing the successors of every subterm."""
    out = []
    if isinstance(e, App):
        f, a = e.fn, e.arg
        if isinstance(f, Lam) and is_value(a):
            out.append(("SR-Beta", subst_term(f.body, f.var, a)))
        if isinstance(f, App) and isinstance(f.fn, Add) and isinstance(f.arg, Num) \
                and isinstance(a, Num):
            out.append(("SR-Add", Num(f.arg.value + a.value)))
        if isinstance(f, Choice):
            out.append(("SR-DistAppL", Choice(App(f.left, a), App(f.right, a))))
        if isinstance(a, Choice) and is_value(f):
            out.append(("SR-DistAppR", Choice(App(f, a.left), App(f, a.right))))
        for path, f2 in reference_src_step(f):
            out.append(("SR-AppL/" + path, App(f2, a)))
        if is_value(f):
            for path, a2 in reference_src_step(a):
                out.append(("SR-AppR/" + path, App(f, a2)))
    elif isinstance(e, Fix):
        if isinstance(e.body, Lam):
            out.append(("SR-Fix", subst_term(e.body, e.var, e)))
    elif isinstance(e, Choice):
        for path, l2 in reference_src_step(e.left):
            out.append(("SR-ChoiceL/" + path, Choice(l2, e.right)))
        for path, r2 in reference_src_step(e.right):
            out.append(("SR-ChoiceR/" + path, Choice(e.left, r2)))
    return out


def reference_tgt_step(m, delta=frozenset(), worlds=True):
    """Every one-step successor of a target term under world ``delta``, as
    ``tgt_step_trace`` gives them, recomputing every subterm's successors;
    ``worlds=False`` disables the collapse rules and ignores ``delta``."""
    delta = frozenset((normalize_name(w), pol) for w, pol in delta) \
        if worlds else frozenset()
    return _ref_tgt_step(m, delta, worlds)


def _ref_tgt_step(m, delta, worlds):
    out = []
    if isinstance(m, TApp):
        f, a = m.fn, m.arg
        if isinstance(f, TLam) and is_value(a):
            out.append(("TR-Beta", subst_term(f.body, f.var, a)))
        if isinstance(f, TApp) and isinstance(f.fn, TAdd) \
                and isinstance(f.arg, TNum) and isinstance(a, TNum):
            out.append(("TR-Add", TNum(f.arg.value + a.value)))
        if isinstance(f, TChoice):
            out.append(("TR-DistAppL",
                        TChoice(TApp(f.left, a), f.name, TApp(f.right, a))))
        if isinstance(a, TChoice) and is_value(f):
            out.append(("TR-DistAppR",
                        TChoice(TApp(f, a.left), a.name, TApp(f, a.right))))
        for path, f2 in _ref_tgt_step(f, delta, worlds):
            out.append(("TR-AppL/" + path, TApp(f2, a)))
        if is_value(f):
            for path, a2 in _ref_tgt_step(a, delta, worlds):
                out.append(("TR-AppR/" + path, TApp(f, a2)))
    elif isinstance(m, TNameApp):
        f = m.fn
        if isinstance(f, TNameAbs):
            out.append(("TR-Sigma", name_subst(f.body, f.var, m.name)))
        if isinstance(f, TChoice):
            out.append(("TR-DistSApp",
                        TChoice(TNameApp(f.left, m.name), f.name,
                                TNameApp(f.right, m.name))))
        for path, f2 in _ref_tgt_step(f, delta, worlds):
            out.append(("TR-SApp/" + path, TNameApp(f2, m.name)))
    elif isinstance(m, TFix):
        if isinstance(m.body, TLam):
            out.append(("TR-Fix", subst_term(m.body, m.var, m)))
    elif isinstance(m, TChoice):
        phi = normalize_name(m.name)
        for path, l2 in _ref_tgt_step(m.left, delta | {(phi, "+")}, worlds):
            out.append(("TR-ChoiceL/" + path, TChoice(l2, m.name, m.right)))
        for path, r2 in _ref_tgt_step(m.right, delta | {(phi, "-")}, worlds):
            out.append(("TR-ChoiceR/" + path, TChoice(m.left, m.name, r2)))
        if worlds and (phi, "+") in delta:
            out.append(("TR-WorldL", m.left))
        if worlds and (phi, "-") in delta:
            out.append(("TR-WorldR", m.right))
    return out


# ---------------------------------------------------------------------------
# substitution by one walker per calculus and per kind: the four walkers
# that syntax.subst_term and syntax.name_subst replaced, whose results theirs
# must equal structurally, bound names included


def reference_subst(body, x, repl):
    """Capture-avoiding ``body[x := repl]``, in either calculus."""
    if isinstance(body, SrcExpr) and isinstance(repl, SrcExpr):
        return _ref_subst_src(body, x, repl)
    if isinstance(body, TgtExpr) and isinstance(repl, TgtExpr):
        return _ref_subst_tgt(body, x, repl)
    raise TypeError(f"cannot substitute {repl!r} in {body!r}")


def _ref_subst_src(e, x, r):
    if x not in free_vars(e):
        return e
    if isinstance(e, Var):
        return r
    if isinstance(e, App):
        return App(_ref_subst_src(e.fn, x, r), _ref_subst_src(e.arg, x, r))
    if isinstance(e, Choice):
        return Choice(_ref_subst_src(e.left, x, r), _ref_subst_src(e.right, x, r))
    if isinstance(e, (Lam, Fix)):
        cls = type(e)
        if e.var in free_vars(r):
            y = fresh(e.var, free_vars(r) | free_vars(e.body) | {x})
            body = _ref_subst_src(e.body, e.var, Var(y))
            return cls(y, e.ann, _ref_subst_src(body, x, r))
        return cls(e.var, e.ann, _ref_subst_src(e.body, x, r))
    raise TypeError(f"not a source expression: {e!r}")


def _ref_subst_tgt(m, x, r):
    if x not in free_vars(m):
        return m
    if isinstance(m, TVar):
        return r
    if isinstance(m, TApp):
        return TApp(_ref_subst_tgt(m.fn, x, r), _ref_subst_tgt(m.arg, x, r))
    if isinstance(m, TNameApp):
        return TNameApp(_ref_subst_tgt(m.fn, x, r), m.name)
    if isinstance(m, TChoice):
        return TChoice(_ref_subst_tgt(m.left, x, r), m.name,
                       _ref_subst_tgt(m.right, x, r))
    if isinstance(m, (TLam, TFix)):
        cls = type(m)
        if m.var in free_vars(r):
            y = fresh(m.var, free_vars(r) | free_vars(m.body) | {x})
            body = _ref_subst_tgt(m.body, m.var, TVar(y))
            return cls(y, m.ann, _ref_subst_tgt(body, x, r))
        return cls(m.var, m.ann, _ref_subst_tgt(m.body, x, r))
    if isinstance(m, TNameAbs):
        # the replacement's free name variables must not be captured
        if m.var in free_name_vars(r):
            g = fresh(m.var, free_name_vars(r) | free_name_vars(m.body))
            body = reference_name_subst(m.body, m.var, (g,))
            return TNameAbs(g, _ref_subst_tgt(body, x, r))
        return TNameAbs(m.var, _ref_subst_tgt(m.body, x, r))
    raise TypeError(f"not a target expression: {m!r}")


def reference_name_subst(entity, alpha, phi):
    """The name ``phi`` for the name variable ``alpha`` in a name, effect,
    target type or target term."""
    phi = normalize_name(phi)
    if isinstance(entity, tuple):
        return word_subst(entity, alpha, phi)
    if isinstance(entity, eff.Effect):
        return eff.effect_subst(entity, alpha, phi)
    if isinstance(entity, TgtType):
        return _ref_nsubst_type(entity, alpha, phi)
    if isinstance(entity, TgtExpr):
        return _ref_nsubst_expr(entity, alpha, phi)
    raise TypeError(f"cannot name-substitute in: {entity!r}")


def _ref_nsubst_type(t, alpha, phi):
    if alpha not in free_name_vars(t):
        return t
    if isinstance(t, TArrow):
        return TArrow(
            _ref_nsubst_type(t.arg, alpha, phi),
            eff.effect_subst(t.latent, alpha, phi),
            _ref_nsubst_type(t.res, alpha, phi),
        )
    if isinstance(t, TForall):
        if t.var in name_vars(phi):
            g = fresh(t.var, set(name_vars(phi)) | set(free_name_vars(t)) | {alpha})
            t = TForall(
                g,
                eff.effect_subst(t.latent, t.var, (g,)),
                _ref_nsubst_type(t.body, t.var, (g,)),
            )
        return TForall(
            t.var,
            eff.effect_subst(t.latent, alpha, phi),
            _ref_nsubst_type(t.body, alpha, phi),
        )
    raise TypeError(f"not a target type: {t!r}")


def _ref_nsubst_expr(m, alpha, phi):
    if alpha not in free_name_vars(m):
        return m
    if isinstance(m, TApp):
        return TApp(_ref_nsubst_expr(m.fn, alpha, phi),
                    _ref_nsubst_expr(m.arg, alpha, phi))
    if isinstance(m, (TLam, TFix)):
        return type(m)(m.var, _ref_nsubst_type(m.ann, alpha, phi),
                       _ref_nsubst_expr(m.body, alpha, phi))
    if isinstance(m, TNameApp):
        return TNameApp(_ref_nsubst_expr(m.fn, alpha, phi),
                        word_subst(m.name, alpha, phi))
    if isinstance(m, TChoice):
        return TChoice(
            _ref_nsubst_expr(m.left, alpha, phi),
            word_subst(m.name, alpha, phi),
            _ref_nsubst_expr(m.right, alpha, phi),
        )
    if isinstance(m, TNameAbs):
        if m.var in name_vars(phi):
            g = fresh(m.var, set(name_vars(phi)) | set(free_name_vars(m)) | {alpha})
            m = TNameAbs(g, _ref_nsubst_expr(m.body, m.var, (g,)))
        return TNameAbs(m.var, _ref_nsubst_expr(m.body, alpha, phi))
    raise TypeError(f"not a target expression: {m!r}")


# ---------------------------------------------------------------------------
# subtyping that renames both quantifiers: the rule that target.subtype's
# binder alignment replaced, with latent inclusion decided by the product
# search alone, so that neither of includes' shortcuts is used


def reference_subtype(t1, t2):
    """``t1 <: t2``, renaming the binders of two quantified types whose
    keys differ to one variable fresh for both."""
    if canon_key(t1) == canon_key(t2):
        return True
    if isinstance(t1, TArrow) and isinstance(t2, TArrow):
        return (reference_subtype(t2.arg, t1.arg)
                and eff.inclusion_witness(t1.latent, t2.latent) is None
                and reference_subtype(t1.res, t2.res))
    if isinstance(t1, TForall) and isinstance(t2, TForall):
        g = fresh("g", free_name_vars(t1) | free_name_vars(t2)
                  | {t1.var, t2.var})
        l1 = name_subst(t1.latent, t1.var, (g,))
        l2 = name_subst(t2.latent, t2.var, (g,))
        b1 = name_subst(t1.body, t1.var, (g,))
        b2 = name_subst(t2.body, t2.var, (g,))
        return (eff.inclusion_witness(l1, l2) is None
                and reference_subtype(b1, b2))
    return False


# ---------------------------------------------------------------------------
# the tokenizer that tries every symbol at every character: the scanner that
# parser._tokenize's one compiled pattern replaced

_REF_SYMBOLS = ["/\\", "||", "-{", "->", "\\", "(", ")", "{", "}", ":", ".",
                "@", "+", "*", ",", "-"]
_REF_KEYWORDS = {"fix", "all", "nat", "add", "o", "b", "eps"}
_REF_DIGITS = "0123456789"  # numerals are ASCII; str.isdigit also accepts '²'


def reference_tokenize(text: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            if c == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1
            continue
        hit = None
        for s in _REF_SYMBOLS:
            if text.startswith(s, i):
                hit = s
                break
        if hit:
            toks.append(_Tok("sym", hit, i, line, col))
            i += len(hit)
            col += len(hit)
            continue
        if c in _REF_DIGITS:
            j = i
            while j < n and text[j] in _REF_DIGITS:
                j += 1
            toks.append(_Tok("num", text[i:j], i, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            toks.append(_Tok("kw" if word in _REF_KEYWORDS else "ident",
                             word, i, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i, line, col)
    toks.append(_Tok("eof", "", n, line, col))
    return toks
