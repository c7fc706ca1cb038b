"""Brute-force reference implementations used to cross-check the effect
decision procedures, the prefix normal form, the alpha-equivalence keys and
the weak bisimulation check, plus a deterministic random-effect generator."""

from cochoice import effects as eff
from cochoice.compiler import pseudo_compile
from cochoice.harness import COUNTEREXAMPLE, FUEL_EXHAUSTED, OK, CheckReport
from cochoice.names import is_name_var, normalize_name
from cochoice.syntax import (
    Add, App, Arrow, Choice, Fix, Lam, Nat, Num, TAdd, TApp, TArrow, TChoice,
    TFix, TForall, TLam, TNameAbs, TNameApp, TNat, TNum, TVar, Var,
    canon_key,
)
from cochoice.source import Stop, explore, src_step_all
from cochoice.target import BOTTOM, EffectPNF, NonClosedResidual

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
        raise NonClosedResidual(f"name variables left in effect residue: {e}")
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
