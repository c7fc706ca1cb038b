"""The named-choice calculus: worlds, evaluation, subtyping, effect checking.

A world is a set of polarized names; a named choice ``(M ||{phi} N)`` may
collapse to its left branch exactly when ``phi+`` is in the current world,
and stepping inside a branch extends the world with the matching polarity.
The effect checker is an algorithmic reading of the declarative rules: every
inferred effect is kept in prefix normal form (a literal/variable prefix
followed by a closed regular effect), rule instances align their operands on
a longest common prefix, and all side conditions are discharged by the
regular-language decision procedures.

The checker reuses what it has.  ``effect_pnf`` reads a literal head off
the structure of the effect, and derives atom by atom only past it.
Subtyping two quantified types aligns their binders instead of renaming
both.  It compares them as they are when they bind one variable, and
renames the left binder to the right one when that variable is not free on
the left.  Only otherwise does it rename both to a fresh variable.  The
answer is the same in each case, since inclusion and subtyping do not
change under a renaming of free name variables that is one to one.  An
environment carries its set of name variables, so a well-formedness check
reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import effects as eff, source
from .names import format_name, is_name_var, name_vars, normalize_name
from .printer import format_effect, format_type
from .source import (
    FixBodyNotLambda, NonFunctionApplication, SrcTypeError, TypeMismatch,
    UnboundVariable, bfs_eval,
)
from .syntax import (
    TAdd, TApp, TArrow, TChoice, TFix, TForall, TLam, TNAT, TNameAbs,
    TNameApp, TNat, TNum, TVar, TgtExpr, TgtType, canon_key, fresh,
    free_name_vars, name_subst,
)

_CACHE_SIZE = 1 << 12  # entries of each lru_cache below


class TgtTypeError(SrcTypeError):
    pass


class EffectAlignError(TgtTypeError):
    pass


class EffectCoverageError(TgtTypeError):
    pass


class DisjointnessViolation(TgtTypeError):
    def __init__(self, first, second, witness):
        self.first = first
        self.second = second
        self.witness = witness
        super().__init__(f"overlapping effects {format_effect(first)} and "
                         f"{format_effect(second)}, shared word "
                         f"{format_name(witness)}")


class NonClosedResidual(TgtTypeError):
    pass


class BuiltinRejected(TgtTypeError):
    pass


class IllFormed(TgtTypeError):
    pass


# ---------------------------------------------------------------------------
# environments

@dataclass(frozen=True)
class TargetEnv:
    """An ordered environment of name variables and typed term variables.

    ``names`` is the set of name variables in ``entries``, kept as the
    environment grows, so a well-formedness check reads it, not rebuilds it.
    """

    entries: tuple = ()
    names: frozenset = field(default=frozenset(), compare=False, repr=False)

    def push_name(self, alpha: str) -> "TargetEnv":
        return TargetEnv(self.entries + (("name", alpha),), self.names | {alpha})

    def push_term(self, x: str, t: TgtType) -> "TargetEnv":
        return TargetEnv(self.entries + (("term", x, t),), self.names)

    def lookup(self, x: str):
        for entry in reversed(self.entries):
            if entry[0] == "term" and entry[1] == x:
                return entry[2]
        return None

    def has_name(self, alpha: str) -> bool:
        return alpha in self.names

    def bound_names(self) -> frozenset:
        return self.names


def wf_check(env: TargetEnv, entity) -> bool:
    """Well-formedness of a name, effect or target type in ``env``."""
    if isinstance(entity, tuple):
        return name_vars(entity) <= env.names
    if isinstance(entity, eff.Effect):
        return eff.effect_vars(entity) <= env.names
    if isinstance(entity, TNat):
        return True
    if isinstance(entity, TArrow):
        return (wf_check(env, entity.arg) and wf_check(env, entity.latent)
                and wf_check(env, entity.res))
    if isinstance(entity, TForall):
        if env.has_name(entity.var):
            return False
        inner = env.push_name(entity.var)
        return wf_check(inner, entity.latent) and wf_check(inner, entity.body)
    raise TypeError(f"cannot check well-formedness of: {entity!r}")


# ---------------------------------------------------------------------------
# subtyping

def subtype(t1: TgtType, t2: TgtType) -> bool:
    if canon_key(t1) == canon_key(t2):  # reflexive up to alpha-equivalence
        return True
    if isinstance(t1, TArrow) and isinstance(t2, TArrow):
        return (subtype(t2.arg, t1.arg)
                and eff.includes(t1.latent, t2.latent)
                and subtype(t1.res, t2.res))
    if isinstance(t1, TForall) and isinstance(t2, TForall):
        l1, b1, l2, b2 = t1.latent, t1.body, t2.latent, t2.body
        if t1.var != t2.var:
            # align the binders: rename the left one to the right one when
            # that captures nothing, else both to a fresh variable
            g = t2.var
            if g in free_name_vars(t1):
                g = fresh("g", free_name_vars(t1) | free_name_vars(t2)
                          | {t1.var, t2.var})
                l2 = name_subst(l2, t2.var, (g,))
                b2 = name_subst(b2, t2.var, (g,))
            l1 = name_subst(l1, t1.var, (g,))
            b1 = name_subst(b1, t1.var, (g,))
        return eff.includes(l1, l2) and subtype(b1, b2)
    return False


def type_join(t1: TgtType, t2: TgtType) -> TgtType:
    """Least upper bound in the subtype order; raises TypeMismatch."""
    if subtype(t1, t2):
        return t2
    if subtype(t2, t1):
        return t1
    if isinstance(t1, TArrow) and isinstance(t2, TArrow):
        return TArrow(type_meet(t1.arg, t2.arg),
                      eff.alt(t1.latent, t2.latent),
                      type_join(t1.res, t2.res))
    if isinstance(t1, TForall) and isinstance(t2, TForall):
        g = fresh("g", free_name_vars(t1) | free_name_vars(t2)
                  | {t1.var, t2.var})
        return TForall(g,
                       eff.alt(name_subst(t1.latent, t1.var, (g,)),
                               name_subst(t2.latent, t2.var, (g,))),
                       type_join(name_subst(t1.body, t1.var, (g,)),
                                 name_subst(t2.body, t2.var, (g,))))
    raise TypeMismatch(f"no common supertype of {format_type(t1)} and "
                       f"{format_type(t2)}")


def type_meet(t1: TgtType, t2: TgtType) -> TgtType:
    """Greatest lower bound where one side already bounds the other.

    Effects are not closed under intersection in this syntax, so a genuine
    meet of unrelated latent effects is rejected rather than approximated.
    """
    if subtype(t1, t2):
        return t1
    if subtype(t2, t1):
        return t2
    raise TypeMismatch(f"no common subtype of {format_type(t1)} and "
                       f"{format_type(t2)}")


# ---------------------------------------------------------------------------
# prefix normal form

@dataclass(frozen=True)
class EffectPNF:
    """Either the empty language (``bottom``) or prefix word + closed suffix."""

    bottom: bool
    prefix: tuple = ()
    suffix: eff.Effect = eff.EMPTY

    def denote(self) -> eff.Effect:
        if self.bottom:
            return eff.EMPTY
        return eff.cat(eff.Lit(self.prefix), self.suffix)


BOTTOM = EffectPNF(True)


def mk_pnf(prefix, suffix: eff.Effect) -> EffectPNF:
    if eff.is_empty_lang(suffix):
        return BOTTOM
    return EffectPNF(False, normalize_name(prefix), suffix)


@lru_cache(maxsize=_CACHE_SIZE)
def effect_pnf(e: eff.Effect) -> EffectPNF:
    """Extract the maximal forced prefix of ``e``; the residual must be closed.

    An atom is forced when every word of the language starts with it; forced
    atoms (including name variables) are peeled into the prefix.  A literal
    head gives up its whole word at once: ``Lit(w)`` leaves ``eps``, and
    ``Cat(Lit(w), r)`` leaves ``r``, which is the derivative by ``w``
    unless ``r`` itself starts with a literal that ``cat`` would merge;
    then one atom is peeled, by ``cat``, as the derivative does.  Past the
    literals, each forced atom is peeled by derivation.  Raises
    ``NonClosedResidual`` if name variables survive into the residual.
    Results are cached, boundedly, on the effect's id.
    """
    if eff.is_empty_lang(e):
        return BOTTOM
    prefix = []
    while isinstance(e, eff.Cat) and isinstance(e.left, eff.Lit) and e.left.word:
        word, rest = e.left.word, e.right
        if isinstance(rest, eff.Lit) or (isinstance(rest, eff.Cat)
                                         and isinstance(rest.left, eff.Lit)):
            prefix.append(word[0])
            e = eff.cat(eff.Lit(word[1:]), rest)
        else:
            prefix.extend(word)
            e = rest
    if isinstance(e, eff.Lit):
        prefix.extend(e.word)
        e = eff.EPS_EFF
    while not eff.nullable(e):
        first = eff.first_atoms(e)
        if len(first) != 1:
            break
        (a,) = first
        prefix.append(a)
        e = eff.deriv(e, a)
    if not eff.is_closed(e):
        raise NonClosedResidual(
            f"name variables left in effect residue: {format_effect(e)}")
    return mk_pnf(tuple(prefix), e)


def pnf_align(pnfs: list) -> tuple:
    """Re-express the inputs over their longest common prefix.

    Returns ``(prefix, suffixes)`` with each input's language equal to
    prefix · suffix.  Leftover prefix atoms are folded into the suffix as a
    leading literal; a leftover name variable cannot be (suffixes are
    closed), which raises ``EffectAlignError``.
    """
    live = [p for p in pnfs if not p.bottom]
    if not live:
        return (), [eff.EMPTY for _ in pnfs]
    common = list(live[0].prefix)
    for p in live[1:]:
        n = 0
        while n < len(common) and n < len(p.prefix) and common[n] == p.prefix[n]:
            n += 1
        del common[n:]
    prefix = tuple(common)
    suffixes = []
    for p in pnfs:
        if p.bottom:
            suffixes.append(eff.EMPTY)
            continue
        leftover = p.prefix[len(prefix):]
        bad = [a for a in leftover if is_name_var(a)]
        if bad:
            raise EffectAlignError(
                f"prefix atom {bad[0]!r} is a name variable and cannot move "
                f"into a closed suffix")
        suffixes.append(eff.cat(eff.lit(leftover), p.suffix))
    return prefix, suffixes


def _require_disjoint(s1: eff.Effect, s2: eff.Effect):
    w = eff.overlap_witness(s1, s2)
    if w is not None:
        raise DisjointnessViolation(s1, s2, w)


# ---------------------------------------------------------------------------
# effect typing

@lru_cache(maxsize=_CACHE_SIZE)
def effect_typecheck(env: TargetEnv, m: TgtExpr) -> tuple:
    """Infer ``(type, EffectPNF)`` for ``m`` or raise a typing error.

    Results are cached, boundedly: a successor of a typed term shares all
    but its changed spine with it, so retyping it reuses the rest.
    """
    if isinstance(m, TVar):
        t = env.lookup(m.name)
        if t is None:
            raise UnboundVariable(m.name)
        return t, BOTTOM
    if isinstance(m, TNum):
        return TNAT, BOTTOM
    if isinstance(m, TAdd):
        raise BuiltinRejected("the demo builtin has no effect typing")
    if isinstance(m, TLam):
        if not wf_check(env, m.ann):
            raise IllFormed(f"ill-formed annotation: {format_type(m.ann)}")
        bt, bp = effect_typecheck(env.push_term(m.var, m.ann), m.body)
        return TArrow(m.ann, bp.denote(), bt), BOTTOM
    if isinstance(m, TNameAbs):
        var, body = m.var, m.body
        if env.has_name(var):
            g = fresh(var, env.bound_names() | free_name_vars(body))
            body = name_subst(body, var, (g,))
            var = g
        bt, bp = effect_typecheck(env.push_name(var), body)
        return TForall(var, bp.denote(), bt), BOTTOM
    if isinstance(m, TFix):
        if not isinstance(m.body, TLam):
            raise FixBodyNotLambda("fixpoint body must be a lambda")
        if not wf_check(env, m.ann):
            raise IllFormed(f"ill-formed annotation: {format_type(m.ann)}")
        bt, _ = effect_typecheck(env.push_term(m.var, m.ann), m.body)
        if not subtype(bt, m.ann):
            raise TypeMismatch(f"fixpoint body has type {format_type(bt)}, "
                               f"annotated {format_type(m.ann)}")
        return m.ann, BOTTOM
    if isinstance(m, TApp):
        ft, fp = effect_typecheck(env, m.fn)
        if not isinstance(ft, TArrow):
            raise NonFunctionApplication("applied a non-function of type "
                                         + format_type(ft))
        at, ap = effect_typecheck(env, m.arg)
        if not subtype(at, ft.arg):
            raise TypeMismatch(f"argument has type {format_type(at)}, "
                               f"expected {format_type(ft.arg)}")
        lp = effect_pnf(ft.latent)
        prefix, (s1, s2, s3) = pnf_align([fp, ap, lp])
        _require_disjoint(s1, s2)
        _require_disjoint(s1, s3)
        _require_disjoint(s2, s3)
        return ft.res, mk_pnf(prefix, eff.alt(eff.alt(s1, s2), s3))
    if isinstance(m, TNameApp):
        ft, fp = effect_typecheck(env, m.fn)
        if not isinstance(ft, TForall):
            raise NonFunctionApplication(
                "name-applied a non-name-abstraction of type " + format_type(ft))
        if not wf_check(env, m.name):
            raise IllFormed(f"ill-formed name: {format_name(m.name)}")
        latent = name_subst(ft.latent, ft.var, m.name)
        lp = effect_pnf(latent)
        prefix, (s1, s2) = pnf_align([fp, lp])
        _require_disjoint(s1, s2)
        res = name_subst(ft.body, ft.var, m.name)
        return res, mk_pnf(prefix, eff.alt(s1, s2))
    if isinstance(m, TChoice):
        lt, lp = effect_typecheck(env, m.left)
        rt, rp = effect_typecheck(env, m.right)
        t = type_join(lt, rt)
        if not wf_check(env, m.name):
            raise IllFormed(f"ill-formed name: {format_name(m.name)}")
        np = effect_pnf(eff.Lit(normalize_name(m.name)))
        prefix, (s1, s2, s3) = pnf_align([lp, rp, np])
        branches = eff.alt(s1, s2)
        _require_disjoint(branches, s3)
        return t, mk_pnf(prefix, eff.alt(branches, s3))
    raise TypeError(f"not a target expression: {m!r}")


# ---------------------------------------------------------------------------
# reduction

def _norm_world(delta) -> frozenset:
    return frozenset((normalize_name(w), pol) for w, pol in delta)


def tgt_step_trace(m: TgtExpr, delta=frozenset()) -> list:
    """All one-step successors of ``m`` under world ``delta``.

    Returns (path, term) pairs, one per derivation.  The path names the
    rules of the derivation from the root down to the redex, joined by
    ``/``, such as ``TR-AppL/TR-ChoiceR/TR-Beta``, so a derivation that
    collapses a choice names ``TR-WorldL`` or ``TR-WorldR``.  The steps
    are ``source._step``'s, which both calculi share.
    """
    return list(source._step(m, _norm_world(delta)))


def tgt_step_all(m: TgtExpr, delta=frozenset()) -> list:
    """Successor terms under the coordinated relation, one per derivation."""
    return [t for _, t in tgt_step_trace(m, delta)]


def tgt_step_nc(m: TgtExpr) -> list:
    """Successor terms under the non-coordinated relation, one per
    derivation: the ∅-world derivations that use neither ``TR-WorldL`` nor
    ``TR-WorldR``.

    This is exact.  Only the World rules read the world, so a derivation
    that uses neither gives the same term under every world, and dropping
    them from the ∅-world derivations leaves the non-coordinated ones, in
    the order the non-coordinated relation derives them.  Those are the
    derivations ``tgt_step_all(m)`` gets, so the two share one entry of
    the step memo.
    """
    return [t for path, t in tgt_step_trace(m) if "TR-World" not in path]


def tgt_eval(m: TgtExpr, delta=frozenset(), fuel: int = 10000):
    """BFS closure of coordinated stepping; collect normal forms.

    Returns an ``EvalResult`` like the source evaluator.
    """
    delta = _norm_world(delta)
    return bfs_eval(m, lambda t: tgt_step_all(t, delta), fuel)


def tgt_eval_nc(m: TgtExpr, fuel: int = 10000):
    """Like ``tgt_eval`` but under the non-coordinated relation."""
    return bfs_eval(m, tgt_step_nc, fuel)
