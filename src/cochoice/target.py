"""The named-choice calculus: worlds, evaluation, subtyping, effect checking.

A world is a set of polarized names; a named choice ``(M ||{phi} N)`` may
collapse to its left branch exactly when ``phi+`` is in the current world,
and stepping inside a branch extends the world with the matching polarity.
The effect checker is an algorithmic reading of the declarative rules: every
inferred effect is kept in prefix normal form (a literal/variable prefix
followed by a closed regular effect), rule instances align their operands on
a longest common prefix, and all side conditions are discharged by the
regular-language decision procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import effects as eff
from .names import is_name_var, name_vars, normalize_name
from .source import (
    FixBodyNotLambda, NonFunctionApplication, SrcTypeError, TypeMismatch,
    UnboundVariable, bfs_eval,
)
from .syntax import (
    TAdd, TApp, TArrow, TChoice, TFix, TForall, TLam, TNAT, TNameAbs,
    TNameApp, TNat, TNum, TVar, TgtExpr, TgtType, canon_key, fresh,
    free_name_vars, is_tgt_value, name_subst, subst_term,
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
        super().__init__(f"overlapping effects {first} and {second}, "
                         f"shared word {witness}")


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
    """An ordered environment of name variables and typed term variables."""

    entries: tuple = ()

    def push_name(self, alpha: str) -> "TargetEnv":
        return TargetEnv(self.entries + (("name", alpha),))

    def push_term(self, x: str, t: TgtType) -> "TargetEnv":
        return TargetEnv(self.entries + (("term", x, t),))

    def lookup(self, x: str):
        for entry in reversed(self.entries):
            if entry[0] == "term" and entry[1] == x:
                return entry[2]
        return None

    def has_name(self, alpha: str) -> bool:
        return ("name", alpha) in self.entries

    def bound_names(self) -> frozenset:
        return frozenset(e[1] for e in self.entries if e[0] == "name")

    def term_vars(self) -> frozenset:
        return frozenset(e[1] for e in self.entries if e[0] == "term")


def wf_check(env: TargetEnv, entity) -> bool:
    """Well-formedness of a name, effect, target type, or environment."""
    if isinstance(entity, TargetEnv):
        seen_names: set = set()
        seen_terms: set = set()
        so_far = TargetEnv()
        for entry in entity.entries:
            if entry[0] == "name":
                if entry[1] in seen_names:
                    return False
                seen_names.add(entry[1])
                so_far = so_far.push_name(entry[1])
            else:
                if entry[1] in seen_terms:
                    return False
                seen_terms.add(entry[1])
                if not wf_check(so_far, entry[2]):
                    return False
                so_far = so_far.push_term(entry[1], entry[2])
        return True
    if isinstance(entity, tuple):
        bound = env.bound_names()
        return all(v in bound for v in name_vars(entity))
    if isinstance(entity, eff.Effect):
        bound = env.bound_names()
        return all(v in bound for v in eff.effect_vars(entity))
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
        g = fresh("g", free_name_vars(t1) | free_name_vars(t2)
                  | {t1.var, t2.var})
        l1 = name_subst(t1.latent, t1.var, (g,))
        l2 = name_subst(t2.latent, t2.var, (g,))
        b1 = name_subst(t1.body, t1.var, (g,))
        b2 = name_subst(t2.body, t2.var, (g,))
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
    raise TypeMismatch(f"no common supertype of {t1} and {t2}")


def type_meet(t1: TgtType, t2: TgtType) -> TgtType:
    """Greatest lower bound where one side already bounds the other.

    Effects are not closed under intersection in this syntax, so a genuine
    meet of unrelated latent effects is rejected rather than approximated.
    """
    if subtype(t1, t2):
        return t1
    if subtype(t2, t1):
        return t2
    raise TypeMismatch(f"no common subtype of {t1} and {t2}")


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
    atoms (including name variables) are peeled into the prefix by
    derivation.  Raises ``NonClosedResidual`` if name variables survive into
    the residual.  Results are cached, boundedly, on the effect's id.
    """
    if eff.is_empty_lang(e):
        return BOTTOM
    prefix = []
    while not eff.nullable(e):
        first = eff.first_atoms(e)
        if len(first) != 1:
            break
        (a,) = first
        prefix.append(a)
        e = eff.deriv(e, a)
    if not eff.is_closed(e):
        raise NonClosedResidual(
            f"name variables left in effect residue: {e}")
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
            raise IllFormed(f"ill-formed annotation: {m.ann}")
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
            raise IllFormed(f"ill-formed annotation: {m.ann}")
        bt, _ = effect_typecheck(env.push_term(m.var, m.ann), m.body)
        if not subtype(bt, m.ann):
            raise TypeMismatch(f"fixpoint body has type {bt}, annotated {m.ann}")
        return m.ann, BOTTOM
    if isinstance(m, TApp):
        ft, fp = effect_typecheck(env, m.fn)
        if not isinstance(ft, TArrow):
            raise NonFunctionApplication(f"applied a non-function of type {ft}")
        at, ap = effect_typecheck(env, m.arg)
        if not subtype(at, ft.arg):
            raise TypeMismatch(f"argument has type {at}, expected {ft.arg}")
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
                f"name-applied a non-name-abstraction of type {ft}")
        if not wf_check(env, m.name):
            raise IllFormed(f"ill-formed name: {m.name}")
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
            raise IllFormed(f"ill-formed name: {m.name}")
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


def tgt_step_trace(m: TgtExpr, delta=frozenset(), worlds: bool = True) -> list:
    """All one-step successors of ``m`` under world ``delta``.

    Returns (rule, term) pairs, the rule being the one applied at the root.
    With ``worlds=False`` the two collapse rules are disabled and ``delta``
    is ignored, which is the non-coordinated relation.
    """
    delta = _norm_world(delta) if worlds else frozenset()
    return _step(m, delta, worlds)


def _step(m, delta, worlds):
    out = []
    if isinstance(m, TApp):
        f, a = m.fn, m.arg
        if isinstance(f, TLam) and is_tgt_value(a):
            out.append(("TR-Beta", subst_term(f.body, f.var, a)))
        if isinstance(f, TApp) and isinstance(f.fn, TAdd) \
                and isinstance(f.arg, TNum) and isinstance(a, TNum):
            out.append(("TR-Add", TNum(f.arg.value + a.value)))
        if isinstance(f, TChoice):
            out.append(("TR-DistAppL",
                        TChoice(TApp(f.left, a), f.name, TApp(f.right, a))))
        if isinstance(a, TChoice) and is_tgt_value(f):
            out.append(("TR-DistAppR",
                        TChoice(TApp(f, a.left), a.name, TApp(f, a.right))))
        for _, f2 in _step(f, delta, worlds):
            out.append(("TR-AppL", TApp(f2, a)))
        if is_tgt_value(f):
            for _, a2 in _step(a, delta, worlds):
                out.append(("TR-AppR", TApp(f, a2)))
    elif isinstance(m, TNameApp):
        f = m.fn
        if isinstance(f, TNameAbs):
            out.append(("TR-Sigma", name_subst(f.body, f.var, m.name)))
        if isinstance(f, TChoice):
            out.append(("TR-DistSApp",
                        TChoice(TNameApp(f.left, m.name), f.name,
                                TNameApp(f.right, m.name))))
        for _, f2 in _step(f, delta, worlds):
            out.append(("TR-SApp", TNameApp(f2, m.name)))
    elif isinstance(m, TFix):
        if isinstance(m.body, TLam):
            out.append(("TR-Fix", subst_term(m.body, m.var, m)))
    elif isinstance(m, TChoice):
        phi = normalize_name(m.name)
        for _, l2 in _step(m.left, delta | {(phi, "+")}, worlds):
            out.append(("TR-ChoiceL", TChoice(l2, m.name, m.right)))
        for _, r2 in _step(m.right, delta | {(phi, "-")}, worlds):
            out.append(("TR-ChoiceR", TChoice(m.left, m.name, r2)))
        if worlds and (phi, "+") in delta:
            out.append(("TR-WorldL", m.left))
        if worlds and (phi, "-") in delta:
            out.append(("TR-WorldR", m.right))
    return out


def tgt_step_all(m: TgtExpr, delta=frozenset()) -> list:
    """Successor terms under the coordinated relation, deduplicated."""
    return _dedup(t for _, t in tgt_step_trace(m, delta, worlds=True))


def tgt_step_nc(m: TgtExpr) -> list:
    """Successor terms under the non-coordinated relation."""
    return _dedup(t for _, t in tgt_step_trace(m, worlds=False))


def _dedup(terms):
    seen = set()
    out = []
    for t in terms:
        k = canon_key(t)
        if k not in seen:
            seen.add(k)
            out.append(t)
    return out


def tgt_eval(m: TgtExpr, delta=frozenset(), fuel: int = 10000):
    """BFS closure of coordinated stepping; collect normal forms.

    Returns an ``EvalResult`` like the source evaluator.
    """
    delta = _norm_world(delta)
    return bfs_eval(m, lambda t: tgt_step_all(t, delta), fuel, _is_answer)


def tgt_eval_nc(m: TgtExpr, fuel: int = 10000):
    """Like ``tgt_eval`` but under the non-coordinated relation."""
    return bfs_eval(m, tgt_step_nc, fuel, _is_answer)


def _is_answer(t) -> bool:
    if isinstance(t, TChoice):
        return _is_answer(t.left) and _is_answer(t.right)
    return is_tgt_value(t)
