"""Translation between the two calculi.

``compile_expr`` threads a seed word through the program so every choice
gets a globally distinct name built from one name variable; ``erase`` maps
named terms back to plain ones by turning name abstraction/application into
dummy lambda abstraction/application; ``pseudo_compile`` inserts those same
dummies directly on the source side, so erasing a compiled term gives the
pseudo-compiled original.
"""

from __future__ import annotations

from functools import lru_cache

from .names import OFF, ON, normalize_name
from .syntax import (
    ADD, Add, App, Arrow, Choice, Fix, Lam, NAT, Nat, Num, SrcExpr, SrcType,
    TAdd, TApp, TArrow, TChoice, TFix, TForall, TLam, TNAT, TNameAbs,
    TNameApp, TNat, TNum, TVar, TgtExpr, TgtType, Var, alpha_eq, canon_key,
    free_vars, fresh,
)
from .target import TargetEnv

ID_NAT = Lam("x", NAT, Var("x"))          # the dummy argument
DUMMY_TY = Arrow(NAT, NAT)                # its type

_CACHE_SIZE = 1 << 12  # entries of each lru_cache below


class BuiltinNotCompilable(Exception):
    pass


def compile_expr(e: SrcExpr, alpha: str = "a", seed=()) -> TgtExpr:
    """Compile ``e`` under name variable ``alpha`` and closed seed word."""
    seed = normalize_name(seed)
    counter = [0]
    return _comp(e, alpha, seed, alpha, counter)


def _fresh_nvar(avoid: str, counter) -> str:
    while True:
        counter[0] += 1
        cand = f"g{counter[0]}"
        if cand != avoid:
            return cand


def _comp(e, alpha, seed, root_alpha, counter):
    if isinstance(e, Var):
        return TVar(e.name)
    if isinstance(e, Num):
        return TNum(e.value)
    if isinstance(e, Add):
        raise BuiltinNotCompilable("demo builtins have no compilation")
    if isinstance(e, App):
        fn = _comp(e.fn, alpha, seed + (ON, ON), root_alpha, counter)
        arg = _comp(e.arg, alpha, seed + (ON, OFF), root_alpha, counter)
        return TNameApp(TApp(fn, arg), (alpha,) + seed + (OFF,))
    if isinstance(e, Lam):
        beta = _fresh_nvar(root_alpha, counter)
        body = _comp(e.body, beta, seed, root_alpha, counter)
        return TLam(e.var, compile_type(e.ann), TNameAbs(beta, body))
    if isinstance(e, Fix):
        return TFix(e.var, compile_type(e.ann),
                    _comp(e.body, alpha, seed, root_alpha, counter))
    if isinstance(e, Choice):
        left = _comp(e.left, alpha, seed + (ON,), root_alpha, counter)
        right = _comp(e.right, alpha, seed + (ON,), root_alpha, counter)
        return TChoice(left, (alpha,) + seed + (OFF,), right)
    raise TypeError(f"not a source expression: {e!r}")


def compile_type(t: SrcType) -> TgtType:
    counter = [0]
    return _comp_ty(t, counter)


def _comp_ty(t, counter):
    import cochoice.effects as eff

    if isinstance(t, Nat):
        return TNAT
    if isinstance(t, Arrow):
        counter[0] += 1
        a = f"a{counter[0]}"
        latent = eff.cat(eff.Lit((a,)),
                         eff.star(eff.alt(eff.Lit((ON,)), eff.Lit((OFF,)))))
        return TArrow(_comp_ty(t.arg, counter), eff.EMPTY,
                      TForall(a, latent, _comp_ty(t.res, counter)))
    raise TypeError(f"not a source type: {t!r}")


def compile_env(gamma: dict) -> TargetEnv:
    env = TargetEnv()
    for x, t in gamma.items():
        env = env.push_term(x, compile_type(t))
    return env


# ---------------------------------------------------------------------------
# name erasure

@lru_cache(maxsize=_CACHE_SIZE)
def erase(m: TgtExpr) -> SrcExpr:
    if isinstance(m, TVar):
        return Var(m.name)
    if isinstance(m, TNum):
        return Num(m.value)
    if isinstance(m, TAdd):
        return ADD
    if isinstance(m, TApp):
        return App(erase(m.fn), erase(m.arg))
    if isinstance(m, TLam):
        return Lam(m.var, erase_type(m.ann), erase(m.body))
    if isinstance(m, TFix):
        return Fix(m.var, erase_type(m.ann), erase(m.body))
    if isinstance(m, TNameApp):
        return App(erase(m.fn), ID_NAT)
    if isinstance(m, TNameAbs):
        body = erase(m.body)
        return Lam(fresh("y", free_vars(body)), DUMMY_TY, body)
    if isinstance(m, TChoice):
        return Choice(erase(m.left), erase(m.right))
    raise TypeError(f"not a target expression: {m!r}")


@lru_cache(maxsize=_CACHE_SIZE)
def erase_type(t: TgtType) -> SrcType:
    if isinstance(t, TNat):
        return NAT
    if isinstance(t, TArrow):
        return Arrow(erase_type(t.arg), erase_type(t.res))
    if isinstance(t, TForall):
        return Arrow(DUMMY_TY, erase_type(t.body))
    raise TypeError(f"not a target type: {t!r}")


# ---------------------------------------------------------------------------
# pseudo compilation

@lru_cache(maxsize=_CACHE_SIZE)
def pseudo_compile(e: SrcExpr) -> SrcExpr:
    if isinstance(e, Var):
        return e
    if isinstance(e, Num):
        return e
    if isinstance(e, Add):
        raise BuiltinNotCompilable("demo builtins have no compilation")
    if isinstance(e, App):
        return App(App(pseudo_compile(e.fn), pseudo_compile(e.arg)), ID_NAT)
    if isinstance(e, Lam):
        body = pseudo_compile(e.body)
        return Lam(e.var, pseudo_type(e.ann),
                   Lam(fresh("y", free_vars(body)), DUMMY_TY, body))
    if isinstance(e, Fix):
        return Fix(e.var, pseudo_type(e.ann), pseudo_compile(e.body))
    if isinstance(e, Choice):
        return Choice(pseudo_compile(e.left), pseudo_compile(e.right))
    raise TypeError(f"not a source expression: {e!r}")


def adm(p: SrcExpr, memo: dict) -> SrcExpr:
    """Contract ``(\\y:DUMMY_TY. b) ID_NAT`` to ``b`` (``y`` not free in ``b``)
    and ``(l || r) ID_NAT`` to ``(l ID_NAT || r ID_NAT)`` in ``p``, under
    binders too.  ``memo`` maps ``canon_key(t)`` to ``adm(t)``."""
    k = canon_key(p)
    if k not in memo:
        memo[k] = _adm(p, memo)
    return memo[k]


def _adm(p, memo):  # returns p itself when it has no such redex
    if isinstance(p, App):
        fn, arg = adm(p.fn, memo), adm(p.arg, memo)
        if alpha_eq(arg, ID_NAT):
            if isinstance(fn, Lam) and fn.ann == DUMMY_TY \
                    and fn.var not in free_vars(fn.body):
                return fn.body
            if isinstance(fn, Choice):
                return Choice(adm(App(fn.left, arg), memo),
                              adm(App(fn.right, arg), memo))
        return p if fn is p.fn and arg is p.arg else App(fn, arg)
    if isinstance(p, (Lam, Fix)):
        body = adm(p.body, memo)
        return p if body is p.body else type(p)(p.var, p.ann, body)
    if isinstance(p, Choice):
        lhs, rhs = adm(p.left, memo), adm(p.right, memo)
        return p if lhs is p.left and rhs is p.right else Choice(lhs, rhs)
    return p


@lru_cache(maxsize=_CACHE_SIZE)
def pseudo_type(t: SrcType) -> SrcType:
    if isinstance(t, Nat):
        return NAT
    if isinstance(t, Arrow):
        return Arrow(pseudo_type(t.arg), Arrow(DUMMY_TY, pseudo_type(t.res)))
    raise TypeError(f"not a source type: {t!r}")


def collect_choice_names(m: TgtExpr) -> list:
    """Every named-choice label in ``m``, in preorder."""
    if isinstance(m, TChoice):
        return (collect_choice_names(m.left) + [normalize_name(m.name)]
                + collect_choice_names(m.right))
    if isinstance(m, (TApp,)):
        return collect_choice_names(m.fn) + collect_choice_names(m.arg)
    if isinstance(m, (TLam, TFix, TNameAbs)):
        return collect_choice_names(m.body)
    if isinstance(m, TNameApp):
        return collect_choice_names(m.fn)
    return []
