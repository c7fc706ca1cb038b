"""Pretty-printing back to the concrete syntax, with minimal parentheses.

``parse(language, format(x))`` returns something alpha-equivalent to ``x``
for every AST produced by this package.
"""

from __future__ import annotations

from decimal import Decimal

from . import effects as eff
from .names import format_name
from .syntax import (
    Add, App, Arrow, Choice, Fix, Lam, Nat, Num, TAdd, TApp, TArrow, TChoice,
    TFix, TForall, TLam, TNameAbs, TNameApp, TNat, TNum, TVar, Var,
)


def format_effect(e: eff.Effect) -> str:
    return _fmt_eff(e, 0)


def _fmt_eff(e, level):
    # levels: 0 alternation, 1 concatenation, 2 starred atom
    if isinstance(e, eff.Empty):
        return "{}"
    if isinstance(e, eff.Lit):
        if not e.word:
            return "eps"
        s = " ".join(e.word)
        return _wrap(s, 1, level) if len(e.word) > 1 else s
    if isinstance(e, eff.Cat):
        return _wrap(f"{_fmt_eff(e.left, 1)} {_fmt_eff(e.right, 1)}", 1, level)
    if isinstance(e, eff.Alt):
        return _wrap(" + ".join(_fmt_eff(p, 0) for p in e.parts), 0, level)
    if isinstance(e, eff.Star):
        return f"{_fmt_eff(e.inner, 2)}*"
    raise TypeError(f"not an effect: {e!r}")


def _wrap(s, have, need):
    return f"({s})" if have < need else s


def format_type(t) -> str:
    if isinstance(t, Nat) or isinstance(t, TNat):
        return "nat"
    if isinstance(t, Arrow):
        left = format_type(t.arg)
        if isinstance(t.arg, Arrow):
            left = f"({left})"
        return f"{left} -> {format_type(t.res)}"
    if isinstance(t, TArrow):
        left = format_type(t.arg)
        if isinstance(t.arg, (TArrow, TForall)):
            left = f"({left})"
        arrow = ("->" if t.latent is eff.EMPTY
                 else f"-{{{format_effect(t.latent)}}}->")
        return f"{left} {arrow} {format_type(t.res)}"
    if isinstance(t, TForall):
        return f"all {t.var}.{{{format_effect(t.latent)}}} {format_type(t.body)}"
    raise TypeError(f"not a type: {t!r}")


def format_expr(e) -> str:
    return _fmt(e, 0)


# levels: 0 = anywhere (binders, name application), 1 = function position
# of an application, 2 = argument position (atoms only)
def _fmt(e, level):
    if isinstance(e, (Var, TVar)):
        return e.name
    if isinstance(e, (Num, TNum)):  # str(int) stops at 4,300 digits by default
        return str(Decimal(e.value))
    if isinstance(e, (Add, TAdd)):
        return "add"
    if isinstance(e, (Lam, TLam)):
        s = f"\\{e.var}:{format_type(e.ann)}. {_fmt(e.body, 0)}"
        return _wrap(s, 0, level)
    if isinstance(e, (Fix, TFix)):
        s = f"fix {e.var}:{format_type(e.ann)}. {_fmt(e.body, 0)}"
        return _wrap(s, 0, level)
    if isinstance(e, TNameAbs):
        s = f"/\\{e.var}. {_fmt(e.body, 0)}"
        return _wrap(s, 0, level)
    if isinstance(e, (App, TApp)):
        s = f"{_fmt(e.fn, 1)} {_fmt(e.arg, 2)}"
        return _wrap(s, 1, level)
    if isinstance(e, TNameApp):
        s = f"{_fmt(e.fn, 1)} @ {format_name(e.name)}"
        return _wrap(s, 0, level)
    if isinstance(e, Choice):
        return f"({_fmt(e.left, 0)} || {_fmt(e.right, 0)})"
    if isinstance(e, TChoice):
        return f"({_fmt(e.left, 0)} ||{{{format_name(e.name)}}} {_fmt(e.right, 0)})"
    raise TypeError(f"not an expression: {e!r}")


def format_any(x) -> str:
    """Dispatch on the AST kind: names, effects, types, or expressions."""
    if isinstance(x, tuple):
        return format_name(x)
    if isinstance(x, eff.Effect):
        return format_effect(x)
    if isinstance(x, (Nat, Arrow, TNat, TArrow, TForall)):
        return format_type(x)
    return format_expr(x)
