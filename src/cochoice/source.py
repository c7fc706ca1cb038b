"""The plain-choice calculus: typing and small-step reduction.

Choices never collapse here: ``(e1 || e2)`` steps inside either branch, and
application distributes over a choice in function or argument position at
call time, so every branch combination gets explored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    ADD, Add, App, Arrow, Choice, Fix, Lam, NAT, Nat, Num, SrcExpr, SrcType,
    Var, is_src_value, subst_term,
)


class SrcTypeError(Exception):
    pass


class UnboundVariable(SrcTypeError):
    pass


class TypeMismatch(SrcTypeError):
    pass


class NonFunctionApplication(SrcTypeError):
    pass


class FixBodyNotLambda(SrcTypeError):
    pass


ADD_TYPE = Arrow(NAT, Arrow(NAT, NAT))


def src_typecheck(e: SrcExpr, env: dict | None = None) -> SrcType:
    """Infer the type of ``e`` under ``env`` or raise ``SrcTypeError``."""
    env = dict(env) if env else {}
    return _infer(e, env)


def _infer(e, env):
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(e.name)
        return env[e.name]
    if isinstance(e, Num):
        return NAT
    if isinstance(e, Add):
        return ADD_TYPE
    if isinstance(e, Lam):
        res = _infer(e.body, {**env, e.var: e.ann})
        return Arrow(e.ann, res)
    if isinstance(e, Fix):
        if not isinstance(e.body, Lam):
            raise FixBodyNotLambda("fixpoint body must be a lambda")
        got = _infer(e.body, {**env, e.var: e.ann})
        if got != e.ann:
            raise TypeMismatch(f"fixpoint body has type {got}, annotated {e.ann}")
        return e.ann
    if isinstance(e, App):
        ft = _infer(e.fn, env)
        if not isinstance(ft, Arrow):
            raise NonFunctionApplication(f"applied a non-function of type {ft}")
        at = _infer(e.arg, env)
        if at != ft.arg:
            raise TypeMismatch(f"argument has type {at}, expected {ft.arg}")
        return ft.res
    if isinstance(e, Choice):
        lt = _infer(e.left, env)
        rt = _infer(e.right, env)
        if lt != rt:
            raise TypeMismatch(f"choice branches have types {lt} and {rt}")
        return lt
    raise TypeError(f"not a source expression: {e!r}")


# ---------------------------------------------------------------------------
# reduction

def src_step_all(e: SrcExpr) -> list[tuple[str, SrcExpr]]:
    """All one-step successors of ``e`` as (rule, term) pairs."""
    out = []
    if isinstance(e, App):
        f, a = e.fn, e.arg
        if isinstance(f, Lam) and is_src_value(a):
            out.append(("SR-Beta", subst_term(f.body, f.var, a)))
        if isinstance(f, App) and isinstance(f.fn, Add) and isinstance(f.arg, Num) \
                and isinstance(a, Num):
            out.append(("SR-Add", Num(f.arg.value + a.value)))
        if isinstance(f, Choice):
            out.append(("SR-DistAppL", Choice(App(f.left, a), App(f.right, a))))
        if isinstance(a, Choice) and is_src_value(f):
            out.append(("SR-DistAppR", Choice(App(f, a.left), App(f, a.right))))
        for _, f2 in src_step_all(f):
            out.append(("SR-AppL", App(f2, a)))
        if is_src_value(f):
            for _, a2 in src_step_all(a):
                out.append(("SR-AppR", App(f, a2)))
    elif isinstance(e, Fix):
        if isinstance(e.body, Lam):
            out.append(("SR-Fix", subst_term(e.body, e.var, e)))
    elif isinstance(e, Choice):
        for _, l2 in src_step_all(e.left):
            out.append(("SR-ChoiceL", Choice(l2, e.right)))
        for _, r2 in src_step_all(e.right):
            out.append(("SR-ChoiceR", Choice(e.left, r2)))
    return out


def choice_leaves(e: SrcExpr) -> list[SrcExpr]:
    """The multiset of non-choice leaves of a choice tree, left to right."""
    if isinstance(e, Choice):
        return choice_leaves(e.left) + choice_leaves(e.right)
    return [e]


@dataclass
class EvalResult:
    normal_forms: list = field(default_factory=list)
    exhausted: bool = False   # fuel ran out, or the state graph has a cycle
    stuck: list = field(default_factory=list)
    explored: int = 0         # states visited


def bfs_eval(start, succ_fn, fuel: int, stuck_fn=None) -> EvalResult:
    """Explore a step relation exhaustively (BFS) and collect normal forms.

    A normal form is a state with no successors.  ``exhausted`` is set when
    the fuel budget runs out with states still pending, or when the explored
    graph contains a cycle (an infinite reduction path).
    """
    from .syntax import canon_key

    res = EvalResult()
    seen = set()
    edges: dict = {}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            k = canon_key(t)
            if k in seen:
                continue
            seen.add(k)
            if res.explored >= fuel:
                res.exhausted = True
                return res
            res.explored += 1
            succ = succ_fn(t)
            if not succ:
                res.normal_forms.append(t)
                if stuck_fn is not None and not stuck_fn(t):
                    res.stuck.append(t)
            else:
                edges[k] = {canon_key(s) for s in succ}
                nxt.extend(succ)
        frontier = nxt
    if _has_cycle(edges):
        res.exhausted = True
    return res


def _has_cycle(edges: dict) -> bool:
    color: dict = {}  # 1 = on stack, 2 = done
    for root in edges:
        if root in color:
            continue
        stack = [(root, iter(edges.get(root, ())))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                c = color.get(child)
                if c == 1:
                    return True
                if c is None:
                    color[child] = 1
                    stack.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def src_eval(e: SrcExpr, fuel: int = 10000) -> EvalResult:
    """All normal forms reachable from ``e``; see ``bfs_eval``."""
    return bfs_eval(e, lambda t: [s for _, s in src_step_all(t)], fuel,
                    _is_answer)


def _is_answer(t) -> bool:
    if isinstance(t, Choice):
        return _is_answer(t.left) and _is_answer(t.right)
    return is_src_value(t)
