"""The plain-choice calculus: typing and small-step reduction; the one
step relation of both calculi; and the bounded search that explores them.

Choices never collapse here: ``(e1 || e2)`` steps inside either branch, and
application distributes over a choice in function or argument position at
call time, so every branch combination gets explored.  The named-choice
calculus reduces by the same rules, plus its own (see ``_step``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from .names import normalize_name
from .printer import format_type
from .syntax import (
    Add, App, Arrow, Choice, Fix, Lam, NAT, Num, SrcExpr, SrcType, TAdd, TApp,
    TChoice, TFix, TLam, TNameAbs, TNameApp, TNum, TgtExpr, Var, canon_key,
    is_answer, is_value, name_subst, subst_term,
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
            raise TypeMismatch(f"fixpoint body has type {format_type(got)}, "
                               f"annotated {format_type(e.ann)}")
        return e.ann
    if isinstance(e, App):
        ft = _infer(e.fn, env)
        if not isinstance(ft, Arrow):
            raise NonFunctionApplication("applied a non-function of type "
                                         + format_type(ft))
        at = _infer(e.arg, env)
        if at != ft.arg:
            raise TypeMismatch(f"argument has type {format_type(at)}, "
                               f"expected {format_type(ft.arg)}")
        return ft.res
    if isinstance(e, Choice):
        lt = _infer(e.left, env)
        rt = _infer(e.right, env)
        if lt != rt:
            raise TypeMismatch(f"choice branches have types {format_type(lt)} "
                               f"and {format_type(rt)}")
        return lt
    raise TypeError(f"not a source expression: {e!r}")


# ---------------------------------------------------------------------------
# reduction, of either calculus

_STEP_CACHE_SIZE = 1 << 10  # entries of _STEPS
_STEPS: dict = {}  # (term, world) -> (path, successor) pairs, least recent first
_EMPTY = frozenset()  # the world a source term steps under

_APP, _FIX, _CHOICE = (App, TApp), (Fix, TFix), (Choice, TChoice)
_STEPPING = _APP + _FIX + _CHOICE + (TNameApp,)


def src_step_all(e: SrcExpr) -> list[tuple[str, SrcExpr]]:
    """All one-step successors of ``e`` as (path, term) pairs, one per
    derivation; the path names its rules from the root down to the redex,
    joined by ``/``, such as ``SR-AppR/SR-DistAppL``."""
    return list(_step(e, _EMPTY))


def _step(m, world) -> tuple:
    """The (path, successor) pairs of a source term, or of a target term
    under the normalized world ``world``.  The rules of the plain-choice
    calculus are named ``SR-…`` and hold in the named-choice one as
    ``TR-…``, which adds the World rules of a named choice and the rules of
    name application.  Memoized per term and world in ``_STEPS``, an LRU of
    ``_STEP_CACHE_SIZE`` entries.  A successor shares every subterm its
    step left alone, so stepping it answers those from the memo, and a hit
    hands out the successor objects built before.  Terms that cannot step
    stay out of it."""
    if not isinstance(m, _STEPPING):
        return ()
    key = (m, world)
    out = _STEPS.pop(key, None)
    if out is None:
        out = []
        pre = "TR-" if isinstance(m, TgtExpr) else "SR-"
        if isinstance(m, _APP):
            app, f, a = type(m), m.fn, m.arg
            if isinstance(f, (Lam, TLam)) and is_value(a):
                out.append((pre + "Beta", subst_term(f.body, f.var, a)))
            if isinstance(f, _APP) and isinstance(f.fn, (Add, TAdd)) \
                    and isinstance(f.arg, (Num, TNum)) \
                    and isinstance(a, (Num, TNum)):
                out.append((pre + "Add", type(a)(f.arg.value + a.value)))
            if isinstance(f, _CHOICE):
                out.append((pre + "DistAppL",
                            _rechoice(f, app(f.left, a), app(f.right, a))))
            if isinstance(a, _CHOICE) and is_value(f):
                out.append((pre + "DistAppR",
                            _rechoice(a, app(f, a.left), app(f, a.right))))
            for path, f2 in _step(f, world):
                out.append((pre + "AppL/" + path, app(f2, a)))
            if is_value(f):
                for path, a2 in _step(a, world):
                    out.append((pre + "AppR/" + path, app(f, a2)))
        elif isinstance(m, _FIX):
            if isinstance(m.body, (Lam, TLam)):
                out.append((pre + "Fix", subst_term(m.body, m.var, m)))
        elif isinstance(m, TNameApp):
            f = m.fn
            if isinstance(f, TNameAbs):
                out.append(("TR-Sigma", name_subst(f.body, f.var, m.name)))
            if isinstance(f, TChoice):
                out.append(("TR-DistSApp",
                            TChoice(TNameApp(f.left, m.name), f.name,
                                    TNameApp(f.right, m.name))))
            for path, f2 in _step(f, world):
                out.append(("TR-SApp/" + path, TNameApp(f2, m.name)))
        else:  # a choice, whose named branches extend the world
            wl = wr = world
            if isinstance(m, TChoice):
                phi = normalize_name(m.name)
                wl, wr = world | {(phi, "+")}, world | {(phi, "-")}
            for path, l2 in _step(m.left, wl):
                out.append((pre + "ChoiceL/" + path,
                            _rechoice(m, l2, m.right)))
            for path, r2 in _step(m.right, wr):
                out.append((pre + "ChoiceR/" + path,
                            _rechoice(m, m.left, r2)))
            if isinstance(m, TChoice):
                if (phi, "+") in world:
                    out.append(("TR-WorldL", m.left))
                if (phi, "-") in world:
                    out.append(("TR-WorldR", m.right))
        out = tuple(out)
        if len(_STEPS) >= _STEP_CACHE_SIZE:
            del _STEPS[next(iter(_STEPS))]
    _STEPS[key] = out
    return out


def _rechoice(c, left, right):
    """A choice like ``c``, named as ``c`` is if it is named, over new
    branches."""
    if isinstance(c, TChoice):
        return TChoice(left, c.name, right)
    return Choice(left, right)


def choice_leaves(e: SrcExpr) -> list[SrcExpr]:
    """The multiset of non-choice leaves of a choice tree, left to right."""
    if isinstance(e, Choice):
        return choice_leaves(e.left) + choice_leaves(e.right)
    return [e]


class Stop(Exception):
    """Raised by a ``step`` function to end a search with verdict ``args[0]``."""


@dataclass
class Search:
    """What ``explore`` found.  ``cause`` names the budget that left a state
    unexpanded, ``"depth"`` or ``"states"``; it is None when the search
    closed or when a step raised ``Stop(verdict)``."""

    found: dict        # key -> state, in the order found, the start first
    expanded: int      # states whose successors were asked for
    cause: str | None
    verdict: object = None


def explore(start, step, depth: int | None = None, limit: int | None = None,
            key=None) -> Search:
    """Breadth-first search from ``start`` that finds each state once by key.

    ``step(state)`` returns the successors of a state, or raises ``Stop``.
    States found ``depth`` steps from the start are not expanded, and at
    most ``limit`` states are expanded.  A search that leaves a found state
    unexpanded does not close, and ``cause`` names the budget that ran out.
    ``key`` defaults to this module's ``canon_key`` as bound at call time.
    """
    key = key or canon_key
    found = {key(start): start}
    frontier = [start]
    expanded = level = 0
    while frontier:
        if depth is not None and level >= depth:
            return Search(found, expanded, "depth")
        nxt = []
        for state in frontier:
            if limit is not None and expanded >= limit:
                return Search(found, expanded, "states")
            expanded += 1
            try:
                succ = step(state)
            except Stop as stop:
                return Search(found, expanded, None, stop.args[0])
            for s in succ:
                k = key(s)
                if k not in found:
                    found[k] = s
                    nxt.append(s)
        frontier = nxt
        level += 1
    return Search(found, expanded, None)


@dataclass
class EvalResult:
    normal_forms: list = field(default_factory=list)
    stuck: list = field(default_factory=list)
    explored: int = 0         # states expanded
    cause: str | None = None  # "states" (fuel ran out) or "cycle"

    @property
    def exhausted(self) -> bool:
        """Fuel ran out, or the state graph has a cycle."""
        return self.cause is not None


def bfs_eval(start, succ_fn, fuel: int) -> EvalResult:
    """Explore a step relation exhaustively and collect normal forms.

    A normal form is a state with no successors, and a stuck one is a normal
    form that is not an answer (``syntax.is_answer``).  The search expands at
    most ``fuel`` states; ``cause`` is ``"states"`` when states are left
    pending, and ``"cycle"`` when the explored graph contains a cycle (an
    infinite reduction path).
    """
    res = EvalResult()
    edges: dict = {}

    def step(t):
        succ = succ_fn(t)
        if not succ:
            res.normal_forms.append(t)
            if not is_answer(t):
                res.stuck.append(t)
        else:
            edges[canon_key(t)] = {canon_key(s) for s in succ}
        return succ

    search = explore(start, step, limit=fuel)
    res.explored = search.expanded
    res.cause = search.cause or ("cycle" if _has_cycle(edges) else None)
    return res


def _has_cycle(edges: dict) -> bool:
    try:
        TopologicalSorter(edges).prepare()
    except CycleError:
        return True
    return False


def src_eval(e: SrcExpr, fuel: int = 10000) -> EvalResult:
    """All normal forms reachable from ``e``; see ``bfs_eval``."""
    return bfs_eval(e, lambda t: [s for _, s in src_step_all(t)], fuel)
