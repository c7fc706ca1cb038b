"""Executable checks for the metatheory: bisimulations, subject reduction,
non-coordination, end-to-end normal-form correspondence, and a deterministic
generator of closed well-typed source programs to drive them.

Every check is a breadth-first search by ``source.explore``, which finds
each state once by key and stops at the first verdict a step raises.  A
check reports ``OK`` (the search closed with no violation),
``CounterExample`` (a definite violation, with a witness) or
``FuelExhausted`` (a bound was hit first; never treated as a violation),
and a FuelExhausted report names its ``cause``:

- ``depth``: states ``depth`` steps from the root were left unexpanded;
- ``states``: a bisimulation met more than ``_MAX_PAIRS`` pairs, or a weak
  bisimulation's τ-closure or an ``end_to_end`` evaluation more than
  ``fuel`` states (subject reduction and non-coordination have none);
- ``cycle``: an ``end_to_end`` evaluation has an infinite reduction path.

Successors are memoized by ``canon_key`` in ``_SUCC``, an LRU table of at
most ``_CACHE_SIZE`` terms, so it holds the working set of the programs
checked last and not every state of the process; source and target keys
differ, so one memo serves both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from . import effects as eff
from .compiler import adm, compile_expr, erase, pseudo_compile
from .source import (
    SrcTypeError, Stop, explore, src_eval, src_step_all, src_typecheck,
)
from .syntax import (
    App, Arrow, Choice, Fix, Lam, NAT, Nat, Num, SrcExpr, TgtExpr, Var,
    alpha_eq, canon_key, name_subst, size_of,
)
from .target import (
    TargetEnv, effect_typecheck, subtype, tgt_eval, tgt_step_all, tgt_step_nc,
)

OK = "OK"
COUNTEREXAMPLE = "CounterExample"
FUEL_EXHAUSTED = "FuelExhausted"

_MAX_PAIRS = 3000  # per-bisimulation state-pair budget


class PreconditionViolated(Exception):
    pass


@dataclass
class CheckReport:
    status: str
    witness: object = None
    explored: int = 0
    cause: str | None = None  # of a FuelExhausted: depth, states, cycle


BisimReport = CheckReport  # the earlier name of bisimulation reports


def _verdict(search) -> CheckReport:
    """The verdict a step raised, else OK if the search closed, else
    FuelExhausted with the budget that ran out."""
    if search.verdict is not None:
        return replace(search.verdict, explored=search.expanded)
    status = OK if search.cause is None else FUEL_EXHAUSTED
    return CheckReport(status, None, search.expanded, search.cause)


_CACHE_SIZE = 1 << 12  # entries of _SUCC
_SUCC: dict = {}  # canon_key -> successors, least recently used first


def _succ(t) -> list:
    """One-step successors of a source term, or of a target term under the
    empty world, memoized by key in an LRU of ``_CACHE_SIZE`` entries: a
    hit moves to the end of ``_SUCC``, and a miss past the bound evicts the
    first entry."""
    k = canon_key(t)
    hit = _SUCC.pop(k, None)
    if hit is None:
        hit = (tgt_step_all(t, frozenset()) if isinstance(t, TgtExpr)
               else [s for _, s in src_step_all(t)])
        if len(_SUCC) >= _CACHE_SIZE:
            del _SUCC[next(iter(_SUCC))]
    _SUCC[k] = hit
    return hit


def _bisim(start, depth, image, moves, side) -> CheckReport:
    """Strong bisimulation search from ``start``.  ``moves((a, b))`` is the
    moves (key, term) of ``b`` and the keys that match steps ``a -> a2``,
    keyed ``image(a2)``.  An unmatched step or move is a CounterExample."""
    def step(pair):
        images = {image(a2): a2 for a2 in _succ(pair[0])}
        out, direct = moves(pair)
        for k, a2 in images.items():
            if k not in direct:
                raise Stop(CheckReport(COUNTEREXAMPLE, (pair, ("src", a2))))
        for k, b2 in out:
            if k not in images:
                raise Stop(CheckReport(COUNTEREXAMPLE, (pair, (side, b2))))
        return [(images[k], b2) for k, b2 in out]

    return _verdict(explore(
        start, step, depth, limit=_MAX_PAIRS,
        key=lambda pair: (canon_key(pair[0]), canon_key(pair[1]))))


# ---------------------------------------------------------------------------
# strong bisimulation: source term vs. typed target term erasing to it

def check_strong_bisim(e: SrcExpr, m: TgtExpr, depth: int = 8) -> CheckReport:
    """Mutual single-step simulation between ``e`` and ``m`` (empty world).

    ``m`` must effect-typecheck in the empty environment and erase to ``e``.
    """
    if not alpha_eq(erase(m), e):
        raise PreconditionViolated("target term does not erase to the source term")
    try:
        effect_typecheck(TargetEnv(), m)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"target term is untyped: {exc}") from exc

    def moves(pair):
        out = [(canon_key(erase(b2)), b2) for b2 in _succ(pair[1])]
        return out, {k for k, _ in out}

    return _bisim((e, m), depth, canon_key, moves, "tgt")


# ---------------------------------------------------------------------------
# weak bisimulation: source term vs. its pseudo compilation

def check_weak_bisim_pseudo(e: SrcExpr, depth: int = 8,
                            fuel: int = 200) -> CheckReport:
    """Certify that ``e`` is weakly bisimilar to ``pseudo_compile(e)``, with
    ``adm`` steps as τ, up to ``depth`` source steps (with the strong check on
    ``erase(compile e) = pseudo_compile e``, the bisimulation half of the
    paper's correctness argument): ``_bisim`` on pairs ``(a, p)`` with
    ``adm(p) == pseudo_compile(a)``, where each step in the τ-closure of ``p``
    (searched over at most ``fuel`` states) is τ or a move, and the class's
    ``adm``-normal member matches every source step."""
    try:
        src_typecheck(e)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"source term is untyped: {exc}") from exc
    memo, walked = {}, {}  # for adm; canon_key(q) -> the steps of q

    def moves(pair):
        cls, out = canon_key(pseudo_compile(pair[0])), []

        def tau(q):  # a term walked in an earlier closure returned its moves
            if canon_key(q) in walked:
                return []
            succ = walked[canon_key(q)] = [(canon_key(adm(q2, memo)), q2)
                                           for q2 in _succ(q)]
            out.extend((k, q2) for k, q2 in succ if k != cls)
            return [q2 for k, q2 in succ if k == cls]

        closure = explore(pair[1], tau, limit=fuel)
        if closure.cause is not None:
            raise Stop(_verdict(closure))
        return out, {k for k, _ in walked.get(cls, ())}

    return _bisim((e, pseudo_compile(e)), depth,
                  lambda a: canon_key(pseudo_compile(a)), moves, "pseudo")


# ---------------------------------------------------------------------------
# subject reduction / non-coordination

def check_subject_reduction(m: TgtExpr, depth: int = 8) -> CheckReport:
    """Every term reachable under the empty world keeps a subtype of the
    root type and an effect language included in the root's."""
    try:
        t0, p0 = effect_typecheck(TargetEnv(), m)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"root term is untyped: {exc}") from exc
    root_eff = p0.denote()

    def step(t):
        succ = tgt_step_all(t, frozenset())
        for s in succ:
            try:
                t1, p1 = effect_typecheck(TargetEnv(), s)
            except SrcTypeError as exc:
                raise Stop(CheckReport(COUNTEREXAMPLE, (s, f"untyped: {exc}")))
            if not subtype(t1, t0):
                raise Stop(CheckReport(COUNTEREXAMPLE, (s, "type not preserved")))
            if not eff.includes(p1.denote(), root_eff):
                raise Stop(CheckReport(COUNTEREXAMPLE, (s, "effect grew")))
        return succ

    return _verdict(explore(m, step, depth))


def check_non_coordination(m: TgtExpr, depth: int = 8) -> CheckReport:
    """Typed terms never use the collapse rules under the empty world:
    every coordinated ∅-step is also a non-coordinated step."""
    try:
        effect_typecheck(TargetEnv(), m)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"root term is untyped: {exc}") from exc

    def step(t):
        coord = tgt_step_all(t, frozenset())
        nc = {canon_key(s) for s in tgt_step_nc(t)}
        for s in coord:
            if canon_key(s) not in nc:
                raise Stop(CheckReport(COUNTEREXAMPLE, (t, s)))
        return coord

    return _verdict(explore(m, step, depth))


# ---------------------------------------------------------------------------
# random well-typed source programs

def _gen_type(rng, depth=0):
    if depth >= 2 or rng.random() < 0.6:
        return NAT
    return Arrow(_gen_type(rng, depth + 1), _gen_type(rng, depth + 1))


def _gen_leaf(rng, goal, env):
    have = [x for x, t in env.items() if t == goal]
    if have and rng.random() < 0.5:
        return Var(rng.choice(have))
    if isinstance(goal, Nat):
        return Num(rng.randrange(10))
    # arrow: build a lambda with a tiny body
    x = f"x{rng.randrange(1000)}"
    return Lam(x, goal.arg, _gen_leaf(rng, goal.res, {**env, x: goal.arg}))


def _gen_expr(rng, goal, env, budget):
    if budget <= 2:
        return _gen_leaf(rng, goal, env)
    roll = rng.random()
    if roll < 0.30:
        half = budget // 2
        return Choice(_gen_expr(rng, goal, env, half),
                      _gen_expr(rng, goal, env, half))
    if roll < 0.50:
        # redex: apply an immediate lambda
        x = f"x{rng.randrange(1000)}"
        at = _gen_type(rng, 1)
        body = _gen_expr(rng, goal, {**env, x: at}, budget // 2)
        return App(Lam(x, at, body), _gen_expr(rng, at, env, budget // 2 - 1))
    if roll < 0.70:
        # application of an environment/e generated function
        at = _gen_type(rng, 1)
        fn = _gen_expr(rng, Arrow(at, goal), env, budget // 2)
        return App(fn, _gen_expr(rng, at, env, budget // 2 - 1))
    if roll < 0.78 and isinstance(goal, Arrow):
        # terminating fixpoint: the recursion variable is never used
        f = f"f{rng.randrange(1000)}"
        x = f"x{rng.randrange(1000)}"
        body = _gen_expr(rng, goal.res, {**env, x: goal.arg}, budget - 3)
        return Fix(f, goal, Lam(x, goal.arg, body))
    if isinstance(goal, Arrow):
        x = f"x{rng.randrange(1000)}"
        return Lam(x, goal.arg,
                   _gen_expr(rng, goal.res, {**env, x: goal.arg}, budget - 1))
    return _gen_leaf(rng, goal, env)


def gen_typed_source(seed: int, size: int = 20) -> SrcExpr:
    """A closed well-typed builtin-free source term, deterministic per seed."""
    rng = random.Random(("gen", seed, size).__repr__())
    budget = max(size, 1)
    for _ in range(50):
        goal = _gen_type(rng)
        e = _gen_expr(rng, goal, {}, budget)
        if size_of(e) > size:
            budget = max(2, budget - 2)
            continue
        try:
            src_typecheck(e)
        except SrcTypeError:
            continue
        return e
    return Num(0)


# ---------------------------------------------------------------------------
# end to end

def end_to_end(e: SrcExpr, fuel: int = 200, alpha: str = "a") -> CheckReport:
    """Compile at the empty seed, run both sides to normal forms, and check
    that pseudo-compiled source normal forms and erased target normal forms
    are the same set; also runs both bisimulation checks."""
    try:
        src_typecheck(e)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"source term is untyped: {exc}") from exc
    m = name_subst(compile_expr(e, alpha, ()), alpha, ())

    src_res = src_eval(e, fuel=fuel)
    tgt_res = tgt_eval(m, frozenset(), fuel=fuel)
    explored = src_res.explored + tgt_res.explored
    if src_res.exhausted or tgt_res.exhausted:
        return CheckReport(FUEL_EXHAUSTED, None, explored,
                           src_res.cause or tgt_res.cause)

    src_nfs = {canon_key(pseudo_compile(nf)): nf for nf in src_res.normal_forms}
    tgt_nfs = {canon_key(erase(nf)): nf for nf in tgt_res.normal_forms}
    if set(src_nfs) != set(tgt_nfs):
        only_src = [src_nfs[k] for k in src_nfs if k not in tgt_nfs]
        only_tgt = [tgt_nfs[k] for k in tgt_nfs if k not in src_nfs]
        return CheckReport(COUNTEREXAMPLE, (only_src, only_tgt), explored)

    strong = check_strong_bisim(pseudo_compile(e), m)
    explored += strong.explored
    if strong.status == COUNTEREXAMPLE:
        return CheckReport(COUNTEREXAMPLE, ("strong", strong.witness), explored)
    weak = check_weak_bisim_pseudo(e)
    explored += weak.explored
    if weak.status == COUNTEREXAMPLE:
        return CheckReport(COUNTEREXAMPLE, ("weak", weak.witness), explored)
    return CheckReport(OK, None, explored)
