"""Executable checks for the metatheory: bisimulations, subject reduction,
non-coordination, end-to-end normal-form correspondence, and a deterministic
generator of closed well-typed source programs to drive them.

All checks explore bounded state spaces and report one of three statuses:
``OK`` (fully explored, no violation), ``CounterExample`` (definite
violation with a witness), or ``FuelExhausted`` (bounds hit before the
exploration closed — never treated as a violation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import effects as eff
from .compiler import compile_expr, erase, pseudo_compile
from .source import src_eval, src_step_all, src_typecheck, SrcTypeError
from .syntax import (
    App, Arrow, Choice, Fix, Lam, NAT, Nat, Num, SrcExpr, TgtExpr, Var,
    alpha_eq, canon_key, name_subst, size_of,
)
from .target import (
    TargetEnv, TgtTypeError, effect_typecheck, subtype, tgt_eval,
    tgt_step_all, tgt_step_nc,
)

OK = "OK"
COUNTEREXAMPLE = "CounterExample"
FUEL_EXHAUSTED = "FuelExhausted"


class PreconditionViolated(Exception):
    pass


@dataclass
class BisimReport:
    status: str
    witness: object = None
    explored: int = 0


@dataclass
class CheckReport:
    status: str
    witness: object = None
    explored: int = 0


# ---------------------------------------------------------------------------
# strong bisimulation: source term vs. typed target term erasing to it

_MAX_PAIRS = 3000  # per-check state-pair budget; overruns report FuelExhausted


def check_strong_bisim(e: SrcExpr, m: TgtExpr, depth: int = 8) -> BisimReport:
    """Mutual single-step simulation between ``e`` and ``m`` (empty world).

    ``m`` must effect-typecheck in the empty environment and erase to ``e``.
    """
    if not alpha_eq(erase(m), e):
        raise PreconditionViolated("target term does not erase to the source term")
    try:
        effect_typecheck(TargetEnv(), m)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"target term is untyped: {exc}") from exc

    seen = set()
    frontier = [(e, m)]
    explored = 0
    for _ in range(depth):
        nxt = []
        for a, b in frontier:
            k = (canon_key(a), canon_key(b))
            if k in seen:
                continue
            seen.add(k)
            explored += 1
            if explored > _MAX_PAIRS:
                return BisimReport(FUEL_EXHAUSTED, None, explored)
            sa = _src_succ(a)
            sb = _tgt_succ(b)
            eb = [(s, canon_key(erase(s))) for s in sb]
            for a2 in sa:
                ka2 = canon_key(a2)
                matches = [s for s, ke in eb if ke == ka2]
                if not matches:
                    return BisimReport(COUNTEREXAMPLE, ((a, b), ("src", a2)),
                                       explored)
                nxt.extend((a2, s) for s in matches)
            for b2, ke in eb:
                if not any(canon_key(a2) == ke for a2 in sa):
                    return BisimReport(COUNTEREXAMPLE, ((a, b), ("tgt", b2)),
                                       explored)
        frontier = [p for p in nxt
                    if (canon_key(p[0]), canon_key(p[1])) not in seen]
        if not frontier:
            return BisimReport(OK, None, explored)
    return BisimReport(FUEL_EXHAUSTED, None, explored)


# ---------------------------------------------------------------------------
# weak bisimulation: source term vs. its pseudo compilation

_REACH_CACHE: dict = {}


def _reachable(term, step_fn, limit: int, fuel: int):
    """Terms reachable within ``limit`` steps; (states, complete?)."""
    cache_key = (canon_key(term), limit, fuel)
    hit = _REACH_CACHE.get(cache_key)
    if hit is not None:
        return hit
    seen = {canon_key(term): term}
    frontier = [term]
    budget = fuel
    complete = True
    for _ in range(limit):
        nxt = []
        for t in frontier:
            if budget <= 0:
                complete = False
                break
            budget -= 1
            for s in step_fn(t):
                k = canon_key(s)
                if k not in seen:
                    seen[k] = s
                    nxt.append(s)
        if not nxt:
            break
        frontier = nxt
    else:
        complete = False if frontier else complete
    out = (seen, complete)
    _REACH_CACHE[cache_key] = out
    return out


_SRC_SUCC_CACHE: dict = {}
_TGT_SUCC_CACHE: dict = {}


def _src_succ(t):
    k = canon_key(t)
    hit = _SRC_SUCC_CACHE.get(k)
    if hit is None:
        hit = _SRC_SUCC_CACHE[k] = [s for _, s in src_step_all(t)]
    return hit


def _tgt_succ(t):
    k = canon_key(t)
    hit = _TGT_SUCC_CACHE.get(k)
    if hit is None:
        hit = _TGT_SUCC_CACHE[k] = tgt_step_all(t, frozenset())
    return hit


def check_weak_bisim_pseudo(e: SrcExpr, depth: int = 8,
                            fuel: int = 200) -> BisimReport:
    """Weak mutual simulation between ``e`` and its pseudo compilation.

    Single steps on either side are matched by bounded multi-step runs on
    the other, re-converging on the pseudo-compilation image (the extra
    dummy applications are administrative).
    """
    try:
        src_typecheck(e)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"source term is untyped: {exc}") from exc

    limit = 4  # administrative runs are short; bounded per match
    seen = set()
    frontier = [(e, pseudo_compile(e))]
    explored = 0
    for _ in range(depth):
        nxt = []
        for a, p in frontier:
            k = (canon_key(a), canon_key(p))
            if k in seen:
                continue
            seen.add(k)
            explored += 1
            if explored > _MAX_PAIRS:
                return BisimReport(FUEL_EXHAUSTED, None, explored)
            sa = _src_succ(a)
            sp = _src_succ(p)
            # every source step is matched by a run of the pseudo side
            if sa:
                reach, complete = _reachable(p, _src_succ, limit, fuel)
                for a2 in sa:
                    target = canon_key(pseudo_compile(a2))
                    if target not in reach:
                        if not complete:
                            return BisimReport(FUEL_EXHAUSTED, ((a, p), a2),
                                               explored)
                        return BisimReport(COUNTEREXAMPLE,
                                           ((a, p), ("src", a2)), explored)
                    nxt.append((a2, pseudo_compile(a2)))
            # every pseudo step re-converges with the image of some source run
            if sp:
                cand, complete_a = _reachable(a, _src_succ, limit, fuel)
                images = {canon_key(pseudo_compile(a2)): a2
                          for a2 in cand.values()}
            for p2 in sp:
                reach2, complete_p = _reachable(p2, _src_succ, limit, fuel)
                hit = None
                for k2 in reach2:
                    if k2 in images:
                        hit = images[k2]
                        break
                if hit is None:
                    if not (complete_a and complete_p):
                        return BisimReport(FUEL_EXHAUSTED, ((a, p), p2),
                                           explored)
                    return BisimReport(COUNTEREXAMPLE, ((a, p), ("pseudo", p2)),
                                       explored)
                nxt.append((hit, pseudo_compile(hit)))
        frontier = [q for q in nxt
                    if (canon_key(q[0]), canon_key(q[1])) not in seen]
        if not frontier:
            return BisimReport(OK, None, explored)
    return BisimReport(FUEL_EXHAUSTED, None, explored)


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

    seen = set()
    frontier = [m]
    explored = 0
    for _ in range(depth):
        nxt = []
        for t in frontier:
            k = canon_key(t)
            if k in seen:
                continue
            seen.add(k)
            explored += 1
            for s in tgt_step_all(t, frozenset()):
                try:
                    t1, p1 = effect_typecheck(TargetEnv(), s)
                except SrcTypeError as exc:
                    return CheckReport(COUNTEREXAMPLE, (s, f"untyped: {exc}"),
                                       explored)
                if not subtype(t1, t0):
                    return CheckReport(COUNTEREXAMPLE, (s, "type not preserved"),
                                       explored)
                if not eff.includes(p1.denote(), root_eff):
                    return CheckReport(COUNTEREXAMPLE, (s, "effect grew"),
                                       explored)
                nxt.append(s)
        frontier = [t for t in nxt if canon_key(t) not in seen]
        if not frontier:
            return CheckReport(OK, None, explored)
    return CheckReport(FUEL_EXHAUSTED, None, explored)


def check_non_coordination(m: TgtExpr, depth: int = 8) -> CheckReport:
    """Typed terms never use the collapse rules under the empty world:
    every coordinated ∅-step is also a non-coordinated step."""
    try:
        effect_typecheck(TargetEnv(), m)
    except SrcTypeError as exc:
        raise PreconditionViolated(f"root term is untyped: {exc}") from exc

    seen = set()
    frontier = [m]
    explored = 0
    for _ in range(depth):
        nxt = []
        for t in frontier:
            k = canon_key(t)
            if k in seen:
                continue
            seen.add(k)
            explored += 1
            coord = tgt_step_all(t, frozenset())
            nc = {canon_key(s) for s in tgt_step_nc(t)}
            for s in coord:
                if canon_key(s) not in nc:
                    return CheckReport(COUNTEREXAMPLE, (t, s), explored)
                nxt.append(s)
        frontier = [t for t in nxt if canon_key(t) not in seen]
        if not frontier:
            return CheckReport(OK, None, explored)
    return CheckReport(FUEL_EXHAUSTED, None, explored)


# ---------------------------------------------------------------------------
# random well-typed source programs

class _GiveUp(Exception):
    pass


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
        return CheckReport(FUEL_EXHAUSTED, None, explored)

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
