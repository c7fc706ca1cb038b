"""Command-line interface.

Exit codes: 0 success, 1 a check or verification failed, 2 usage or parse
errors, including input nested too deeply to process and a program that
uses the builtin, which the compiler refuses.  Terms are read from
files (or ``-`` for stdin) in the concrete syntax and printed one per line.
"""

from __future__ import annotations

import argparse
import sys

from . import effects as eff
from .compiler import (
    BuiltinNotCompilable, compile_expr, erase, pseudo_compile,
)
from .harness import (
    FUEL_EXHAUSTED, OK, PreconditionViolated, check_non_coordination,
    check_strong_bisim, check_subject_reduction, check_weak_bisim_pseudo,
    end_to_end, gen_typed_source,
)
from .names import is_name_var, name_vars
from .parser import ParseError, parse, parse_world
from .printer import format_any, format_effect, format_type
from .source import SrcTypeError, src_eval, src_step_all, src_typecheck
from .syntax import name_subst
from .target import (
    TargetEnv, effect_typecheck, tgt_eval, tgt_eval_nc,
    tgt_step_trace,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _parse(language: str, path: str):
    try:
        return parse(language, _read(path))
    except ParseError as exc:
        print(f"parse error: {path}:{exc}", file=sys.stderr)
        sys.exit(2)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


def _budget(text: str) -> int:
    """A positive integer: a fuel, depth, size or count of programs."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return n


def _eval_report(res, trace_pairs=None, trace=False):
    if trace and trace_pairs is not None:
        for rule, term in trace_pairs:
            print(f"{rule}: {format_any(term)}")
    for nf in res.normal_forms:
        print(format_any(nf))
    if res.exhausted:
        print("fuel exhausted", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cochoice")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("src-check")
    p.add_argument("file")
    p = sub.add_parser("src-eval")
    p.add_argument("file")
    p.add_argument("--fuel", type=_budget, default=10000)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("src-step")
    p.add_argument("file")
    p = sub.add_parser("tgt-check")
    p.add_argument("file")
    p = sub.add_parser("tgt-eval")
    p.add_argument("file")
    p.add_argument("--delta", default="")
    p.add_argument("--fuel", type=_budget, default=10000)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("tgt-eval-nc")
    p.add_argument("file")
    p.add_argument("--fuel", type=_budget, default=10000)
    p = sub.add_parser("tgt-step")
    p.add_argument("file")
    p.add_argument("--delta", default="")
    p = sub.add_parser("compile")
    p.add_argument("file")
    p.add_argument("--seed-var", default="a")
    p.add_argument("--seed", default="eps")
    p = sub.add_parser("erase")
    p.add_argument("file")
    p = sub.add_parser("pseudo")
    p.add_argument("file")
    p = sub.add_parser("bisim")
    p.add_argument("src")
    p.add_argument("tgt")
    p.add_argument("--depth", type=_budget, default=8)
    p = sub.add_parser("end2end")
    p.add_argument("file")
    p.add_argument("--fuel", type=_budget, default=200)
    p = sub.add_parser("suite")
    p.add_argument("--n", type=_budget, default=300)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--depth", type=_budget, default=8)
    p.add_argument("--fuel", type=_budget, default=200)
    p.add_argument("--size", type=_budget, default=20)
    p = sub.add_parser("effect")
    p.add_argument("op", choices=["member", "includes", "disjoint", "quotient"])
    p.add_argument("args", nargs=2)

    ns = ap.parse_args(argv)
    try:
        return _dispatch(ns)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BuiltinNotCompilable as exc:  # compile and pseudo refuse the input
        print(f"compile error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # typing, stepping and keys recurse on the term's depth; parsing
        # stops at parser.MAX_NESTING with a ParseError
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def _dispatch(ns) -> int:
    if ns.cmd == "src-check":
        e = _parse("src", ns.file)
        try:
            print(format_type(src_typecheck(e)))
        except SrcTypeError as exc:
            print(f"type error: {exc}", file=sys.stderr)
            return 1
        return 0

    if ns.cmd == "src-eval":
        e = _parse("src", ns.file)
        pairs = src_step_all(e) if ns.trace else None
        return _eval_report(src_eval(e, fuel=ns.fuel), pairs, ns.trace)

    if ns.cmd == "src-step":
        e = _parse("src", ns.file)
        for rule, term in src_step_all(e):
            print(f"{rule}: {format_any(term)}")
        return 0

    if ns.cmd == "tgt-check":
        m = _parse("tgt", ns.file)
        try:
            t, p = effect_typecheck(TargetEnv(), m)
        except SrcTypeError as exc:  # the target errors derive from it
            print(f"type error: {exc}", file=sys.stderr)
            return 1
        print(f"{format_type(t)} & {format_effect(p.denote())}")
        return 0

    if ns.cmd == "tgt-eval":
        m = _parse("tgt", ns.file)
        delta = parse_world(ns.delta)
        pairs = tgt_step_trace(m, delta) if ns.trace else None
        return _eval_report(tgt_eval(m, delta, fuel=ns.fuel), pairs, ns.trace)

    if ns.cmd == "tgt-eval-nc":
        m = _parse("tgt", ns.file)
        return _eval_report(tgt_eval_nc(m, fuel=ns.fuel))

    if ns.cmd == "tgt-step":
        m = _parse("tgt", ns.file)
        for rule, term in tgt_step_trace(m, parse_world(ns.delta)):
            print(f"{rule}: {format_any(term)}")
        return 0

    if ns.cmd == "compile":
        e = _parse("src", ns.file)
        alpha, seed = parse("name", ns.seed_var), parse("name", ns.seed)
        if len(alpha) != 1 or not is_name_var(alpha[0]) or name_vars(seed):
            print("usage error: --seed-var must be one name variable and "
                  "--seed a closed name", file=sys.stderr)
            return 2
        print(format_any(compile_expr(e, alpha[0], seed)))
        return 0

    if ns.cmd == "erase":
        m = _parse("tgt", ns.file)
        print(format_any(erase(m)))
        return 0

    if ns.cmd == "pseudo":
        e = _parse("src", ns.file)
        print(format_any(pseudo_compile(e)))
        return 0

    if ns.cmd == "bisim":
        e = _parse("src", ns.src)
        m = _parse("tgt", ns.tgt)
        try:
            rep = check_strong_bisim(e, m, depth=ns.depth)
        except PreconditionViolated as exc:
            print(f"precondition violated: {exc}", file=sys.stderr)
            return 1
        print(f"status={rep.status} explored={rep.explored}")
        return 0 if rep.status == OK else 1

    if ns.cmd == "end2end":
        e = _parse("src", ns.file)
        try:
            rep = end_to_end(e, fuel=ns.fuel)
        except PreconditionViolated as exc:
            print(f"precondition violated: {exc}", file=sys.stderr)
            return 1
        print(f"status={rep.status}")
        return 0 if rep.status == OK else 1

    if ns.cmd == "suite":
        return _suite(ns)

    if ns.cmd == "effect":
        if ns.op == "member":
            w = parse("name", ns.args[0])
            phi = parse("effect", ns.args[1])
            print("true" if eff.member(w, phi) else "false")
            return 0
        if ns.op == "includes":
            a = parse("effect", ns.args[0])
            b = parse("effect", ns.args[1])
            print("true" if eff.includes(a, b) else "false")
            return 0
        if ns.op == "disjoint":
            a = parse("effect", ns.args[0])
            b = parse("effect", ns.args[1])
            print("true" if eff.disjoint(a, b) else "false")
            return 0
        w = parse("name", ns.args[0])
        phi = parse("effect", ns.args[1])
        try:
            print(format_effect(eff.quotient_word(w, phi)))
        except eff.CoverageError as exc:
            print(f"coverage error: {exc}", file=sys.stderr)
            return 1
        return 0

    raise AssertionError(ns.cmd)


def _suite(ns) -> int:
    failures = 0
    for i in range(ns.n):
        e = gen_typed_source(ns.seed + i, ns.size)
        m = name_subst(compile_expr(e, "a", ()), "a", ())
        checks = [
            ("subject-reduction", lambda: check_subject_reduction(m, ns.depth)),
            ("non-coordination", lambda: check_non_coordination(m, ns.depth)),
            ("strong-bisim",
             lambda: check_strong_bisim(pseudo_compile(e), m, ns.depth)),
            ("weak-bisim",
             lambda: check_weak_bisim_pseudo(e, ns.depth, ns.fuel)),
            ("end-to-end", lambda: end_to_end(e, ns.fuel)),
        ]
        for name, run in checks:
            line = f"case={i} seed={ns.seed + i} check={name}"
            try:
                rep = run()
            except PreconditionViolated as exc:  # the suite built the terms
                failures += 1
                print(f"{line} status=FAIL explored=0 "
                      f"precondition={str(exc)!r}")
                continue
            status = {OK: "OK", FUEL_EXHAUSTED: "FUEL"}.get(rep.status, "FAIL")
            line += f" status={status} explored={rep.explored}"
            if status == "FUEL":
                line += f" cause={rep.cause}"
            if status == "FAIL":
                failures += 1
                line += f" witness={_show(rep.witness)}"
            print(line)
    return 1 if failures else 0


def _show(witness) -> str:
    """A witness with every term in concrete syntax: tuples and lists keep
    their brackets, strings their quotes."""
    if isinstance(witness, tuple):
        return "(" + ", ".join(_show(w) for w in witness) + ")"
    if isinstance(witness, list):
        return "[" + ", ".join(_show(w) for w in witness) + "]"
    if isinstance(witness, str):
        return repr(witness)
    return format_any(witness)


if __name__ == "__main__":
    sys.exit(main())
