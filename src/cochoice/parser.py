r"""Concrete syntax.

Lexical spellings: ``o`` and ``b`` are the two name atoms, ``eps`` the empty
word, ``{}`` the empty-language effect.  ``\x:T. e`` is lambda, ``/\a. M``
name abstraction, ``fix f:T. e`` the fixpoint, ``(e || f)`` a plain choice,
``(M ||{n} N)`` a named choice, ``M @ n`` name application (the name is a
greedy run of atoms), ``-{phi}->`` an arrow with a latent effect (plain
``->`` means latent ``{}``), and ``all a.{phi} t`` a name-quantified type.

The parser recurses once per level of nesting, so it stops at
``MAX_NESTING`` nested terms, types and effects (a parenthesis, a binder's
body, the result of an arrow) with a ``ParseError`` instead of exhausting
Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from functools import wraps

from . import effects as eff
from .names import OFF, ON
from .syntax import (
    ADD, App, Arrow, Choice, Fix, Lam, NAT, Num, TADD, TApp, TArrow,
    TChoice, TFix, TForall, TLam, TNAT, TNameAbs, TNameApp, TNum, TVar, Var,
)


@dataclass
class ParseError(Exception):
    message: str
    offset: int
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}: {self.message}"


MAX_NESTING = 150  # levels; a level costs the parser up to five Python frames

_KEYWORDS = {"fix", "all", "nat", "add", "o", "b", "eps"}

# One token per match, tried in this order. Symbols are listed longest
# first where one begins another. Numerals are ASCII digits (``\d`` and
# ``str.isdigit`` also accept '٣' and '²'). An identifier is a run of
# ``\w`` (``str.isalnum`` or '_') and "'"; its first character must also
# be a letter or '_', which ``_tokenize`` checks. Any other character is
# an error.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<sym>/\\|\|\||-\{|->|[\\(){}:.@+*,-])
  | (?P<num>[0-9]+)
  | (?P<ident>\w[\w']*)
  | (?P<error>.)
""", re.VERBOSE | re.DOTALL)


@dataclass
class _Tok:
    kind: str      # "sym" | "ident" | "num" | "kw" | "eof"
    text: str
    offset: int
    line: int
    column: int


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, word, i = m.lastgroup, m.group(), m.start()
        if kind == "space":
            breaks = word.count("\n")
            if breaks:
                line += breaks
                col = len(word) - word.rfind("\n")
            else:
                col += len(word)
            continue
        if kind == "error" or (kind == "ident" and not (word[0].isalpha()
                                                        or word[0] == "_")):
            raise ParseError(f"unexpected character {word[0]!r}", i, line, col)
        if kind == "ident" and word in _KEYWORDS:
            kind = "kw"
        toks.append(_Tok(kind, word, i, line, col))
        col += len(word)
    toks.append(_Tok("eof", "", len(text), line, col))
    return toks


def _nested(rule):
    """A parser rule that opens one level of nesting."""
    @wraps(rule)
    def counted(self):
        if self.depth >= MAX_NESTING:
            self.fail(f"input nested too deeply: more than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return rule(self)
        finally:
            self.depth -= 1
    return counted


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # levels of nesting open at the current token

    # -- plumbing ----------------------------------------------------------
    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind != "eof"

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Tok:
        if not self.at(text):
            self.fail(f"expected {text!r}")
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        got = repr(t.text) if t.kind != "eof" else "end of input"
        raise ParseError(f"{msg}, found {got}", t.offset, t.line, t.column)

    def ident(self, what="identifier") -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}")
        return self.next().text

    def numeral(self) -> int:
        # int() reads at most sys.get_int_max_str_digits() digits, Decimal any
        return int(Decimal(self.next().text))

    def done(self):
        if self.peek().kind != "eof":
            self.fail("trailing input")

    # -- names -------------------------------------------------------------
    def name_atom(self):
        t = self.peek()
        if t.text == "o":
            self.next()
            return ON
        if t.text == "b":
            self.next()
            return OFF
        if t.kind == "ident":
            return self.next().text
        return None

    def name(self) -> tuple:
        if self.eat("eps"):
            return ()
        atoms = []
        while True:
            a = self.name_atom()
            if a is None:
                break
            atoms.append(a)
        if not atoms:
            self.fail("expected a name")
        return tuple(atoms)

    def world(self) -> frozenset:
        """Polarized names separated by commas; an empty entry is skipped."""
        out = set()
        while self.peek().kind != "eof":
            if self.eat(","):
                continue
            word = self.name()
            if not (self.at("+") or self.at("-")):
                self.fail("world entry must end in + or -")
            out.add((word, self.next().text))
            if self.peek().kind != "eof":
                self.expect(",")
        return frozenset(out)

    # -- effects -----------------------------------------------------------
    @_nested
    def effect(self) -> eff.Effect:
        parts = [self.eff_cat()]
        while self.eat("+"):
            parts.append(self.eff_cat())
        out = parts[0]
        for p in parts[1:]:
            out = eff.alt(out, p)
        return out

    def eff_cat(self) -> eff.Effect:
        out = self.eff_star()
        while True:
            t = self.peek()
            if t.text in ("o", "b", "eps", "(") or t.kind == "ident" \
                    or (t.text == "{" and self.toks[self.pos + 1].text == "}"):
                out = eff.cat(out, self.eff_star())
            else:
                return out

    def eff_star(self) -> eff.Effect:
        out = self.eff_atom()
        while self.eat("*"):
            out = eff.star(out)
        return out

    def eff_atom(self) -> eff.Effect:
        if self.eat("("):
            out = self.effect()
            self.expect(")")
            return out
        if self.eat("{"):
            self.expect("}")
            return eff.EMPTY
        if self.eat("eps"):
            return eff.EPS_EFF
        a = self.name_atom()
        if a is None:
            self.fail("expected an effect")
        return eff.Lit((a,))

    # -- types -------------------------------------------------------------
    @_nested
    def src_type(self):
        left = self.src_type_atom()
        if self.eat("->"):
            return Arrow(left, self.src_type())
        return left

    def src_type_atom(self):
        if self.eat("nat"):
            return NAT
        if self.eat("("):
            t = self.src_type()
            self.expect(")")
            return t
        self.fail("expected a type")

    @_nested
    def tgt_type(self):
        if self.eat("all"):
            a = self.ident("name variable")
            self.expect(".")
            self.expect("{")
            latent = self.effect()
            self.expect("}")
            return TForall(a, latent, self.tgt_type())
        left = self.tgt_type_atom()
        if self.eat("->"):
            return TArrow(left, eff.EMPTY, self.tgt_type())
        if self.eat("-{"):
            latent = self.effect()
            self.expect("}")
            self.expect("->")
            return TArrow(left, latent, self.tgt_type())
        return left

    def tgt_type_atom(self):
        if self.eat("nat"):
            return TNAT
        if self.eat("("):
            t = self.tgt_type()
            self.expect(")")
            return t
        self.fail("expected a type")

    # -- source terms ------------------------------------------------------
    @_nested
    def src_expr(self):
        if self.eat("\\"):
            x = self.ident("variable")
            self.expect(":")
            t = self.src_type()
            self.expect(".")
            return Lam(x, t, self.src_expr())
        if self.eat("fix"):
            f = self.ident("variable")
            self.expect(":")
            t = self.src_type()
            self.expect(".")
            return Fix(f, t, self.src_expr())
        return self.src_app()

    def src_app(self):
        out = self.src_atom()
        while True:
            t = self.peek()
            if t.kind in ("ident", "num") or t.text in ("(", "add", "\\", "fix"):
                out = App(out, self.src_atom())
            else:
                return out

    def src_atom(self):
        t = self.peek()
        if t.kind == "num":
            return Num(self.numeral())
        if self.eat("add"):
            return ADD
        if t.kind == "ident":
            return Var(self.next().text)
        if t.text in ("\\", "fix"):
            return self.src_expr()
        if self.eat("("):
            e = self.src_expr()
            if self.eat("||"):
                f = self.src_expr()
                self.expect(")")
                return Choice(e, f)
            self.expect(")")
            return e
        self.fail("expected an expression")

    # -- target terms ------------------------------------------------------
    @_nested
    def tgt_expr(self):
        if self.eat("\\"):
            x = self.ident("variable")
            self.expect(":")
            t = self.tgt_type()
            self.expect(".")
            return TLam(x, t, self.tgt_expr())
        if self.eat("/\\"):
            a = self.ident("name variable")
            self.expect(".")
            return TNameAbs(a, self.tgt_expr())
        if self.eat("fix"):
            f = self.ident("variable")
            self.expect(":")
            t = self.tgt_type()
            self.expect(".")
            return TFix(f, t, self.tgt_expr())
        out = self.tgt_app()
        while self.eat("@"):
            out = TNameApp(out, self.name())
        return out

    def tgt_app(self):
        out = self.tgt_atom()
        while True:
            t = self.peek()
            if t.kind in ("ident", "num") or t.text in ("(", "add", "\\",
                                                        "/\\", "fix"):
                out = TApp(out, self.tgt_atom())
            else:
                return out

    def tgt_atom(self):
        t = self.peek()
        if t.kind == "num":
            return TNum(self.numeral())
        if self.eat("add"):
            return TADD
        if t.kind == "ident":
            return TVar(self.next().text)
        if t.text in ("\\", "/\\", "fix"):
            return self.tgt_expr()
        if self.eat("("):
            m = self.tgt_expr()
            if self.eat("||"):
                self.expect("{")
                n = self.name()
                self.expect("}")
                f = self.tgt_expr()
                self.expect(")")
                return TChoice(m, n, f)
            self.expect(")")
            return m
        self.fail("expected an expression")


_ENTRY = {
    "src": _Parser.src_expr,
    "tgt": _Parser.tgt_expr,
    "name": _Parser.name,
    "effect": _Parser.effect,
    "type-src": _Parser.src_type,
    "type-tgt": _Parser.tgt_type,
}


def parse(language: str, text: str):
    """Parse ``text`` in one of the six sub-languages; raises ParseError."""
    if language not in _ENTRY:
        raise ValueError(f"unknown language {language!r}")
    p = _Parser(text)
    out = _ENTRY[language](p)
    p.done()
    return out


def parse_world(text: str) -> frozenset:
    """A world given as a comma list of polarized names, e.g. ``"o b+, o-"``;
    raises ParseError."""
    return _Parser(text).world()
