"""Effects: regular expressions over name atoms, with decision procedures.

The language of an effect is a set of names (words of atoms).  Emptiness
(``is_empty_lang``) and the atoms that begin some word (``first_atoms``)
follow from the structure of the expression, in one pass, because effects
have no intersection or complement.  Inclusion and overlap are decided with
Brzozowski derivatives kept in a similarity-canonical form, which guarantees
termination of the pairwise fixpoint procedures; ``includes`` and
``overlap_witness`` keep their answers in bounded caches.  Every cache here
is an LRU table of ``_CACHE_SIZE`` entries.

``includes`` takes exact shortcuts before the product search.  While every
word of the left side starts with one atom ``a``, L(e1) is in L(e2) exactly
when ``a\\L(e1)`` is in ``a\\L(e2)``, so it derives both sides by ``a``: an
``EMPTY`` right side then answers False and one object on both sides True.
A right side ``(a1|...|an)*`` holds the left side when the left side's
alphabet has no other atom.  The latents of compiled types, ``a . (o|b)*``,
and the bound ``alpha . seed . (o|b)*`` on a compiled program's effect
have that shape after their prefix.

Effects are hash-consed (``node.Interned``): building an effect equal to
one built before returns that object, so equal effects are one object, a
cache hashes an effect by a slot read and compares it by identity, and the
smart constructors below test for ``EMPTY`` and ``EPS_EFF`` with ``is``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .names import EPS, format_name, is_name_var, normalize_name, word_subst
from .node import Interned

_CACHE_SIZE = 1 << 12  # entries of each lru_cache below


class Effect(Interned):
    __slots__ = ("_order",)  # repr(self) once computed: see _order


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Empty(Effect):
    """The empty language."""


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Lit(Effect):
    """A one-word language {word}; Lit(()) is the language {eps}."""

    word: tuple


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cat(Effect):
    left: Effect
    right: Effect


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Alt(Effect):
    parts: tuple  # flattened, deduplicated, sorted


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Star(Effect):
    inner: Effect


EMPTY = Empty()
EPS_EFF = Lit(EPS)


def lit(word) -> Lit:
    return Lit(normalize_name(word))


def cat(a: Effect, b: Effect) -> Effect:
    """Canonical concatenation: absorbs the empty language, drops eps, merges literals."""
    if a is EMPTY or b is EMPTY:
        return EMPTY
    if a is EPS_EFF:
        return b
    if b is EPS_EFF:
        return a
    if isinstance(a, Cat):
        return cat(a.left, cat(a.right, b))
    if isinstance(a, Lit):
        if isinstance(b, Lit):
            return Lit(a.word + b.word)
        if isinstance(b, Cat) and isinstance(b.left, Lit):
            return Cat(Lit(a.word + b.left.word), b.right)
    return Cat(a, b)


def _order(e: Effect) -> str:
    """The sort key of alternation parts: ``repr(e)``, kept in a slot.

    The order shows in printed effects, so it must not depend on ids, which
    differ from process to process.
    """
    try:
        return e._order
    except AttributeError:
        r = repr(e)
        object.__setattr__(e, "_order", r)
        return r


def alt(*effs: Effect) -> Effect:
    """Canonical alternation: flat, deduplicated, sorted by ``repr`` (ACI)."""
    parts: list[Effect] = []
    for e in effs:
        if isinstance(e, Alt):
            parts.extend(e.parts)
        elif isinstance(e, Empty):
            continue
        else:
            parts.append(e)
    if len(parts) == 1:
        return parts[0]
    uniq = sorted(set(parts), key=_order)
    if not uniq:
        return EMPTY
    if len(uniq) == 1:
        return uniq[0]
    return Alt(tuple(uniq))


def star(e: Effect) -> Effect:
    if e is EMPTY or e is EPS_EFF:
        return EPS_EFF
    if isinstance(e, Star):
        return e
    return Star(e)


@lru_cache(maxsize=_CACHE_SIZE)
def nullable(e: Effect) -> bool:
    if isinstance(e, Empty):
        return False
    if isinstance(e, Lit):
        return e.word == EPS
    if isinstance(e, Cat):
        return nullable(e.left) and nullable(e.right)
    if isinstance(e, Alt):
        return any(nullable(p) for p in e.parts)
    return True  # Star


@lru_cache(maxsize=_CACHE_SIZE)
def deriv(e: Effect, a: str) -> Effect:
    """Brzozowski derivative: L(result) = { w | a.w in L(e) }."""
    if isinstance(e, Empty):
        return EMPTY
    if isinstance(e, Lit):
        if e.word and e.word[0] == a:
            return Lit(e.word[1:])
        return EMPTY
    if isinstance(e, Cat):
        d = cat(deriv(e.left, a), e.right)
        if nullable(e.left):
            d = alt(d, deriv(e.right, a))
        return d
    if isinstance(e, Alt):
        return alt(*(deriv(p, a) for p in e.parts))
    return cat(deriv(e.inner, a), e)  # Star


@lru_cache(maxsize=_CACHE_SIZE)
def alphabet(e: Effect) -> frozenset:
    if isinstance(e, Lit):
        return frozenset(e.word)
    if isinstance(e, Cat):
        return alphabet(e.left) | alphabet(e.right)
    if isinstance(e, Alt):
        return frozenset().union(*(alphabet(p) for p in e.parts))
    if isinstance(e, Star):
        return alphabet(e.inner)
    return frozenset()


def effect_vars(e: Effect) -> frozenset:
    return frozenset(a for a in alphabet(e) if is_name_var(a))


def is_closed(e: Effect) -> bool:
    return not effect_vars(e)


def effect_subst(e: Effect, alpha: str, phi) -> Effect:
    """Substitute the word ``phi`` for the variable atom ``alpha``; re-canonicalizes.

    An effect without ``alpha`` is returned as it is."""
    if alpha not in alphabet(e):
        return e
    if isinstance(e, Lit):
        return Lit(word_subst(e.word, alpha, phi))
    if isinstance(e, Cat):
        return cat(effect_subst(e.left, alpha, phi), effect_subst(e.right, alpha, phi))
    if isinstance(e, Alt):
        return alt(*(effect_subst(p, alpha, phi) for p in e.parts))
    return star(effect_subst(e.inner, alpha, phi))


def member(w, e: Effect) -> bool:
    for a in normalize_name(w):
        e = deriv(e, a)
    return nullable(e)


def is_empty_lang(e: Effect) -> bool:
    """True iff L(e) is empty."""
    if isinstance(e, Empty):
        return True
    if isinstance(e, Cat):
        return is_empty_lang(e.left) or is_empty_lang(e.right)
    if isinstance(e, Alt):
        return all(is_empty_lang(p) for p in e.parts)
    return False  # Lit, Star


@lru_cache(maxsize=_CACHE_SIZE)
def first_atoms(e: Effect) -> frozenset:
    """The atoms that begin some word of L(e): those whose derivative is not empty."""
    if isinstance(e, Lit):
        return frozenset(e.word[:1])
    if isinstance(e, Cat):
        left, right = first_atoms(e.left), first_atoms(e.right)
        if not (left or nullable(e.left)) or not (right or nullable(e.right)):
            return frozenset()  # one side's language is empty
        return left | right if nullable(e.left) else left
    if isinstance(e, Alt):
        return frozenset().union(*(first_atoms(p) for p in e.parts))
    if isinstance(e, Star):
        return first_atoms(e.inner)
    return frozenset()


def _product_witness(e1: Effect, e2: Effect, sigma, both: bool):
    """A shortest word over ``sigma`` of L(e1) that is in L(e2) when
    ``both``, else not in it: breadth-first search over pairs of
    derivatives, never following a pair whose left side (or, when ``both``,
    either side) is empty."""
    seen = {(e1, e2)}
    queue = deque([(e1, e2, ())])
    while queue:
        d1, d2, w = queue.popleft()
        if nullable(d1) and nullable(d2) == both:
            return w
        for a in sigma:
            n1 = deriv(d1, a)
            if n1 is EMPTY:
                continue  # no word of L(e1) continues this way
            n2 = deriv(d2, a)
            if (both and n2 is EMPTY) or (n1, n2) in seen:
                continue
            seen.add((n1, n2))
            queue.append((n1, n2, w + (a,)))
    return None


def inclusion_witness(e1: Effect, e2: Effect):
    """A shortest word of L(e1) \\ L(e2), or None when L(e1) is included in L(e2)."""
    return _product_witness(e1, e2, sorted(alphabet(e1) | alphabet(e2)), False)


def _star_atoms(e: Effect):
    """The atoms ``a1 .. an`` when ``e`` is ``(a1|...|an)*``, else None."""
    if not isinstance(e, Star):
        return None
    parts = e.inner.parts if isinstance(e.inner, Alt) else (e.inner,)
    if all(isinstance(p, Lit) and len(p.word) == 1 for p in parts):
        return frozenset(p.word[0] for p in parts)
    return None


@lru_cache(maxsize=_CACHE_SIZE)
def includes(e1: Effect, e2: Effect) -> bool:
    """True iff L(e1) is a subset of L(e2).

    While every word of ``e1`` starts with one atom ``a``, the question is
    the same for ``a\\e1`` and ``a\\e2``: it is False once ``a\\e2`` is
    ``EMPTY`` and True once the two are one object.  A right side
    ``(a1|...|an)*`` includes ``e1`` when ``alphabet(e1)`` holds no other
    atom.  What is left goes to the product search.
    """
    if e1 is e2 or is_empty_lang(e1):
        return True
    while not nullable(e1):
        first = first_atoms(e1)
        if len(first) != 1:
            break
        (a,) = first
        e1, e2 = deriv(e1, a), deriv(e2, a)
        if e2 is EMPTY:
            return False
        if e1 is e2:
            return True
    atoms = _star_atoms(e2)
    if atoms is not None and alphabet(e1) <= atoms:
        return True
    return inclusion_witness(e1, e2) is None


@lru_cache(maxsize=_CACHE_SIZE)
def overlap_witness(e1: Effect, e2: Effect):
    """A shortest word of L(e1) & L(e2), or None when the languages are disjoint."""
    return _product_witness(e1, e2, sorted(alphabet(e1) & alphabet(e2)), True)


def disjoint(e1: Effect, e2: Effect) -> bool:
    return overlap_witness(e1, e2) is None


def lang_eq(e1: Effect, e2: Effect) -> bool:
    return includes(e1, e2) and includes(e2, e1)


class CoverageError(Exception):
    """Some word of the quotiented language does not start with the given prefix."""

    def __init__(self, prefix, witness=None):
        self.prefix = normalize_name(prefix)
        self.witness = witness
        detail = f" (witness: {format_name(witness)})" if witness is not None else ""
        super().__init__(
            f"language not covered by prefix {format_name(self.prefix)}{detail}"
        )


def quotient_word(phi, e: Effect) -> Effect:
    """Left quotient of L(e) by the word ``phi``.

    Verifies that every word of L(e) starts with ``phi``; raises CoverageError
    (with a witness word) otherwise.
    """
    phi = normalize_name(phi)
    sigma = sorted(alphabet(e) | set(phi))
    universe = star(alt(*(Lit((a,)) for a in sigma)))
    w = inclusion_witness(e, cat(Lit(phi), universe))
    if w is not None:
        raise CoverageError(phi, w)
    for a in phi:
        e = deriv(e, a)
    return e
