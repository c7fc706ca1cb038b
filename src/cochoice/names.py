"""Names: words over the on/off atoms and name variables.

A name is represented as a flat tuple of atoms.  The atoms ``"o"`` (on) and
``"b"`` (off) are constants; any other string is a name variable.  The empty
tuple is the empty name.
"""

from __future__ import annotations

ON = "o"
OFF = "b"
EPS: tuple = ()


def is_name_var(atom: str) -> bool:
    return atom not in (ON, OFF)


def normalize_name(parts) -> tuple:
    """Flatten arbitrarily nested name material into a word.

    Accepts a single atom or nested tuples/lists of atoms and words; empty
    sequences act as the identity element.  Idempotent on flat words.
    """
    if isinstance(parts, str):
        return (parts,)
    if type(parts) is tuple and all(type(p) is str for p in parts):
        return parts
    out: list[str] = []
    for part in parts:
        out.extend(normalize_name(part))
    return tuple(out)


def name_eq(a, b) -> bool:
    return normalize_name(a) == normalize_name(b)


def name_vars(name) -> frozenset:
    return frozenset(a for a in normalize_name(name) if is_name_var(a))


def word_subst(word, alpha: str, phi) -> tuple:
    """Replace every occurrence of the variable atom ``alpha`` by the word ``phi``."""
    phi = normalize_name(phi)
    out: list[str] = []
    for atom in normalize_name(word):
        if atom == alpha:
            out.extend(phi)
        else:
            out.append(atom)
    return tuple(out)


def format_name(word) -> str:
    word = normalize_name(word)
    return " ".join(word) if word else "eps"
