"""Abstract syntax shared by both calculi.

Source terms are the plain-choice calculus; target terms add name
abstraction/application and named choices.  All nodes are immutable,
slotted and hash once (see ``node``).  One substitution of terms serves
both calculi, and one substitution of names serves target types and terms.
Both are capture-avoiding for term and name binders, rebuild every other
node from its fields, and share every subterm they leave unchanged.

``canon_key`` gives every name, effect, type and term an int key, equal
exactly for entities that agree up to consistent renaming of bound term and
name variables, name normalization, associativity of effect concatenation
and the order of effect alternatives; ``alpha_eq`` compares keys.  The keys
come from one intern table: a node's key is computed once from its
children's keys and stored in the node, and bound variables become de
Bruijn indices.  The table also holds each key's free term and name
variables, which ``free_vars`` and ``free_name_vars`` return.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

from . import effects as eff
from .names import is_name_var, name_vars, normalize_name, word_subst
from .node import Node

_CACHE_SIZE = 1 << 12  # entries of the lru_cache on _name_key


# ---------------------------------------------------------------------------
# types

class SrcType(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class Nat(SrcType):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Arrow(SrcType):
    arg: SrcType
    res: SrcType


NAT = Nat()


class TgtType(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class TNat(TgtType):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class TArrow(TgtType):
    arg: TgtType
    latent: eff.Effect
    res: TgtType


@dataclass(frozen=True, slots=True, eq=False)
class TForall(TgtType):
    var: str
    latent: eff.Effect
    body: TgtType


TNAT = TNat()


# ---------------------------------------------------------------------------
# expressions

class SrcExpr(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class Var(SrcExpr):
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class App(SrcExpr):
    fn: SrcExpr
    arg: SrcExpr


@dataclass(frozen=True, slots=True, eq=False)
class Lam(SrcExpr):
    var: str
    ann: SrcType
    body: SrcExpr


@dataclass(frozen=True, slots=True, eq=False)
class Fix(SrcExpr):
    var: str
    ann: SrcType
    body: SrcExpr


@dataclass(frozen=True, slots=True, eq=False)
class Choice(SrcExpr):
    left: SrcExpr
    right: SrcExpr


@dataclass(frozen=True, slots=True, eq=False)
class Num(SrcExpr):
    value: int


@dataclass(frozen=True, slots=True, eq=False)
class Add(SrcExpr):
    """Demo builtin of type nat -> nat -> nat; rejected by the compiler."""


ADD = Add()


class TgtExpr(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False)
class TVar(TgtExpr):
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class TApp(TgtExpr):
    fn: TgtExpr
    arg: TgtExpr


@dataclass(frozen=True, slots=True, eq=False)
class TLam(TgtExpr):
    var: str
    ann: TgtType
    body: TgtExpr


@dataclass(frozen=True, slots=True, eq=False)
class TNameApp(TgtExpr):
    fn: TgtExpr
    name: tuple


@dataclass(frozen=True, slots=True, eq=False)
class TNameAbs(TgtExpr):
    var: str
    body: TgtExpr


@dataclass(frozen=True, slots=True, eq=False)
class TFix(TgtExpr):
    var: str
    ann: TgtType
    body: TgtExpr


@dataclass(frozen=True, slots=True, eq=False)
class TChoice(TgtExpr):
    left: TgtExpr
    name: tuple
    right: TgtExpr


@dataclass(frozen=True, slots=True, eq=False)
class TNum(TgtExpr):
    value: int


@dataclass(frozen=True, slots=True, eq=False)
class TAdd(TgtExpr):
    """Demo builtin mirroring the source one."""


TADD = TAdd()


def is_value(e) -> bool:
    """A value of either calculus: an abstraction, a numeral, the builtin
    or the builtin applied to a numeral."""
    if isinstance(e, (Lam, TLam, TNameAbs, Num, TNum, Add, TAdd)):
        return True
    return (isinstance(e, (App, TApp)) and isinstance(e.fn, (Add, TAdd))
            and isinstance(e.arg, (Num, TNum)))


def is_answer(e) -> bool:
    """A value or a choice tree of values: a normal form that is not stuck."""
    if isinstance(e, (Choice, TChoice)):
        return is_answer(e.left) and is_answer(e.right)
    return is_value(e)


def size_of(e) -> int:
    if isinstance(e, (Var, Num, Add, TVar, TNum, TAdd)):
        return 1
    if isinstance(e, (App, TApp)):
        return 1 + size_of(e.fn) + size_of(e.arg)
    if isinstance(e, (Lam, Fix, TLam, TFix, TNameAbs)):
        return 1 + size_of(e.body)
    if isinstance(e, (Choice, TChoice)):
        return 1 + size_of(e.left) + size_of(e.right)
    if isinstance(e, TNameApp):
        return 1 + size_of(e.fn)
    raise TypeError(f"not an expression: {e!r}")


def fresh(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# substitution

def subst_term(body, x: str, repl):
    """Capture-avoiding substitution body[x := repl], in either calculus."""
    if isinstance(body, SrcExpr):
        if not isinstance(repl, SrcExpr):
            raise TypeError("replacement is not a source expression")
    elif isinstance(body, TgtExpr):
        if not isinstance(repl, TgtExpr):
            raise TypeError("replacement is not a target expression")
    else:
        raise TypeError(f"not an expression: {body!r}")
    return _subst(body, x, repl)


# Substitution returns a subterm without the variable as it is, so the
# result shares it, together with its cached hash and key.  The binders
# rename their variable when the replacement would capture it; every other
# node is rebuilt with its own class from its substituted fields.

def _subst(e, x, r):
    if x not in free_vars(e):
        return e
    if isinstance(e, (Var, TVar)):
        return r
    if isinstance(e, (Lam, Fix, TLam, TFix)):
        var, body = e.var, e.body
        if var in free_vars(r):
            var = fresh(var, free_vars(r) | free_vars(body) | {x})
            rename = TVar if isinstance(e, TgtExpr) else Var
            body = _subst(body, e.var, rename(var))
        return type(e)(var, e.ann, _subst(body, x, r))
    if isinstance(e, TNameAbs):
        # the replacement's free name variables must not be captured
        var, body = e.var, e.body
        if var in free_name_vars(r):
            var = fresh(var, free_name_vars(r) | free_name_vars(body))
            body = name_subst(body, e.var, (var,))
        return TNameAbs(var, _subst(body, x, r))
    fields = [getattr(e, f) for f in e.__match_args__]
    return type(e)(*[_subst(v, x, r) if isinstance(v, Node) else v
                     for v in fields])


def name_subst(entity, alpha: str, phi):
    """Substitute the name ``phi`` for the name variable ``alpha``.

    Works on names, effects, target types, and target expressions;
    capture-avoiding with respect to Forall/name-abstraction binders.
    """
    if not isinstance(entity, (tuple, eff.Effect, TgtType, TgtExpr)):
        raise TypeError(f"cannot name-substitute in: {entity!r}")
    return _nsubst(entity, alpha, normalize_name(phi))


def _nsubst(x, alpha, phi):
    """``name_subst`` with ``phi`` normalized, also on a string field (a
    binder or variable name), which it keeps.  A binder whose variable
    occurs in ``phi`` first renames it to a fresh one; then every field is
    substituted in ``__match_args__`` order."""
    if isinstance(x, tuple):
        return word_subst(x, alpha, phi)
    if isinstance(x, eff.Effect):
        return eff.effect_subst(x, alpha, phi)
    if isinstance(x, str) or alpha not in free_name_vars(x):
        return x
    fields = [getattr(x, f) for f in x.__match_args__]
    if isinstance(x, (TForall, TNameAbs)) and x.var in name_vars(phi):
        g = fresh(x.var, name_vars(phi) | free_name_vars(x) | {alpha})
        fields = [g] + [_nsubst(v, x.var, (g,)) for v in fields[1:]]
    return type(x)(*[_nsubst(v, alpha, phi) for v in fields])


# ---------------------------------------------------------------------------
# interned keys: alpha equivalence and free variables
#
# Every entity gets an int key from one intern table. A node's key is built
# from its class and its children's keys and kept in its ``_key`` slot, so a
# term that shares subterms with a keyed term costs only its new nodes. Keys
# are locally nameless: a binder turns the free occurrences of its variable
# in its body's key into de Bruijn indices (``_bind``), while free variables
# keep their names. Effect concatenations and literals are flattened into one
# item list, and alternation parts are sorted by key. Keys are never reissued
# within a process, so a key stored anywhere never names another term.
# ``_intern`` records each key's free term and name variables once: the union
# of its children's, in which bound variables are already indices.

_IDS: dict = {}       # canonical node -> key
_NODES: list = []     # key -> canonical node: (tag, *child keys) or a leaf
_TERMS: list = []     # key -> free term variables, sets shared
_NAMES: list = []     # key -> free name variables, sets shared
_CALLS = [0, 0]       # canon_key calls answered from the slot, keys built
_NO_VARS: frozenset = frozenset()

# leaves are (tag, payload); Var, TVar and nf leaves are free variables
_TERM_VARS = frozenset({"Var", "TVar"})
_LEAVES = _TERM_VARS | {"nf", "bv", "nb", "atom", "Num", "TNum", "Add", "TAdd",
                        "Nat", "TNat", "Empty"}
_TERM_BINDERS = frozenset({"Lam", "Fix", "TLam", "TFix"})  # bind the last child
_NAME_BINDERS = frozenset({"TForall", "TNameAbs"})         # bind every child


def _intern(node: tuple) -> int:
    k = _IDS.get(node)
    if k is None:
        k = _IDS[node] = len(_NODES)
        _NODES.append(node)
        tag = node[0]
        terms = names = _NO_VARS
        if tag in _TERM_VARS:
            terms = frozenset(node[1:])
        elif tag == "nf":
            names = frozenset(node[1:])
        elif tag not in _LEAVES:
            terms = _union(_TERMS, node[1:])
            names = _union(_NAMES, node[1:])
        _TERMS.append(terms)
        _NAMES.append(names)
    return k


def _union(table: list, keys) -> frozenset:
    # a child's set that holds the others' is reused, so most keys share one
    free = _NO_VARS
    for c in keys:
        f = table[c]
        if not f <= free:
            free = f if free <= f else free | f
    return free


def _bind(k: int, x: str, names: bool) -> int:
    """Key ``k`` with the free term variable ``x`` (a name variable when
    ``names``) bound by a binder just above it: each occurrence of ``x``
    becomes the index of its binder.  The walk is post-order from an
    explicit stack, visits only keys in which ``x`` is free, and builds
    each ``(key, depth)`` once."""
    table = _NAMES if names else _TERMS
    if x not in table[k]:
        return k
    memo = {}  # (key, binder depth) -> key with x bound
    stack = [(k, 0)]
    while stack:
        k1, d = stack[-1]
        if (k1, d) in memo:
            stack.pop()
            continue
        node = _NODES[k1]
        tag = node[0]
        if tag in _LEAVES:  # a Var or TVar leaf, or an nf leaf when names
            memo[k1, d] = _intern(("nb" if names else "bv", d))
            stack.pop()
            continue
        if names:
            inner = d + 1 if tag in _NAME_BINDERS else d
            kids = [(c, inner) for c in node[1:]]
        else:
            kids = [(c, d) for c in node[1:-1]]
            kids.append((node[-1], d + 1 if tag in _TERM_BINDERS else d))
        out = []
        for c, cd in kids:
            if x not in table[c]:
                out.append(c)
            elif (c, cd) in memo:
                out.append(memo[c, cd])
            else:
                stack.append((c, cd))
        if len(out) < len(kids):
            continue  # built when the children pushed above are
        if tag == "alt":
            out.sort()
        memo[k1, d] = _intern((tag, *out))
        stack.pop()
    return memo[k, 0]


def _key(x) -> int:
    try:
        return x._key
    except AttributeError:
        return _build(x)


def _build(x) -> int:
    """Key ``x``, whose slot is empty, and every node below it without one.

    The children are keyed first, from an explicit stack, so that no depth
    recurses.  A build that meets a child without a key fails on reading
    its slot; the failed read names that child (``AttributeError.obj``),
    which is built first and the build tried again.
    """
    if type(x) not in _BUILD:
        if isinstance(x, tuple):
            return _name_key(x)
        raise TypeError(f"cannot canonicalize: {x!r}")
    stack = [x]
    while stack:
        node = stack[-1]
        try:
            k = _BUILD[type(node)](node)
        except AttributeError as exc:
            if exc.name != "_key" or type(exc.obj) not in _BUILD:
                raise
            stack.append(exc.obj)
            continue
        object.__setattr__(node, "_key", k)
        stack.pop()
    return k


def canon_key(x) -> int:
    """An int equal for alpha-equivalent names, effects, types or terms.

    Bound term and name variables are de Bruijn indices, names are
    normalized, effect concatenations and literals are flattened and
    alternation parts sorted. Source and target entities never share a key.
    ``canon_key.cache_info()`` counts calls answered from a node's slot
    (``hits``), keys built (``misses``) and keys interned (``currsize``).
    """
    try:
        k = x._key
    except AttributeError:
        _CALLS[1] += 1
        return _build(x)
    _CALLS[0] += 1
    return k


KeyInfo = namedtuple("KeyInfo", "hits misses currsize")
canon_key.cache_info = lambda: KeyInfo(_CALLS[0], _CALLS[1], len(_NODES))


def alpha_eq(a, b) -> bool:
    return canon_key(a) == canon_key(b)


def free_vars(e) -> frozenset:
    """Free term variables of a term, read from the key table."""
    return _TERMS[_key(e)]


def free_name_vars(x) -> frozenset:
    """Free name variables of a name, effect, target type, or target expression."""
    return name_vars(x) if isinstance(x, tuple) else _NAMES[_key(x)]


def _atom_key(a) -> int:
    return _intern(("nf", a) if is_name_var(a) else ("atom", a))


@lru_cache(maxsize=_CACHE_SIZE)
def _name_key(word) -> int:
    return _intern(("name", *map(_atom_key, normalize_name(word))))


def _items(e) -> tuple:
    """The flattened item list of an effect: atoms, alternations, stars."""
    if isinstance(e, eff.Empty):
        return (_intern(("Empty",)),)
    return _NODES[e._key][1:]


def _term_binder(tag):
    return lambda n: _intern((tag, n.ann._key, _bind(n.body._key, n.var, False)))


_BUILD = {
    eff.Empty: lambda e: _intern(("Empty",)),
    eff.Lit: lambda e: _intern(("cat", *map(_atom_key, e.word))),
    eff.Cat: lambda e: _intern(("cat", *_items(e.left), *_items(e.right))),
    eff.Alt: lambda e: _intern(
        ("cat", _intern(("alt", *sorted(p._key for p in e.parts))))),
    eff.Star: lambda e: _intern(("cat", _intern(("star", e.inner._key)))),
    Nat: lambda t: _intern(("Nat",)),
    TNat: lambda t: _intern(("TNat",)),
    Arrow: lambda t: _intern(("Arrow", t.arg._key, t.res._key)),
    TArrow: lambda t: _intern(
        ("TArrow", t.arg._key, t.latent._key, t.res._key)),
    TForall: lambda t: _intern(("TForall", _bind(t.latent._key, t.var, True),
                                _bind(t.body._key, t.var, True))),
    Var: lambda e: _intern(("Var", e.name)),
    TVar: lambda m: _intern(("TVar", m.name)),
    Num: lambda e: _intern(("Num", e.value)),
    TNum: lambda m: _intern(("TNum", m.value)),
    Add: lambda e: _intern(("Add",)),
    TAdd: lambda m: _intern(("TAdd",)),
    App: lambda e: _intern(("App", e.fn._key, e.arg._key)),
    TApp: lambda m: _intern(("TApp", m.fn._key, m.arg._key)),
    Choice: lambda e: _intern(("Choice", e.left._key, e.right._key)),
    TChoice: lambda m: _intern(
        ("TChoice", m.left._key, _name_key(m.name), m.right._key)),
    TNameApp: lambda m: _intern(("TNameApp", m.fn._key, _name_key(m.name))),
    TNameAbs: lambda m: _intern(("TNameAbs", _bind(m.body._key, m.var, True))),
    Lam: _term_binder("Lam"),
    Fix: _term_binder("Fix"),
    TLam: _term_binder("TLam"),
    TFix: _term_binder("TFix"),
}
