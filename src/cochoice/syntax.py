"""Abstract syntax shared by both calculi.

Source terms are the plain-choice calculus; target terms add name
abstraction/application and named choices.  All nodes are immutable,
slotted and hash once (see ``node``).  Substitution is capture-avoiding for
both term and name binders and shares every subterm it leaves unchanged.

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


def is_src_value(e: SrcExpr) -> bool:
    if isinstance(e, (Lam, Num, Add)):
        return True
    # partial application of the demo builtin
    return isinstance(e, App) and isinstance(e.fn, Add) and isinstance(e.arg, Num)


def is_tgt_value(m: TgtExpr) -> bool:
    if isinstance(m, (TLam, TNameAbs, TNum, TAdd)):
        return True
    return isinstance(m, TApp) and isinstance(m.fn, TAdd) and isinstance(m.arg, TNum)


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
        return _subst_src(body, x, repl)
    if isinstance(body, TgtExpr):
        if not isinstance(repl, TgtExpr):
            raise TypeError("replacement is not a target expression")
        return _subst_tgt(body, x, repl)
    raise TypeError(f"not an expression: {body!r}")


# Substitution returns a subterm without the variable as it is, so the
# result shares it, together with its cached hash and key.

def _subst_src(e, x, r):
    if x not in free_vars(e):
        return e
    if isinstance(e, Var):
        return r
    if isinstance(e, App):
        return App(_subst_src(e.fn, x, r), _subst_src(e.arg, x, r))
    if isinstance(e, Choice):
        return Choice(_subst_src(e.left, x, r), _subst_src(e.right, x, r))
    if isinstance(e, (Lam, Fix)):
        cls = type(e)
        if e.var in free_vars(r):
            y = fresh(e.var, free_vars(r) | free_vars(e.body) | {x})
            body = _subst_src(e.body, e.var, Var(y))
            return cls(y, e.ann, _subst_src(body, x, r))
        return cls(e.var, e.ann, _subst_src(e.body, x, r))
    raise TypeError(f"not a source expression: {e!r}")


def _subst_tgt(m, x, r):
    if x not in free_vars(m):
        return m
    if isinstance(m, TVar):
        return r
    if isinstance(m, TApp):
        return TApp(_subst_tgt(m.fn, x, r), _subst_tgt(m.arg, x, r))
    if isinstance(m, TNameApp):
        return TNameApp(_subst_tgt(m.fn, x, r), m.name)
    if isinstance(m, TChoice):
        return TChoice(_subst_tgt(m.left, x, r), m.name, _subst_tgt(m.right, x, r))
    if isinstance(m, (TLam, TFix)):
        cls = type(m)
        if m.var in free_vars(r):
            y = fresh(m.var, free_vars(r) | free_vars(m.body) | {x})
            body = _subst_tgt(m.body, m.var, TVar(y))
            return cls(y, m.ann, _subst_tgt(body, x, r))
        return cls(m.var, m.ann, _subst_tgt(m.body, x, r))
    if isinstance(m, TNameAbs):
        # the replacement's free name variables must not be captured
        if m.var in free_name_vars(r):
            g = fresh(m.var, free_name_vars(r) | free_name_vars(m.body))
            body = name_subst(m.body, m.var, (g,))
            return TNameAbs(g, _subst_tgt(body, x, r))
        return TNameAbs(m.var, _subst_tgt(m.body, x, r))
    raise TypeError(f"not a target expression: {m!r}")


def name_subst(entity, alpha: str, phi):
    """Substitute the name ``phi`` for the name variable ``alpha``.

    Works on names, effects, target types, and target expressions;
    capture-avoiding with respect to Forall/name-abstraction binders.
    """
    phi = normalize_name(phi)
    if isinstance(entity, tuple):
        return word_subst(entity, alpha, phi)
    if isinstance(entity, eff.Effect):
        return eff.effect_subst(entity, alpha, phi)
    if isinstance(entity, TgtType):
        return _nsubst_type(entity, alpha, phi)
    if isinstance(entity, TgtExpr):
        return _nsubst_expr(entity, alpha, phi)
    raise TypeError(f"cannot name-substitute in: {entity!r}")


def _nsubst_type(t, alpha, phi):
    if alpha not in free_name_vars(t):
        return t
    if isinstance(t, TArrow):
        return TArrow(
            _nsubst_type(t.arg, alpha, phi),
            eff.effect_subst(t.latent, alpha, phi),
            _nsubst_type(t.res, alpha, phi),
        )
    if isinstance(t, TForall):
        if t.var in name_vars(phi):
            g = fresh(t.var, set(name_vars(phi)) | set(free_name_vars(t)) | {alpha})
            t = TForall(
                g,
                eff.effect_subst(t.latent, t.var, (g,)),
                _nsubst_type(t.body, t.var, (g,)),
            )
        return TForall(
            t.var,
            eff.effect_subst(t.latent, alpha, phi),
            _nsubst_type(t.body, alpha, phi),
        )
    raise TypeError(f"not a target type: {t!r}")


def _nsubst_expr(m, alpha, phi):
    if alpha not in free_name_vars(m):
        return m
    if isinstance(m, TApp):
        return TApp(_nsubst_expr(m.fn, alpha, phi), _nsubst_expr(m.arg, alpha, phi))
    if isinstance(m, TLam):
        return TLam(m.var, _nsubst_type(m.ann, alpha, phi), _nsubst_expr(m.body, alpha, phi))
    if isinstance(m, TFix):
        return TFix(m.var, _nsubst_type(m.ann, alpha, phi), _nsubst_expr(m.body, alpha, phi))
    if isinstance(m, TNameApp):
        return TNameApp(_nsubst_expr(m.fn, alpha, phi), word_subst(m.name, alpha, phi))
    if isinstance(m, TChoice):
        return TChoice(
            _nsubst_expr(m.left, alpha, phi),
            word_subst(m.name, alpha, phi),
            _nsubst_expr(m.right, alpha, phi),
        )
    if isinstance(m, TNameAbs):
        if m.var in name_vars(phi):
            g = fresh(m.var, set(name_vars(phi)) | set(free_name_vars(m)) | {alpha})
            m = TNameAbs(g, _nsubst_expr(m.body, m.var, (g,)))
        return TNameAbs(m.var, _nsubst_expr(m.body, alpha, phi))
    raise TypeError(f"not a target expression: {m!r}")


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
    ``names``) bound by a binder just above it."""
    return _close(k, x, 0, names, {})


def _close(k, x, d, names, memo):
    if x not in (_NAMES if names else _TERMS)[k]:
        return k
    out = memo.get((k, d))
    if out is not None:
        return out
    node = _NODES[k]
    tag = node[0]
    if tag in _LEAVES:  # a Var or TVar leaf, or an nf leaf when names
        out = _intern(("nb" if names else "bv", d))
    else:
        if names:
            inner = d + 1 if tag in _NAME_BINDERS else d
            kids = [_close(c, x, inner, True, memo) for c in node[1:]]
        else:
            kids = [_close(c, x, d, False, memo) for c in node[1:-1]]
            kids.append(_close(node[-1], x, d + 1 if tag in _TERM_BINDERS else d,
                               False, memo))
        if tag == "alt":
            kids.sort()
        out = _intern((tag, *kids))
    memo[k, d] = out
    return out


def _key(x) -> int:
    try:
        return x._key
    except AttributeError:
        pass
    build = _BUILD.get(type(x))
    if build is None:
        if isinstance(x, tuple):
            return _name_key(x)
        raise TypeError(f"cannot canonicalize: {x!r}")
    k = build(x)
    object.__setattr__(x, "_key", k)
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
        return _key(x)
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
    return _NODES[_key(e)][1:]


def _term_binder(tag):
    return lambda n: _intern((tag, _key(n.ann), _bind(_key(n.body), n.var, False)))


_BUILD = {
    eff.Empty: lambda e: _intern(("Empty",)),
    eff.Lit: lambda e: _intern(("cat", *map(_atom_key, e.word))),
    eff.Cat: lambda e: _intern(("cat", *_items(e.left), *_items(e.right))),
    eff.Alt: lambda e: _intern(
        ("cat", _intern(("alt", *sorted(_key(p) for p in e.parts))))),
    eff.Star: lambda e: _intern(("cat", _intern(("star", _key(e.inner))))),
    Nat: lambda t: _intern(("Nat",)),
    TNat: lambda t: _intern(("TNat",)),
    Arrow: lambda t: _intern(("Arrow", _key(t.arg), _key(t.res))),
    TArrow: lambda t: _intern(
        ("TArrow", _key(t.arg), _key(t.latent), _key(t.res))),
    TForall: lambda t: _intern(("TForall", _bind(_key(t.latent), t.var, True),
                                _bind(_key(t.body), t.var, True))),
    Var: lambda e: _intern(("Var", e.name)),
    TVar: lambda m: _intern(("TVar", m.name)),
    Num: lambda e: _intern(("Num", e.value)),
    TNum: lambda m: _intern(("TNum", m.value)),
    Add: lambda e: _intern(("Add",)),
    TAdd: lambda m: _intern(("TAdd",)),
    App: lambda e: _intern(("App", _key(e.fn), _key(e.arg))),
    TApp: lambda m: _intern(("TApp", _key(m.fn), _key(m.arg))),
    Choice: lambda e: _intern(("Choice", _key(e.left), _key(e.right))),
    TChoice: lambda m: _intern(
        ("TChoice", _key(m.left), _name_key(m.name), _key(m.right))),
    TNameApp: lambda m: _intern(("TNameApp", _key(m.fn), _name_key(m.name))),
    TNameAbs: lambda m: _intern(("TNameAbs", _bind(_key(m.body), m.var, True))),
    Lam: _term_binder("Lam"),
    Fix: _term_binder("Fix"),
    TLam: _term_binder("TLam"),
    TFix: _term_binder("TFix"),
}
