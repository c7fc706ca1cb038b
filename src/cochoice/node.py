"""Base classes of the immutable syntax nodes: effects, types and terms.

Every node class is a ``@dataclass(frozen=True, slots=True, eq=False)``
subclass of ``Node`` (effects add ``init=False``), so a node carries its
fields and two more slots and no ``__dict__``. ``_hash`` holds the node's
hash once computed, so a dict or ``lru_cache`` lookup hashes a tree of any
size in one slot read. ``_key`` holds the node's alpha-normal key, filled
in by ``syntax.canon_key``.

Types and terms hash their class and fields, a child node by its cached
hash, and compare field by field, accepting shared children on identity.
Both walk the tree from an explicit stack, not by recursion, so a term of
any depth hashes and compares; hashing visits only the nodes below that
have no hash yet.

Effects are ``Interned``, that is hash-consed: each is built once per
shape, the class name and the fields with each child effect replaced by its
id, and ``_IDS`` maps every shape to its effect.  Constructing an effect
whose shape is there returns that object, so two effects are equal exactly
when they are one object, ``__eq__`` is ``is`` and ``__hash__`` reads the
id kept in ``_hash``.  The effect decision procedures compare and hash many
effects built apart, and their caches then keep one object per effect.
Copying and pickling rebuild through the constructor, so they too return
the stored object.  Effect class names are unique. A shape holds only
strings, ints and tuples of them, not the class object, so the garbage
collector untracks it within two collections instead of walking every
shape in every full collection. The table is not bounded: a dropped shape
would give an equal effect built later a second object, and the two would
compare unequal.

Terms are not interned. Interning would make term equality identity and
build each key once. A prototype that interned terms and types in weak
tables (``weakref.WeakValueDictionary``, whose entries die with the last
reference to their term) made ``wall_s`` 0.67 times as long as without
it on the benchmark's ``bisim`` workload and 0.86 times on ``typing``
(2 vCPUs, Python 3.11.7). It cost ``translate`` three ways:

- building its corpus in-process took 0.55-0.99 s instead of 0.31-0.52 s,
  more than the 25 % by which the benchmark lets ``setup_s`` grow;
- with a weak term table alone, its peak memory rose from 83 to 96 MB;
- with the nameless keys and the effects weak as well, peak memory stayed
  at 83 MB, but the garbage collector took 3.2-3.4 s instead of 2.3-2.8 s.

The step memo of ``source``, which both calculi step through, wins back
part of the stepping time without these costs. An earlier strong table of every subterm ever
hashed cost 38 MB more peak memory on ``translate``.
"""

from __future__ import annotations


class Node:
    __slots__ = ("_hash", "_key")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        # the class and fields, a child node by its hash; children without
        # one are hashed first, from a stack, so that no depth recurses
        stack = [self]
        while stack:
            node = stack[-1]
            parts = [type(node)]
            for f in node.__match_args__:
                v = getattr(node, f)
                if isinstance(v, Node):
                    try:
                        v = v._hash
                    except AttributeError:
                        stack.append(v)
                parts.append(v)
            if stack[-1] is node:
                stack.pop()
                object.__setattr__(node, "_hash", hash(tuple(parts)))
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]  # of one class, compared in turn, no recursion
        for a, b in pairs:
            for f in a.__match_args__:
                x, y = getattr(a, f), getattr(b, f)
                if x is y:
                    continue
                if type(x) is not type(y):
                    return False
                if isinstance(x, Node) and not isinstance(x, Interned):
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True


_IDS: dict = {}  # (class name, *fields with child effects as ids) -> effect


def _field(v):
    """A field as its shape holds it: a child effect, or a tuple of them
    (told by its first item), as ids; a word as it is."""
    if isinstance(v, Interned):
        return v._hash
    if type(v) is tuple and v and isinstance(v[0], Interned):
        return tuple(map(_field, v))
    return v


class Interned(Node):
    """A node built once per shape: constructing a node equal to one built
    before returns that one, so equality is identity and the hash is the
    id kept in ``_hash``.  Subclasses are dataclasses with ``init=False``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__
        if kwargs:  # a missing field fails the count below
            args += tuple(kwargs.pop(f) for f in names[len(args):] if f in kwargs)
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected fields {sorted(kwargs)}")
        shape = (cls.__name__, *map(_field, args))
        self = _IDS.get(shape)
        if self is None:
            if len(args) != len(names):
                raise TypeError(f"{cls.__name__}() takes fields {names}")
            self = object.__new__(cls)
            for f, v in zip(names, args):
                object.__setattr__(self, f, v)
            object.__setattr__(self, "_hash", len(_IDS))
            _IDS[shape] = self
        return self

    def __reduce__(self):  # copy and pickle rebuild through __new__
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other
