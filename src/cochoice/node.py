"""Base classes of the immutable syntax nodes: effects, types and terms.

Every node class is a ``@dataclass(frozen=True, slots=True, eq=False)``
subclass of ``Node`` (effects add ``init=False``), so a node carries its
fields and two more slots and no ``__dict__``. ``_hash`` holds the node's
hash once computed, so a dict or ``lru_cache`` lookup hashes a tree of any
size in one slot read. ``_key`` holds the node's alpha-normal key, filled
in by ``syntax.canon_key``.

Types and terms hash their class and fields, using the children's cached
hashes, and compare field by field, accepting shared children on identity.

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

Terms are not interned because the table would hold one entry for every
distinct subterm ever hashed: on the benchmark's ``translate`` workload
that cost 38 MB more peak memory.
"""

from __future__ import annotations


class Node:
    __slots__ = ("_hash", "_key")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((type(self), *[getattr(self, f) for f in self.__match_args__]))
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        for f in self.__match_args__:
            a, b = getattr(self, f), getattr(other, f)
            if a is not b and a != b:
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
