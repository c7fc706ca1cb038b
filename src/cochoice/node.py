"""Base classes of the immutable syntax nodes: effects, types and terms.

Every node class is a ``@dataclass(frozen=True, slots=True, eq=False)``
subclass of ``Node``, so a node carries its fields and two more slots and
no ``__dict__``. ``_hash`` holds the node's hash once computed, so a dict or
``lru_cache`` lookup hashes a tree of any size in one slot read. ``_key``
holds the node's alpha-normal key, filled in by ``syntax.canon_key``.

Types and terms hash their class and fields, using the children's cached
hashes, and compare field by field, accepting shared children on identity.

Effects are ``Interned``: their hash is an id from one table, ``_IDS``,
keyed by a shape: the class name and the fields, with each child effect
replaced by its id, so two effects are equal exactly when their ids are.
The effect decision procedures compare many equal effects built apart, for
which a field-by-field comparison would walk both trees. Effect class names
are unique. A shape holds only strings, ints and tuples of them, not the
class object, so the garbage collector untracks it within two collections
instead of walking every shape in every full collection. The table is not
bounded: an effect keeps its id in ``_hash``, so a dropped shape would give
an equal effect built later a second id, and the two would compare unequal.

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


_IDS: dict = {}  # (class name, *fields with child effects as ids) -> id


def _field(v):
    if isinstance(v, Interned):
        return hash(v)
    if type(v) is tuple:
        return tuple(map(_field, v))
    return v


class Interned(Node):
    """A node whose hash is an id that no unequal node shares."""

    __slots__ = ()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        shape = (type(self).__name__,
                 *[_field(getattr(self, f)) for f in self.__match_args__])
        h = _IDS.get(shape)
        if h is None:
            h = _IDS[shape] = len(_IDS)
        object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Interned):
            return NotImplemented
        return hash(self) == hash(other)
