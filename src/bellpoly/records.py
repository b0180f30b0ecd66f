"""Immutable value records without the dataclasses machinery.

`dataclasses` imports `inspect` and with it most of the compiler
tooling, which costs a cold `bell` process more than the rest of the
package. The few records here need only what a frozen dataclass gives.
"""

from __future__ import annotations


class Record:
    """Base for small immutable records, compared by their fields.

    A subclass lists its fields in `_fields` and sets each one once in
    __init__ through object.__setattr__. After that, assigning or
    deleting an attribute raises AttributeError. Equality holds between
    instances of the same class with equal fields, and hash and repr
    follow the fields in order. Instances keep a __dict__, so copy and
    pickle restore it as they would a frozen dataclass's, and a
    functools.cached_property can store its value there.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable")
