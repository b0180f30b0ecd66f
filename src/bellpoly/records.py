"""Immutable value records without the dataclasses machinery.

`dataclasses` imports `inspect` and with it most of the compiler
tooling, which costs a cold `bell` process more than the rest of the
package. The value types here need only what a frozen, slotted
dataclass gives, and every one of them, `RationalPolynomial` included,
gets it from `Record`.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base for small immutable records, compared by their fields.

    A subclass declares `__slots__ = _fields = (...)` and sets each
    field once, when it builds the instance, through object.__setattr__.
    After that, assigning or deleting an attribute raises
    AttributeError. Instances hold no __dict__. Equality holds between
    instances of the same class with equal fields, and hash and repr
    follow the fields in order. Copy and pickle rebuild an instance by
    calling its class with its fields in order, so the constructor must
    accept them positionally.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter is a builtin, which does not bind as a method. It
        # returns the one value itself for a one-field record.
        cls._get = staticmethod(attrgetter(*cls._fields))

    def _values(self) -> tuple:
        values = self._get(self)
        return (values,) if len(self._fields) == 1 else values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == self._get(other)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable")
