"""Field-wise equality and repr for the package's small record classes.

They are written out here rather than generated by the standard
library, whose class generator imports ``inspect``, ``ast``, ``dis`` and
``tokenize``: that import alone would be most of the package's own
start-up.  A class lists its fields in ``_fields`` and writes its own
``__init__``.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Fields", "FrozenFields"]


class Fields:
    """Equal when of the same class with equal fields; not hashable, as
    defining ``__eq__`` alone makes a class."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        # a discriminant is nearly always compared with itself (a root
        # chart checks each element it lifts), so that case builds no
        # field tuples
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class FrozenFields(Fields):
    """Fields set once, in ``__init__`` through ``object.__setattr__``,
    and hashed by value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._values())
