"""Immutable value records without `dataclasses`.

A subclass of :class:`Record` names its fields in `_fields` and lists them
in `__slots__`; it gets the value semantics of a frozen dataclass: equality
and hash over the fields, a repr that shows them, no assignment after
construction, and pickling.  `dataclasses` itself is not used because its
import (with `inspect`, `ast`, `dis` and `tokenize`) costs more than many
CLI calls compute.
"""

from __future__ import annotations


def _restore(cls, values: tuple):
    record = object.__new__(cls)
    record._set(*values)
    return record


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Assign the fields, in `_fields` order; only constructors call this."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _restore, (type(self), self._values())
