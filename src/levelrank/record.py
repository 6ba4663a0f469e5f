"""Plain immutable records.

A record's fields are the entries of its ``__dict__``, set once by its
``__init__`` in constructor order; ``repr`` lists them, and assigning or
deleting an attribute raises AttributeError. A ``Record`` compares by
identity, a ``ValueRecord`` field by field (and hashes its fields).
"""

from __future__ import annotations


class Record:
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({body})"


class ValueRecord(Record):
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))
