"""The immutable record base of the package's value types.

A record is a namedtuple subclass: `class X(Record, namedtuple("X", "a b"))`
with `__slots__ = ()`, so fields cannot be assigned.  It is equal only to
a record of the same class (not to a plain tuple, nor to another record
class with the same fields) and hashes as the tuple of its fields, which
is what a frozen dataclass does, without importing `dataclasses` or
generating code per class.  Checks on the fields go in `__new__`.
"""


class Record(tuple):
    """Base of the immutable records: equal only to a record of the same class."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__
