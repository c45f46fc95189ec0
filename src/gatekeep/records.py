"""Immutable records on ``collections.namedtuple``.

A record class subclasses ``Record`` and a namedtuple of its fields, and
checks or normalises its fields in ``__new__``. Unlike ``dataclasses``,
``namedtuple`` builds a class without compiling source for each method and
without importing ``inspect``, which is most of what a CLI process would
otherwise spend on importing this package.
"""


class Record:
    """Mixin for a namedtuple record: equal only to a record of its own type, and frozen."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")


def replace(record, **changes):
    """record with the named fields changed, built again so that its checks run
    again (namedtuple's ``_replace`` skips ``__new__``)."""
    return type(record)(**{**record._asdict(), **changes})
