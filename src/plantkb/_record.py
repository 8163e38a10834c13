"""Slotted record classes, built without generating code at import.

A record class names its fields, in order, as both ``__slots__`` and
``__match_args__``, and its ``__init__`` passes their values to
:meth:`Record.__init__`.  A :class:`Record` compares field-wise, prints the
``repr`` a dataclass prints, copies and pickles through its constructor, and
is unhashable; a :class:`FrozenRecord` also hashes its field tuple and
refuses assignment.  A :class:`HashedRecord`, for the RDF terms and triples
that are hashed far more often than built, has its ``__init__`` store that
hash once, in ``_hash``, and compares the hashes before the fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class HashedRecord(FrozenRecord):
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self._hash == other._hash and self._fields() == other._fields()  # type: ignore[attr-defined]
        )
