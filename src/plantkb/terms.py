"""RDF term and triple model.

A term is exactly one of :class:`Iri`, :class:`BlankNode`, or
:class:`Literal`.  All three are immutable and hashable so they can live in
sets and serve as dictionary keys.  :class:`Var` is not an RDF term; it is a
named placeholder used inside :class:`TriplePattern` by the query layer.

These are plain slotted classes, not dataclasses.  A term or :class:`Triple`
keeps the hash of its field tuple, ``hash((value,))`` for an IRI, from when
it is built.
"""

from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from typing import Any, Union

from ._record import FrozenRecord
from .errors import MalformedTripleError

_IRI_FORBIDDEN = re.compile(r'[\s<>"]')
_BNODE_LABEL = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?")
_LANG_TAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")
_set = object.__setattr__  # a term's fields are set once, in its __init__

XSD = "http://www.w3.org/2001/XMLSchema#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
OWL = "http://www.w3.org/2002/07/owl#"


class Iri(FrozenRecord):
    """An absolute IRI, compared as raw text (no normalization)."""

    __slots__ = ("value", "_hash")
    __match_args__ = ("value",)
    value: str

    def __init__(self, value: str):
        if not value:
            raise ValueError("IRI must be non-empty")
        if _IRI_FORBIDDEN.search(value):
            raise ValueError(f"IRI contains whitespace, quote, or angle bracket: {value!r}")
        _set(self, "value", value)
        _set(self, "_hash", hash((value,)))

    def __eq__(self, other: Any) -> bool:
        return self.value == other.value if other.__class__ is Iri else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def local_name(self) -> str:
        """Fragment after the last '#' or '/', or the whole IRI if neither occurs."""
        for sep in "#/":
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value

    def __repr__(self) -> str:
        return f"<{self.value}>"


# Vocabulary constants.  Kept here so every module shares one object per IRI.
RDF_TYPE = Iri(RDF + "type")
RDF_LANG_STRING = Iri(RDF + "langString")
RDFS_SUBCLASSOF = Iri(RDFS + "subClassOf")
RDFS_SUBPROPERTYOF = Iri(RDFS + "subPropertyOf")
RDFS_DOMAIN = Iri(RDFS + "domain")
RDFS_RANGE = Iri(RDFS + "range")
RDFS_LABEL = Iri(RDFS + "label")
OWL_CLASS = Iri(OWL + "Class")
OWL_THING = Iri(OWL + "Thing")
OWL_OBJECT_PROPERTY = Iri(OWL + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL + "DatatypeProperty")
OWL_ANNOTATION_PROPERTY = Iri(OWL + "AnnotationProperty")
OWL_TRANSITIVE_PROPERTY = Iri(OWL + "TransitiveProperty")
OWL_SYMMETRIC_PROPERTY = Iri(OWL + "SymmetricProperty")
OWL_INVERSE_OF = Iri(OWL + "inverseOf")
OWL_DISJOINT_WITH = Iri(OWL + "disjointWith")
XSD_STRING = Iri(XSD + "string")
XSD_INTEGER = Iri(XSD + "integer")
XSD_DECIMAL = Iri(XSD + "decimal")
XSD_BOOLEAN = Iri(XSD + "boolean")
XSD_DOUBLE = Iri(XSD + "double")
XSD_FLOAT = Iri(XSD + "float")

_INTEGER_SHAPE = re.compile(r"[+-]?[0-9]+")
_DECIMAL_SHAPE = re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.?[0-9]+)")


class BlankNode(FrozenRecord):
    """An anonymous node whose label is meaningful within one graph only."""

    __slots__ = ("label", "_hash")
    __match_args__ = ("label",)
    label: str

    def __init__(self, label: str):
        if not _BNODE_LABEL.fullmatch(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        _set(self, "label", label)
        _set(self, "_hash", hash((label,)))

    def __eq__(self, other: Any) -> bool:
        return self.label == other.label if other.__class__ is BlankNode else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"_:{self.label}"


class Literal(FrozenRecord):
    """A data value: lexical form plus datatype, with an optional language tag.

    Identity is the (lexical, datatype, language) triple, so "5"^^xsd:integer
    and "5"^^xsd:string are distinct terms.
    """

    __slots__ = ("lexical", "datatype", "language", "_hash")
    __match_args__ = ("lexical", "datatype", "language")
    lexical: str
    datatype: Iri
    language: str | None

    def __init__(self, lexical: str, datatype: Iri = XSD_STRING, language: str | None = None):
        if language is not None:
            if datatype != RDF_LANG_STRING:
                raise ValueError("language tag requires the rdf:langString datatype")
            if not _LANG_TAG.fullmatch(language):
                raise ValueError(f"malformed language tag: {language!r}")
        elif datatype == RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")
        if datatype == XSD_INTEGER and not _INTEGER_SHAPE.fullmatch(lexical):
            raise ValueError(f"not a valid xsd:integer lexical form: {lexical!r}")
        if datatype == XSD_DECIMAL and not _DECIMAL_SHAPE.fullmatch(lexical):
            raise ValueError(f"not a valid xsd:decimal lexical form: {lexical!r}")
        if datatype in (XSD_DOUBLE, XSD_FLOAT):
            try:
                float(lexical)
            except ValueError:
                raise ValueError(f"not a valid {datatype.local_name()} lexical form: {lexical!r}") from None
        _set(self, "lexical", lexical)
        _set(self, "datatype", datatype)
        _set(self, "language", language)
        _set(self, "_hash", hash((lexical, datatype, language)))

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Literal:
            return NotImplemented
        return (self.lexical, self.datatype, self.language) == (other.lexical, other.datatype, other.language)

    def __hash__(self) -> int:
        return self._hash

    def numeric_value(self) -> int | Decimal | float | None:
        """Numeric interpretation, or None when this literal is not a number."""
        if self.datatype == XSD_INTEGER:
            try:
                return int(self.lexical)
            except ValueError:  # more digits than int() reads; Decimal is exact at any length
                return Decimal(self.lexical)
        if self.datatype == XSD_DECIMAL:
            try:
                return Decimal(self.lexical)
            except InvalidOperation:  # pragma: no cover - blocked by __init__
                return None
        if self.datatype in (XSD_DOUBLE, XSD_FLOAT):
            value = float(self.lexical)
            return None if value != value else value  # NaN is not orderable
        return None

    def __repr__(self) -> str:
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        if self.datatype == XSD_STRING:
            return f'"{self.lexical}"'
        return f'"{self.lexical}"^^<{self.datatype.value}>'


Term = Union[Iri, BlankNode, Literal]


class Var(FrozenRecord):
    """A named variable slot in a triple pattern (query layer only)."""

    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"invalid variable name: {name!r}")
        super().__init__(name)

    def __repr__(self) -> str:
        return f"?{self.name}"


# A pattern slot: a concrete term, a named variable, or None (anonymous wildcard).
PatternSlot = Union[Iri, BlankNode, Literal, Var, None]


class Triple(FrozenRecord):
    """One subject-predicate-object statement."""

    __slots__ = ("subject", "predicate", "object", "_hash")
    __match_args__ = ("subject", "predicate", "object")
    subject: Iri | BlankNode
    predicate: Iri
    object: Term

    def __init__(self, subject: Iri | BlankNode, predicate: Iri, object: Term):
        if not isinstance(subject, (Iri, BlankNode)):
            raise MalformedTripleError(f"subject must be an IRI or blank node, got {subject!r}")
        if not isinstance(predicate, Iri):
            raise MalformedTripleError(f"predicate must be an IRI, got {predicate!r}")
        if not isinstance(object, (Iri, BlankNode, Literal)):
            raise MalformedTripleError(f"object must be an RDF term, got {object!r}")
        _set(self, "subject", subject)
        _set(self, "predicate", predicate)
        _set(self, "object", object)
        _set(self, "_hash", hash((subject, predicate, object)))

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Triple:
            return NotImplemented
        return (self.subject, self.predicate, self.object) == (other.subject, other.predicate, other.object)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


class TriplePattern(FrozenRecord):
    """A triple with any slot possibly a variable or wildcard.

    A pattern with three concrete slots is a membership test.  The same
    variable appearing in two slots only matches triples carrying the same
    term in both positions.
    """

    __slots__ = __match_args__ = ("subject", "predicate", "object")
    subject: PatternSlot
    predicate: PatternSlot
    object: PatternSlot

    def __init__(self, subject: PatternSlot = None, predicate: PatternSlot = None, object: PatternSlot = None):
        super().__init__(subject, predicate, object)

    def slots(self) -> tuple[PatternSlot, PatternSlot, PatternSlot]:
        return (self.subject, self.predicate, self.object)

    def variables(self) -> list[str]:
        """Variable names in slot order, without duplicates."""
        names: list[str] = []
        for slot in self.slots():
            if isinstance(slot, Var) and slot.name not in names:
                names.append(slot.name)
        return names

    def is_concrete(self) -> bool:
        return all(isinstance(s, (Iri, BlankNode, Literal)) for s in self.slots())


def term_sort_key(term: Term) -> tuple:
    """Total, deterministic order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(term, Iri):
        return (0, term.value, "", "")
    if isinstance(term, BlankNode):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype.value, term.language or "")
