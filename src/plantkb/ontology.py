"""Ontology-level view over a triple graph.

Interprets the raw triples as OWL-style declarations: named classes, object
and datatype properties with their domain/range/characteristics, individuals,
and the owl:Thing-rooted class hierarchy.  Anonymous class expressions
(restrictions, intersections) are out of scope; blank-node class
declarations are ignored by this view.  The view reads each predicate it
needs (rdf:type, rdfs:subClassOf, rdfs:label, rdfs:domain, rdfs:range,
owl:inverseOf) from the store once, however many classes, properties and
individuals there are.

Also renders the hierarchy and the property graph as GraphViz DOT text.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple

from ._record import FrozenRecord
from .errors import SubclassCycleError
from .graph import Graph
from .reasoner import subclass_cycles
from .terms import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_INVERSE_OF,
    OWL_OBJECT_PROPERTY,
    OWL_SYMMETRIC_PROPERTY,
    OWL_THING,
    OWL_TRANSITIVE_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    Iri,
    Literal,
    Term,
    TriplePattern,
    term_sort_key,
)


class PropertyKind(Enum):
    OBJECT = "object-property"
    DATATYPE = "datatype-property"


class OntologyClass(FrozenRecord):
    __slots__ = __match_args__ = ("iri", "label", "direct_supers")

    def __init__(self, iri: Iri, label: str | None, direct_supers: frozenset[Iri]):
        super().__init__(iri, label, direct_supers)


class PropertyDecl(FrozenRecord):
    __slots__ = __match_args__ = ("iri", "kind", "domain", "range", "characteristics", "inverse_of")

    def __init__(self, iri: Iri, kind: PropertyKind, domain: frozenset[Iri], range: frozenset[Iri],
                 characteristics: frozenset[str],  # a subset of {"transitive", "symmetric"}
                 inverse_of: Iri | None):
        super().__init__(iri, kind, domain, range, characteristics, inverse_of)


class Individual(FrozenRecord):
    __slots__ = __match_args__ = ("iri", "asserted_types")

    def __init__(self, iri: Iri, asserted_types: frozenset[Iri]):
        super().__init__(iri, asserted_types)


class OntologyView(NamedTuple):
    """The three declaration collections, each keyed by IRI."""

    classes: dict[Iri, OntologyClass]
    properties: dict[Iri, PropertyDecl]
    individuals: dict[Iri, Individual]


def _objects_by_subject(graph: Graph, predicate: Iri) -> dict[Term, list[Term]]:
    """The objects of every ``predicate`` triple, grouped by subject, from one
    read; the (predicate, object, subject) view gives each subject's objects
    in the order a per-subject read does."""
    grouped: dict[Term, list[Term]] = {}
    for t in graph.match(TriplePattern(None, predicate, None)):
        grouped.setdefault(t.subject, []).append(t.object)
    return grouped


def _iris(terms: Iterable[Term]) -> frozenset[Iri]:
    return frozenset(t for t in terms if isinstance(t, Iri))


def _best_label(labels: Iterable[Term]) -> str | None:
    best = min((t for t in labels if isinstance(t, Literal)), key=term_sort_key, default=None)
    return None if best is None else best.lexical


def extract_ontology(graph: Graph) -> OntologyView:
    """Collect class, property, and individual declarations from the graph.

    Classes are IRI subjects typed owl:Class; properties are IRI subjects
    typed owl:ObjectProperty or owl:DatatypeProperty; individuals are IRI
    subjects typed by any declared class.  Undeclared references are left
    to the lint checks.
    """
    # one read of every rdf:type triple, in (type, subject) index order, so
    # each type's members come in the order a per-type read gives them
    members: dict[Term, list[Term]] = {}
    types_of: dict[Term, set[Iri]] = {}
    for t in graph.match(TriplePattern(None, RDF_TYPE, None)):
        members.setdefault(t.object, []).append(t.subject)
        if isinstance(t.object, Iri):
            types_of.setdefault(t.subject, set()).add(t.object)

    def typed(kind: Iri) -> list[Iri]:
        return [s for s in members.get(kind, ()) if isinstance(s, Iri)]

    supers = _objects_by_subject(graph, RDFS_SUBCLASSOF)
    labels = _objects_by_subject(graph, RDFS_LABEL)
    classes = {
        c: OntologyClass(iri=c, label=_best_label(labels.get(c, ())),
                         direct_supers=_iris(supers.get(c, ())))
        for c in typed(OWL_CLASS)
    }

    object_props = set(typed(OWL_OBJECT_PROPERTY))
    datatype_props = set(typed(OWL_DATATYPE_PROPERTY))
    characteristic_members = {
        "transitive": set(members.get(OWL_TRANSITIVE_PROPERTY, ())),
        "symmetric": set(members.get(OWL_SYMMETRIC_PROPERTY, ())),
    }
    domains = _objects_by_subject(graph, RDFS_DOMAIN)
    ranges = _objects_by_subject(graph, RDFS_RANGE)
    inverses = _objects_by_subject(graph, OWL_INVERSE_OF)
    properties = {
        p: PropertyDecl(
            iri=p,
            kind=PropertyKind.OBJECT if p in object_props else PropertyKind.DATATYPE,
            domain=_iris(domains.get(p, ())),
            range=_iris(ranges.get(p, ())),
            characteristics=frozenset(
                name for name, having in characteristic_members.items() if p in having
            ),
            inverse_of=min(_iris(inverses.get(p, ())), key=term_sort_key, default=None),
        )
        for p in sorted(object_props | datatype_props, key=term_sort_key)
    }

    individuals: dict[Iri, Individual] = {}
    for c in classes:
        for s in members.get(c, ()):
            if isinstance(s, Iri) and s not in individuals:
                individuals[s] = Individual(iri=s, asserted_types=frozenset(types_of[s]))

    return OntologyView(classes=classes, properties=properties, individuals=individuals)


class ClassTree(FrozenRecord):
    """owl:Thing-rooted hierarchy; a multi-parent class is listed under each parent."""

    __slots__ = __match_args__ = ("root", "children")

    def __init__(self, root: Iri, children: dict[Iri, tuple[Iri, ...]]):
        super().__init__(root, children)

    def nodes(self) -> list[Iri]:
        seen = {self.root}
        for parent, kids in self.children.items():
            seen.add(parent)
            seen.update(kids)
        return sorted(seen, key=term_sort_key)


def class_tree(graph: Graph) -> ClassTree:
    """Build the hierarchy of declared classes under owl:Thing.

    Parent links come from asserted rdfs:subClassOf edges whose endpoints are
    declared classes (or owl:Thing); a class with no such parent attaches to
    owl:Thing.  A subclass cycle makes a tree impossible and raises
    SubclassCycleError listing the members of the first cycle that
    ``reasoner.subclass_cycles`` reports.
    """
    view = extract_ontology(graph)
    nodes = set(view.classes) | {OWL_THING}
    edges = {c: decl.direct_supers & nodes for c, decl in view.classes.items()}
    cycles = subclass_cycles((c, parent) for c, parents in edges.items() for parent in parents)
    if cycles:
        raise SubclassCycleError(cycles[0])

    children: dict[Iri, list[Iri]] = {}
    for c in view.classes:
        if c == OWL_THING:
            continue
        parents = sorted(edges.get(c, ()), key=term_sort_key) or [OWL_THING]
        for parent in parents:
            children.setdefault(parent, []).append(c)
    return ClassTree(
        root=OWL_THING,
        children={p: tuple(sorted(kids, key=term_sort_key)) for p, kids in children.items()},
    )


# -- DOT rendering --------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_line(labels: dict[Term, list[Term]], iri: Iri) -> str:
    label = _best_label(labels.get(iri, ()))
    text = label if label is not None else iri.local_name()
    return f'    "{_dot_escape(iri.value)}" [label="{_dot_escape(text)}"];'


def to_dot(graph: Graph, mode: str = "classes") -> str:
    """Render the ontology as GraphViz DOT.

    classes mode: one node per declared class plus the owl:Thing root, one
    edge per parent link of the class tree (raises SubclassCycleError when no
    tree exists).  properties mode: one node per class or datatype used in a
    domain/range, one edge per property domain-range pair labeled with the
    property's local name.  Output is deterministic.
    """
    lines: list[str]
    labels = _objects_by_subject(graph, RDFS_LABEL)
    if mode == "classes":
        tree = class_tree(graph)
        nodes = tree.nodes()
        lines = ["digraph classes {", "    rankdir=BT;"]
        lines.extend(_node_line(labels, n) for n in nodes)
        for parent in sorted(tree.children, key=term_sort_key):
            for child in tree.children[parent]:
                lines.append(f'    "{_dot_escape(child.value)}" -> "{_dot_escape(parent.value)}";')
        lines.append("}")
    elif mode == "properties":
        view = extract_ontology(graph)
        nodes = sorted(
            {iri for decl in view.properties.values() for iri in decl.domain | decl.range},
            key=term_sort_key,
        )
        lines = ["digraph properties {"]
        lines.extend(_node_line(labels, n) for n in nodes)
        for p in sorted(view.properties, key=term_sort_key):
            decl = view.properties[p]
            name = _dot_escape(p.local_name())
            for d in sorted(decl.domain, key=term_sort_key):
                for r in sorted(decl.range, key=term_sort_key):
                    lines.append(
                        f'    "{_dot_escape(d.value)}" -> "{_dot_escape(r.value)}" [label="{name}"];'
                    )
        lines.append("}")
    else:
        raise ValueError(f"mode must be 'classes' or 'properties', got {mode!r}")
    return "\n".join(lines) + "\n"
