"""Ontology-level view over a triple graph.

Interprets the raw triples as OWL-style declarations: named classes, object
and datatype properties with their domain/range/characteristics, individuals,
and the owl:Thing-rooted class hierarchy.  Anonymous class expressions
(restrictions, intersections) are out of scope; blank-node class
declarations are ignored by this view.

Also renders the hierarchy and the property graph as GraphViz DOT text.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

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


@dataclass(frozen=True, slots=True)
class OntologyClass:
    iri: Iri
    label: str | None
    direct_supers: frozenset[Iri]


@dataclass(frozen=True, slots=True)
class PropertyDecl:
    iri: Iri
    kind: PropertyKind
    domain: frozenset[Iri]
    range: frozenset[Iri]
    characteristics: frozenset[str]  # subset of {"transitive", "symmetric"}
    inverse_of: Iri | None


@dataclass(frozen=True, slots=True)
class Individual:
    iri: Iri
    asserted_types: frozenset[Iri]


class OntologyView(NamedTuple):
    """The three declaration collections, each keyed by IRI."""

    classes: dict[Iri, OntologyClass]
    properties: dict[Iri, PropertyDecl]
    individuals: dict[Iri, Individual]


def _best_label(graph: Graph, subject: Iri) -> str | None:
    labels = [
        t.object
        for t in graph.match(TriplePattern(subject, RDFS_LABEL, None))
        if isinstance(t.object, Literal)
    ]
    if not labels:
        return None
    return min(labels, key=term_sort_key).lexical


def extract_ontology(graph: Graph) -> OntologyView:
    """Collect class, property, and individual declarations from the graph.

    Classes are IRI subjects typed owl:Class; properties are IRI subjects
    typed owl:ObjectProperty or owl:DatatypeProperty; individuals are IRI
    subjects typed by any declared class.  Undeclared references are left
    to the lint checks.
    """
    classes: dict[Iri, OntologyClass] = {}
    for t in graph.match(TriplePattern(None, RDF_TYPE, OWL_CLASS)):
        c = t.subject
        if not isinstance(c, Iri):
            continue
        supers = frozenset(
            st.object
            for st in graph.match(TriplePattern(c, RDFS_SUBCLASSOF, None))
            if isinstance(st.object, Iri)
        )
        classes[c] = OntologyClass(iri=c, label=_best_label(graph, c), direct_supers=supers)

    properties: dict[Iri, PropertyDecl] = {}
    object_props = {
        t.subject
        for t in graph.match(TriplePattern(None, RDF_TYPE, OWL_OBJECT_PROPERTY))
        if isinstance(t.subject, Iri)
    }
    datatype_props = {
        t.subject
        for t in graph.match(TriplePattern(None, RDF_TYPE, OWL_DATATYPE_PROPERTY))
        if isinstance(t.subject, Iri)
    }
    for p in sorted(object_props | datatype_props, key=term_sort_key):
        kind = PropertyKind.OBJECT if p in object_props else PropertyKind.DATATYPE
        domain = frozenset(
            t.object for t in graph.match(TriplePattern(p, RDFS_DOMAIN, None))
            if isinstance(t.object, Iri)
        )
        range_ = frozenset(
            t.object for t in graph.match(TriplePattern(p, RDFS_RANGE, None))
            if isinstance(t.object, Iri)
        )
        characteristics = set()
        if graph.match(TriplePattern(p, RDF_TYPE, OWL_TRANSITIVE_PROPERTY)):
            characteristics.add("transitive")
        if graph.match(TriplePattern(p, RDF_TYPE, OWL_SYMMETRIC_PROPERTY)):
            characteristics.add("symmetric")
        inverses = sorted(
            (t.object for t in graph.match(TriplePattern(p, OWL_INVERSE_OF, None))
             if isinstance(t.object, Iri)),
            key=term_sort_key,
        )
        properties[p] = PropertyDecl(
            iri=p,
            kind=kind,
            domain=domain,
            range=range_,
            characteristics=frozenset(characteristics),
            inverse_of=inverses[0] if inverses else None,
        )

    # one read of every rdf:type triple, in (type, subject) index order, so
    # each class's members come in the order a per-class read gives them
    members: dict[Term, list[Term]] = {}
    types_of: dict[Term, set[Iri]] = {}
    for t in graph.match(TriplePattern(None, RDF_TYPE, None)):
        members.setdefault(t.object, []).append(t.subject)
        if isinstance(t.object, Iri):
            types_of.setdefault(t.subject, set()).add(t.object)
    individuals: dict[Iri, Individual] = {}
    for c in classes:
        for s in members.get(c, ()):
            if isinstance(s, Iri) and s not in individuals:
                individuals[s] = Individual(iri=s, asserted_types=frozenset(types_of[s]))

    return OntologyView(classes=classes, properties=properties, individuals=individuals)


@dataclass(frozen=True)
class ClassTree:
    """owl:Thing-rooted hierarchy; a multi-parent class is listed under each parent."""

    root: Iri
    children: dict[Iri, tuple[Iri, ...]]

    def children_of(self, iri: Iri) -> tuple[Iri, ...]:
        return self.children.get(iri, ())

    def nodes(self) -> list[Iri]:
        seen = {self.root}
        for parent, kids in self.children.items():
            seen.add(parent)
            seen.update(kids)
        return sorted(seen, key=term_sort_key)

    def __contains__(self, iri: Iri) -> bool:
        if iri == self.root or iri in self.children:
            return True
        return any(iri in kids for kids in self.children.values())

    def preorder(self) -> Iterator[tuple[Iri, int]]:
        """Depth-first (node, depth) walk; multi-parent nodes appear once per edge."""
        def walk(node: Iri, depth: int) -> Iterator[tuple[Iri, int]]:
            yield node, depth
            for child in self.children.get(node, ()):
                yield from walk(child, depth + 1)

        return walk(self.root, 0)


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


def instances_of(graph: Graph, c: Iri, mode: str = "direct") -> set[Iri]:
    """IRI subjects typed ``c``.

    mode="direct" reads the graph as-is; mode="inferred" first materializes a
    working copy so membership respects the subclass closure (a no-op when
    the graph is already materialized).
    """
    if mode == "inferred":
        from .reasoner import materialize

        working = graph.copy()
        materialize(working)
        graph = working
    elif mode != "direct":
        raise ValueError(f"mode must be 'direct' or 'inferred', got {mode!r}")
    return {
        t.subject
        for t in graph.match(TriplePattern(None, RDF_TYPE, c))
        if isinstance(t.subject, Iri)
    }


# -- DOT rendering --------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(graph: Graph, iri: Iri) -> str:
    label = _best_label(graph, iri)
    return label if label is not None else iri.local_name()


def to_dot(graph: Graph, mode: str = "classes") -> str:
    """Render the ontology as GraphViz DOT.

    classes mode: one node per declared class plus the owl:Thing root, one
    edge per parent link of the class tree (raises SubclassCycleError when no
    tree exists).  properties mode: one node per class or datatype used in a
    domain/range, one edge per property domain-range pair labeled with the
    property's local name.  Output is deterministic.
    """
    lines: list[str]
    if mode == "classes":
        tree = class_tree(graph)
        nodes = tree.nodes()
        lines = ["digraph classes {", "    rankdir=BT;"]
        for n in nodes:
            lines.append(f'    "{_dot_escape(n.value)}" [label="{_dot_escape(_node_label(graph, n))}"];')
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
        for n in nodes:
            lines.append(f'    "{_dot_escape(n.value)}" [label="{_dot_escape(_node_label(graph, n))}"];')
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
