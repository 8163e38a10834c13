"""Forward-chaining materialization and consistency checking.

The rule set is the RDFS entailment core plus the OWL property
characteristics the bundled ontology uses: subclass transitivity, type
inheritance, domain/range inference, subproperty inheritance, transitive /
inverse / symmetric properties, and owl:Thing membership for every declared
class.  Materialization runs the rules to a least fixpoint with plain naive
re-evaluation; every inferred triple records the rule that first derived it.

Reflexive subclass edges (A subClassOf A) are never materialized.

A sweep reads each predicate's (subject, object) pairs from the store at most
once and groups them by subject at most once; the rules share those lists,
so rule 2 (type inheritance) looks a class's superclasses up in the grouping
rule 1 (subclass transitivity) built.  Besides those reads, only the indexed
(?, rdf:type, C) lookups of rules 4, 6, 8 and 9 query the store.

Consistency checking reports two defect kinds: an individual typed by both
halves of an owl:disjointWith pair, and cycles in the asserted subclass
digraph.  ``subclass_cycles`` is the one cycle finder; ``ontology.class_tree``
uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Hashable, Iterable, Mapping, TypeVar

from .graph import Graph
from .terms import (
    OWL_CLASS,
    OWL_DISJOINT_WITH,
    OWL_INVERSE_OF,
    OWL_SYMMETRIC_PROPERTY,
    OWL_THING,
    OWL_TRANSITIVE_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Iri,
    Literal,
    Term,
    Triple,
    TriplePattern,
    term_sort_key,
)

N = TypeVar("N", bound=Hashable)


class RuleId(Enum):
    SUBCLASS_TRANS = "SUBCLASS_TRANS"
    TYPE_INHERIT = "TYPE_INHERIT"
    DOMAIN_INFER = "DOMAIN_INFER"
    RANGE_INFER = "RANGE_INFER"
    SUBPROP_INHERIT = "SUBPROP_INHERIT"
    TRANSITIVE_PROP = "TRANSITIVE_PROP"
    INVERSE_PROP = "INVERSE_PROP"
    SYMMETRIC_PROP = "SYMMETRIC_PROP"
    THING_MEMBERSHIP = "THING_MEMBERSHIP"


@dataclass(slots=True)
class InferenceResult:
    added: set[Triple]
    iterations: int
    rule_counts: dict[RuleId, int]
    provenance: dict[Triple, RuleId] = field(default_factory=dict)


class InconsistencyKind(Enum):
    DISJOINTNESS_VIOLATION = "disjointness-violation"
    SUBCLASS_CYCLE = "subclass-cycle"


@dataclass(frozen=True, slots=True)
class Inconsistency:
    kind: InconsistencyKind
    members: tuple[Iri, ...]
    witness: Triple | None = None


def _candidates(graph: Graph) -> list[tuple[Triple, RuleId]]:
    """One full sweep: every triple each rule can derive from the current graph.

    Each predicate's (subject, object) pairs are read from the store at most
    once per sweep, and grouped by subject at most once.
    """
    out: list[tuple[Triple, RuleId]] = []
    read: dict[Iri, list[tuple[Term, Term]]] = {}
    grouped: dict[Iri, dict[Term, list[Term]]] = {}

    def pairs(p: Iri) -> list[tuple[Term, Term]]:
        if p not in read:
            read[p] = [(t.subject, t.object) for t in graph.match(TriplePattern(None, p, None))]
        return read[p]

    def successors(p: Iri) -> dict[Term, list[Term]]:
        if p not in grouped:
            by_subject: dict[Term, list[Term]] = {}
            for s, o in pairs(p):
                by_subject.setdefault(s, []).append(o)
            grouped[p] = by_subject
        return grouped[p]

    # 1. A subClassOf B, B subClassOf C => A subClassOf C (never reflexive)
    # Literals are never subjects, so a literal B or A (rule 2) has no supers.
    supers = successors(RDFS_SUBCLASSOF)
    for a, b in pairs(RDFS_SUBCLASSOF):
        for c in supers.get(b, ()):
            if c != a:
                out.append((Triple(a, RDFS_SUBCLASSOF, c), RuleId.SUBCLASS_TRANS))

    # 2. x type A, A subClassOf B => x type B
    for x, a in pairs(RDF_TYPE):
        for b in supers.get(a, ()):
            out.append((Triple(x, RDF_TYPE, b), RuleId.TYPE_INHERIT))

    # 3. p domain C, x p y => x type C
    for p, c in pairs(RDFS_DOMAIN):
        if isinstance(p, Iri):
            for x, _ in pairs(p):
                out.append((Triple(x, RDF_TYPE, c), RuleId.DOMAIN_INFER))

    # 4. p range C, x p y => y type C, only when C is a declared class
    classes = [t.subject for t in graph.match(TriplePattern(None, RDF_TYPE, OWL_CLASS))]
    declared = set(classes)
    for p, c in pairs(RDFS_RANGE):
        if isinstance(p, Iri) and c in declared:
            for _, y in pairs(p):
                if not isinstance(y, Literal):
                    out.append((Triple(y, RDF_TYPE, c), RuleId.RANGE_INFER))

    # 5. p subPropertyOf q, x p y => x q y
    for p, q in pairs(RDFS_SUBPROPERTYOF):
        if isinstance(p, Iri) and isinstance(q, Iri):
            for x, y in pairs(p):
                out.append((Triple(x, q, y), RuleId.SUBPROP_INHERIT))

    # 6. p transitive, x p y, y p z => x p z
    for tt in graph.match(TriplePattern(None, RDF_TYPE, OWL_TRANSITIVE_PROPERTY)):
        p = tt.subject
        if isinstance(p, Iri):
            next_hop = successors(p)
            for x, y in pairs(p):
                for z in next_hop.get(y, ()):
                    out.append((Triple(x, p, z), RuleId.TRANSITIVE_PROP))

    # 7. p inverseOf q, x p y => y q x
    for p, q in pairs(OWL_INVERSE_OF):
        if isinstance(p, Iri) and isinstance(q, Iri):
            for x, y in pairs(p):
                if not isinstance(y, Literal):
                    out.append((Triple(y, q, x), RuleId.INVERSE_PROP))

    # 8. p symmetric, x p y => y p x
    for st in graph.match(TriplePattern(None, RDF_TYPE, OWL_SYMMETRIC_PROPERTY)):
        p = st.subject
        if isinstance(p, Iri):
            for x, y in pairs(p):
                if not isinstance(y, Literal):
                    out.append((Triple(y, p, x), RuleId.SYMMETRIC_PROP))

    # 9. C declared class => C subClassOf owl:Thing
    for c in classes:
        if c != OWL_THING:
            out.append((Triple(c, RDFS_SUBCLASSOF, OWL_THING), RuleId.THING_MEMBERSHIP))

    return out


def materialize(graph: Graph) -> InferenceResult:
    """Extend the graph to the fixpoint of the rule set, in place.

    Returns what was added, how many sweeps it took, and per-rule counts
    (each triple is credited to the rule that first derived it).  The sweep
    count is capped at max(1, distinct-input-terms squared); exceeding the
    cap is a defect and raises RuntimeError.
    """
    input_terms = set()
    for t in graph:
        input_terms.update((t.subject, t.predicate, t.object))
    cap = max(1, len(input_terms) ** 2)

    added: set[Triple] = set()
    provenance: dict[Triple, RuleId] = {}
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise RuntimeError(
                f"materialization exceeded the iteration cap ({cap}); rule set is not converging"
            )
        new_this_pass = 0
        for triple, rule in _candidates(graph):
            if graph.insert(triple):
                added.add(triple)
                provenance[triple] = rule
                new_this_pass += 1
        if new_this_pass == 0:
            break

    rule_counts: dict[RuleId, int] = {}
    for rule in provenance.values():
        rule_counts[rule] = rule_counts.get(rule, 0) + 1
    return InferenceResult(
        added=added, iterations=iterations, rule_counts=rule_counts, provenance=provenance
    )


def strongly_connected_components(edges: Mapping[N, Iterable[N]]) -> list[set[N]]:
    """Tarjan's algorithm, iterative so deep chains cannot hit the recursion limit.

    ``edges`` maps a node to its successors; nodes appearing only as
    successors are included.  Returns every component, singletons included.
    """
    succ: dict[N, list[N]] = {}
    for n, outs in edges.items():
        succ.setdefault(n, [])
        for m in outs:
            succ[n].append(m)
            succ.setdefault(m, [])

    index: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    counter = 0
    components: list[set[N]] = []

    for start in succ:
        if start in index:
            continue
        # work entries: (node, iterator position into its successor list)
        work = [(start, 0)]
        while work:
            node, i = work[-1]
            if i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            outs = succ[node]
            while i < len(outs):
                m = outs[i]
                i += 1
                if m not in index:
                    work[-1] = (node, i)
                    work.append((m, 0))
                    advanced = True
                    break
                if m in on_stack:
                    lowlink[node] = min(lowlink[node], index[m])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    component.add(m)
                    if m == node:
                        break
                components.append(component)
    return components


def subclass_cycles(edges: Iterable[tuple[Iri, Iri]]) -> list[tuple[Iri, ...]]:
    """Cycles of the subclass digraph given as (sub, super) edges.

    A cycle is a strongly connected component of two or more classes, or a
    self-loop on a class outside every such component.  Members of each
    cycle are sorted, and the cycles are sorted by their members.
    """
    succ: dict[Iri, set[Iri]] = {}
    self_loops: set[Iri] = set()
    for s, o in edges:
        if s == o:
            self_loops.add(s)
        else:
            succ.setdefault(s, set()).add(o)
    cycles = [
        tuple(sorted(scc, key=term_sort_key))
        for scc in strongly_connected_components(succ)
        if len(scc) > 1
    ]
    in_cycles = {m for cycle in cycles for m in cycle}
    cycles.extend((node,) for node in self_loops - in_cycles)
    cycles.sort(key=lambda cycle: tuple(term_sort_key(m) for m in cycle))
    return cycles


def check_consistency(graph: Graph, inference: InferenceResult | None = None) -> list[Inconsistency]:
    """Report disjointness violations and subclass cycles.

    With ``inference`` given, the graph is taken as already materialized.
    Without it, the graph is treated as asserted input and a working copy is
    materialized internally.  Either way the asserted subclass edges are the
    materialized graph's minus the inferred ones.
    """
    if inference is None:
        work = graph.copy()
        inference = materialize(work)
    else:
        work = graph

    findings: list[Inconsistency] = []

    # Disjointness: one finding per (individual, unordered class pair).
    pairs = set()
    for t in work.match(TriplePattern(None, OWL_DISJOINT_WITH, None)):
        a, b = t.subject, t.object
        if isinstance(a, Iri) and isinstance(b, Iri) and a != b:
            pairs.add(tuple(sorted((a, b), key=term_sort_key)))
    for a, b in sorted(pairs, key=lambda p: (term_sort_key(p[0]), term_sort_key(p[1]))):
        in_a = {t.subject for t in work.match(TriplePattern(None, RDF_TYPE, a))}
        in_b = {t.subject for t in work.match(TriplePattern(None, RDF_TYPE, b))}
        for x in sorted(in_a & in_b, key=term_sort_key):
            findings.append(
                Inconsistency(
                    kind=InconsistencyKind.DISJOINTNESS_VIOLATION,
                    members=(a, b),
                    witness=Triple(x, RDF_TYPE, a),
                )
            )

    # Cycles in the asserted subclass digraph (IRI endpoints only).
    asserted = (
        (t.subject, t.object)
        for t in work.match(TriplePattern(None, RDFS_SUBCLASSOF, None))
        if t not in inference.added and isinstance(t.subject, Iri) and isinstance(t.object, Iri)
    )
    findings.extend(
        Inconsistency(kind=InconsistencyKind.SUBCLASS_CYCLE, members=cycle)
        for cycle in subclass_cycles(asserted)
    )
    return findings
