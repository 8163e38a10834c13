"""Forward-chaining materialization and consistency checking.

The rule set is the RDFS entailment core plus the OWL property
characteristics the bundled ontology uses: subclass transitivity, type
inheritance, domain/range inference, subproperty inheritance, transitive /
inverse / symmetric properties, and owl:Thing membership for every declared
class.  Materialization runs the rules to a least fixpoint with plain naive
re-evaluation; every inferred triple records the rule that first derived it.

Reflexive subclass edges (A subClassOf A) are never materialized.

Consistency checking reports two defect kinds: an individual typed by both
halves of an owl:disjointWith pair, and cycles in the asserted subclass
digraph.
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
    """One full sweep: every triple each rule can derive from the current graph."""
    out: list[tuple[Triple, RuleId]] = []

    # 1. A subClassOf B, B subClassOf C => A subClassOf C (never reflexive)
    sub_edges = graph.match(TriplePattern(None, RDFS_SUBCLASSOF, None))
    by_subject: dict[Term, list[Term]] = {}
    for t in sub_edges:
        by_subject.setdefault(t.subject, []).append(t.object)
    for t in sub_edges:
        b = t.object
        if isinstance(b, Literal):
            continue
        for c in by_subject.get(b, ()):
            if c != t.subject:
                out.append((Triple(t.subject, RDFS_SUBCLASSOF, c), RuleId.SUBCLASS_TRANS))

    # 2. x type A, A subClassOf B => x type B
    for t in graph.match(TriplePattern(None, RDF_TYPE, None)):
        a = t.object
        if isinstance(a, Literal):
            continue
        for st in graph.match(TriplePattern(a, RDFS_SUBCLASSOF, None)):
            out.append((Triple(t.subject, RDF_TYPE, st.object), RuleId.TYPE_INHERIT))

    # 3. p domain C, x p y => x type C
    for dt in graph.match(TriplePattern(None, RDFS_DOMAIN, None)):
        p = dt.subject
        if not isinstance(p, Iri):
            continue
        for t in graph.match(TriplePattern(None, p, None)):
            out.append((Triple(t.subject, RDF_TYPE, dt.object), RuleId.DOMAIN_INFER))

    # 4. p range C, x p y => y type C, only when C is a declared class
    declared = {
        t.subject for t in graph.match(TriplePattern(None, RDF_TYPE, OWL_CLASS))
    }
    for rt in graph.match(TriplePattern(None, RDFS_RANGE, None)):
        p, c = rt.subject, rt.object
        if not isinstance(p, Iri) or c not in declared:
            continue
        for t in graph.match(TriplePattern(None, p, None)):
            if not isinstance(t.object, Literal):
                out.append((Triple(t.object, RDF_TYPE, c), RuleId.RANGE_INFER))

    # 5. p subPropertyOf q, x p y => x q y
    for spt in graph.match(TriplePattern(None, RDFS_SUBPROPERTYOF, None)):
        p, q = spt.subject, spt.object
        if not isinstance(p, Iri) or not isinstance(q, Iri):
            continue
        for t in graph.match(TriplePattern(None, p, None)):
            out.append((Triple(t.subject, q, t.object), RuleId.SUBPROP_INHERIT))

    # 6. p transitive, x p y, y p z => x p z
    for tt in graph.match(TriplePattern(None, RDF_TYPE, OWL_TRANSITIVE_PROPERTY)):
        p = tt.subject
        if not isinstance(p, Iri):
            continue
        uses = graph.match(TriplePattern(None, p, None))
        next_hop: dict[Term, list[Term]] = {}
        for t in uses:
            next_hop.setdefault(t.subject, []).append(t.object)
        for t in uses:
            if isinstance(t.object, Literal):
                continue
            for z in next_hop.get(t.object, ()):
                out.append((Triple(t.subject, p, z), RuleId.TRANSITIVE_PROP))

    # 7. p inverseOf q, x p y => y q x
    for it in graph.match(TriplePattern(None, OWL_INVERSE_OF, None)):
        p, q = it.subject, it.object
        if not isinstance(p, Iri) or not isinstance(q, Iri):
            continue
        for t in graph.match(TriplePattern(None, p, None)):
            if not isinstance(t.object, Literal):
                out.append((Triple(t.object, q, t.subject), RuleId.INVERSE_PROP))

    # 8. p symmetric, x p y => y p x
    for st in graph.match(TriplePattern(None, RDF_TYPE, OWL_SYMMETRIC_PROPERTY)):
        p = st.subject
        if not isinstance(p, Iri):
            continue
        for t in graph.match(TriplePattern(None, p, None)):
            if not isinstance(t.object, Literal):
                out.append((Triple(t.object, p, t.subject), RuleId.SYMMETRIC_PROP))

    # 9. C declared class => C subClassOf owl:Thing
    for t in graph.match(TriplePattern(None, RDF_TYPE, OWL_CLASS)):
        if t.subject != OWL_THING:
            out.append((Triple(t.subject, RDFS_SUBCLASSOF, OWL_THING), RuleId.THING_MEMBERSHIP))

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


def check_consistency(graph: Graph, inference: InferenceResult | None = None) -> list[Inconsistency]:
    """Report disjointness violations and subclass cycles.

    With ``inference`` given, the graph is taken as already materialized and
    asserted subclass edges are recovered by subtracting the inferred ones.
    Without it, the graph is treated as asserted input and a working copy is
    materialized internally.
    """
    if inference is None:
        asserted = graph
        work = graph.copy()
        materialize(work)
    else:
        asserted = None  # recovered below from graph minus inference.added
        work = graph

    if asserted is not None:
        asserted_sub = [
            t for t in asserted.match(TriplePattern(None, RDFS_SUBCLASSOF, None))
        ]
    else:
        asserted_sub = [
            t
            for t in work.match(TriplePattern(None, RDFS_SUBCLASSOF, None))
            if t not in inference.added
        ]

    findings: list[Inconsistency] = []

    # Disjointness: one finding per (individual, unordered class pair).
    pairs = set()
    for t in work.match(TriplePattern(None, OWL_DISJOINT_WITH, None)):
        a, b = t.subject, t.object
        if isinstance(a, Iri) and isinstance(b, Iri) and a != b:
            pairs.add(tuple(sorted((a, b), key=term_sort_key)))
    disjoint_hits = []
    for a, b in sorted(pairs, key=lambda p: (term_sort_key(p[0]), term_sort_key(p[1]))):
        in_a = {t.subject for t in work.match(TriplePattern(None, RDF_TYPE, a))}
        in_b = {t.subject for t in work.match(TriplePattern(None, RDF_TYPE, b))}
        for x in sorted(in_a & in_b, key=term_sort_key):
            disjoint_hits.append(
                Inconsistency(
                    kind=InconsistencyKind.DISJOINTNESS_VIOLATION,
                    members=(a, b),
                    witness=Triple(x, RDF_TYPE, a),
                )
            )
    findings.extend(disjoint_hits)

    # Cycles in the asserted subclass digraph (IRI endpoints only).
    edges: dict[Iri, set[Iri]] = {}
    self_loops = set()
    for t in asserted_sub:
        s, o = t.subject, t.object
        if not isinstance(s, Iri) or not isinstance(o, Iri):
            continue
        if s == o:
            self_loops.add(s)
        else:
            edges.setdefault(s, set()).add(o)
    cycle_findings = []
    in_multi = set()
    for scc in strongly_connected_components(edges):
        if len(scc) > 1:
            in_multi.update(scc)
            cycle_findings.append(
                Inconsistency(
                    kind=InconsistencyKind.SUBCLASS_CYCLE,
                    members=tuple(sorted(scc, key=term_sort_key)),
                )
            )
    for node in sorted(self_loops - in_multi, key=term_sort_key):
        cycle_findings.append(
            Inconsistency(kind=InconsistencyKind.SUBCLASS_CYCLE, members=(node,))
        )
    cycle_findings.sort(key=lambda f: tuple(term_sort_key(m) for m in f.members))
    findings.extend(cycle_findings)
    return findings
