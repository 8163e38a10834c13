"""Forward-chaining materialization and consistency checking.

The rule set is the RDFS entailment core plus the OWL property
characteristics the bundled ontology uses: subclass transitivity, type
inheritance, domain/range typing, subproperty inheritance, transitive /
inverse / symmetric properties, and owl:Thing membership for every declared
class.  Every inferred triple records the rule that first derived it.

Reflexive subclass edges (A subClassOf A) are never materialized.  The range
rule is narrower than rdfs3 (RDF 1.1 Semantics §9.2): it needs the range
declared an owl:Class, and it never types a literal object.  Of the OWL 2 RL
rules for this vocabulary (OWL 2 Profiles §4.3), these are not implemented:
prp-inv2 (owl:inverseOf fires only in its asserted direction), scm-spo
(rdfs:subPropertyOf is not closed), and cax-eqc1/2 and prp-eqp1/2
(owl:equivalentClass and owl:equivalentProperty are ignored).

Materialization is round-based semi-naive evaluation over term ids
(Bancilhon & Ramakrishnan 1986).  The store is read once, into per-predicate
tables of (subject id, object id) pairs grouped by subject and by object.
Each sweep joins only the previous sweep's new triples against those tables,
then appends its own new triples to them.  Inside ``_derive``, ``chain``
writes that split once for the two-premise chains (rules 1, 2, 6),
``axiom_pairs`` for the axiom rules (3, 5, 7: ``p X c`` with p's pairs) and
``typed_pairs`` for the typed-property rules (6, 8).  A sweep
derives exactly the new triples a naive sweep over the whole store would,
rule by rule, so sweep counts and first-rule credit match naive re-evaluation.

Rules derive id-triples.  Each distinct id-triple a sweep derives goes
through :meth:`Graph.insert` once, credited to the first rule in RuleId
order that derived it; one already in the store goes there too, and
:meth:`Graph.insert` checks it and drops the duplicate, so the reasoner never
tests a derivation against the store itself.  A rule constant the store has
not interned yet (rdf:type, rdfs:subClassOf, owl:Thing can be derived
before they are stored) has a stand-in id until its first insert.

Consistency checking reports two defect kinds: an individual typed by both
halves of an owl:disjointWith pair, and cycles in the asserted subclass
digraph.  ``subclass_cycles`` is the one cycle finder; ``ontology.class_tree``
uses it too.
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable, Iterable, Iterator, Mapping, TypeVar

from ._record import FrozenRecord, Record
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


class InferenceResult(Record):
    __slots__ = __match_args__ = ("added", "iterations", "rule_counts", "provenance")

    def __init__(self, added: set[Triple], iterations: int, rule_counts: dict[RuleId, int],
                 provenance: dict[Triple, RuleId] | None = None):
        super().__init__(added, iterations, rule_counts, {} if provenance is None else provenance)


class InconsistencyKind(Enum):
    DISJOINTNESS_VIOLATION = "disjointness-violation"
    SUBCLASS_CYCLE = "subclass-cycle"


class Inconsistency(FrozenRecord):
    __slots__ = __match_args__ = ("kind", "members", "witness")

    def __init__(self, kind: InconsistencyKind, members: tuple[Iri, ...], witness: Triple | None = None):
        super().__init__(kind, members, witness)


class _Table:
    """One predicate's (subject id, object id) pairs, grouped by subject and by object."""

    __slots__ = ("succ", "pred")

    def __init__(self) -> None:
        self.succ: dict[int, list[int]] = {}
        self.pred: dict[int, list[int]] = {}

    def add(self, s: int, o: int) -> None:
        self.succ.setdefault(s, []).append(o)
        self.pred.setdefault(o, []).append(s)


_EMPTY = _Table()


def _add(tables: dict[int, _Table], triples: Iterable[tuple[int, int, int]]) -> dict[int, _Table]:
    """Add id-triples to per-predicate tables; returns ``tables``."""
    for s, p, o in triples:
        table = tables.get(p)
        if table is None:
            table = tables[p] = _Table()
        table.add(s, o)
    return tables


# the constants the rules read or derive, in the order _derive takes their ids
_CONSTANTS = (RDFS_SUBCLASSOF, RDF_TYPE, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBPROPERTYOF, OWL_INVERSE_OF,
              OWL_CLASS, OWL_TRANSITIVE_PROPERTY, OWL_SYMMETRIC_PROPERTY, OWL_THING)


def _constant_ids(graph: Graph, terms: list[Term]) -> list[int]:
    """The ids of ``_CONSTANTS``; a constant the graph has not interned gets
    a stand-in id past its terms, with the term appended to ``terms``."""
    ids = []
    for constant in _CONSTANTS:
        tid = graph.term_id(constant)
        if tid is None:
            tid = len(terms)
            terms.append(constant)
        ids.append(tid)
    return ids


def _derive(
    terms: list[Term],
    constants: list[int],
    tables: dict[int, _Table],
    delta: dict[int, _Table],
    new: set[tuple[int, int, int]],
) -> dict[tuple[int, int, int], RuleId]:
    """One sweep: each id-triple a rule derives with a premise among ``new``,
    with the first rule that derived it.

    ``tables`` hold every triple derived so far and ``delta`` the ones in
    ``new``, the previous sweep's additions (on the first sweep, the whole
    store).  For each premise in turn, a rule joins that premise's delta with
    full tables for the premises after it and old triples (not in ``new``)
    for the premises before it, so each instance of a rule's premises is
    joined once per sweep.  Rules run in RuleId order, which decides
    first-rule credit.  ``terms`` maps ids to terms and ``constants`` gives
    the ids of ``_CONSTANTS``.
    """
    out: dict[tuple[int, int, int], RuleId] = {}
    derive = out.setdefault
    SC, TY, DOM, RNG, SP, INV, CLASS, TRANS, SYM, THING = constants

    def table(p: int) -> _Table:
        return tables.get(p, _EMPTY)

    def dtable(p: int) -> _Table:
        return delta.get(p, _EMPTY)

    def not_literal(ys: Iterable[int]) -> list[int]:
        return [y for y in ys if not isinstance(terms[y], Literal)]

    def iri(q: int) -> bool:
        return isinstance(terms[q], Iri)

    sc, dsc, ty, dty = table(SC), dtable(SC), table(TY), dtable(TY)

    def axiom_pairs(X: int) -> Iterator[tuple[int, _Table]]:
        """(c, pairs) for each axiom p X c joined with p's pairs: a new axiom
        with all of them, then an old axiom with p's new ones."""
        for p, cs in dtable(X).succ.items():
            pairs = table(p)
            for c in cs:
                yield c, pairs
        axioms = table(X).succ
        for p, d in delta.items():
            for c in axioms.get(p, ()):
                if (p, X, c) not in new:
                    yield c, d

    def typed_pairs(K: int) -> Iterator[tuple[int, _Table]]:
        """(p, pairs) for each p typed K: a newly typed p with all its pairs,
        then an old one with its new pairs."""
        for p in dty.pred.get(K, ()):
            yield p, table(p)
        for p in ty.pred.get(K, ()):
            d = delta.get(p)
            if d is not None and (p, TY, K) not in new:
                yield p, d

    def chain(left: _Table, dleft: _Table, R: int, right: _Table, dright: _Table) -> Iterator[tuple[int, int]]:
        """(x, z) for each x R y joined with y's pairs in ``right``: a new left
        pair with all of them, then an old left pair with y's new ones."""
        for x, ys in dleft.succ.items():
            for y in ys:
                for z in right.succ.get(y, ()):
                    yield x, z
        for y, zs in dright.succ.items():
            olds = [x for x in left.pred.get(y, ()) if (x, R, y) not in new]
            for z in zs:
                for x in olds:
                    yield x, z

    # 1. A subClassOf B, B subClassOf C => A subClassOf C (never reflexive)
    rule = RuleId.SUBCLASS_TRANS
    for a, c in chain(sc, dsc, SC, sc, dsc):
        if c != a:
            derive((a, SC, c), rule)

    # 2. x type A, A subClassOf B => x type B
    # Literals are never subjects, so a literal A has no supers.
    rule = RuleId.TYPE_INHERIT
    for x, b in chain(ty, dty, TY, sc, dsc):
        derive((x, TY, b), rule)

    # 3. p domain C, x p y => x type C
    # Only IRIs are predicates, so a non-IRI p has no pairs.
    rule = RuleId.DOMAIN_INFER
    for c, pairs in axiom_pairs(DOM):
        for x in pairs.succ:
            derive((x, TY, c), rule)

    # 4. p range C, C type owl:Class, x p y => y type C, unless y is a literal
    rule = RuleId.RANGE_INFER
    rng = table(RNG)
    declared = set(ty.pred.get(CLASS, ()))
    newly_declared = dty.pred.get(CLASS, ())
    for p, cs in dtable(RNG).succ.items():
        ys = not_literal(table(p).pred)
        for c in cs:
            if c in declared:
                for y in ys:
                    derive((y, TY, c), rule)
    for c in newly_declared:
        for p in rng.pred.get(c, ()):
            if (p, RNG, c) not in new:
                for y in not_literal(table(p).pred):
                    derive((y, TY, c), rule)
    for p, d in delta.items():
        for c in rng.succ.get(p, ()):
            if (p, RNG, c) not in new and c in declared and (c, TY, CLASS) not in new:
                for y in not_literal(d.pred):
                    derive((y, TY, c), rule)

    # 5. p subPropertyOf q, x p y => x q y
    rule = RuleId.SUBPROP_INHERIT
    for q, pairs in axiom_pairs(SP):
        if iri(q):
            for x, ys in pairs.succ.items():
                for y in ys:
                    derive((x, q, y), rule)

    # 6. p transitive, x p y, y p z => x p z
    rule = RuleId.TRANSITIVE_PROP
    for p, pairs in typed_pairs(TRANS):
        t = table(p)
        # a newly typed p joins all its pairs in the first half; the second adds nothing
        for x, z in chain(t, pairs, p, t, _EMPTY if pairs is t else pairs):
            derive((x, p, z), rule)

    # 7. p inverseOf q, x p y => y q x, unless y is a literal
    rule = RuleId.INVERSE_PROP
    for q, pairs in axiom_pairs(INV):
        if iri(q):
            for x, ys in pairs.succ.items():
                for y in not_literal(ys):
                    derive((y, q, x), rule)

    # 8. p symmetric, x p y => y p x, unless y is a literal
    rule = RuleId.SYMMETRIC_PROP
    for p, pairs in typed_pairs(SYM):
        for x, ys in pairs.succ.items():
            for y in not_literal(ys):
                derive((y, p, x), rule)

    # 9. C type owl:Class => C subClassOf owl:Thing
    rule = RuleId.THING_MEMBERSHIP
    for c in newly_declared:
        if c != THING:
            derive((c, SC, THING), rule)

    return out


def materialize(graph: Graph) -> InferenceResult:
    """Extend the graph to the fixpoint of the rule set, in place.

    Returns what was added, how many sweeps it took, and per-rule counts
    (each triple is credited to the rule that first derived it).  The sweep
    count is capped at max(1, distinct-input-terms squared); exceeding the
    cap is a defect and raises RuntimeError.
    """
    stored = graph.match_ids(None, None, None)
    cap = max(1, len({tid for ids in stored for tid in ids}) ** 2)

    terms = [graph.term(i) for i in range(graph.term_count())]
    tables = delta = _add({}, stored)
    new = set(stored)
    provenance: dict[Triple, RuleId] = {}
    insert = graph.insert
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise RuntimeError(
                f"materialization exceeded the iteration cap ({cap}); rule set is not converging"
            )
        interned = len(terms)
        constants = _constant_ids(graph, terms)
        fresh = []
        for ids, rule in _derive(terms, constants, tables, delta, new).items():
            s, p, o = ids
            triple = Triple(terms[s], terms[p], terms[o])
            if insert(triple):
                provenance[triple] = rule
                fresh.append(ids)
        if not fresh:
            break
        if len(terms) > interned:  # stand-ins: use the ids their inserts gave
            real = {i: graph.term_id(terms[i]) for i in range(interned, len(terms))}
            fresh = [(real.get(s, s), real.get(p, p), real.get(o, o)) for s, p, o in fresh]
            del terms[interned:]
        terms.extend(graph.term(i) for i in range(len(terms), graph.term_count()))
        new = set(fresh)
        delta = _add({}, new)
        _add(tables, new)

    rule_counts: dict[RuleId, int] = {}
    for rule in provenance.values():
        rule_counts[rule] = rule_counts.get(rule, 0) + 1
    return InferenceResult(
        added=set(provenance), iterations=iterations, rule_counts=rule_counts, provenance=provenance
    )


def strongly_connected_components(edges: Mapping[N, Iterable[N]]) -> list[set[N]]:
    """Tarjan's algorithm, iterative so deep chains cannot hit the recursion limit.

    ``edges`` maps a node to its successors; nodes appearing only as
    successors are included.  Returns every component, singletons included.
    """
    index: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    components: list[set[N]] = []
    work: list[tuple[N, Iterator[N]]] = []  # per DFS frame: a node, its successors not yet looked at

    def enter(node: N) -> None:
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(edges.get(node, ()))))

    for start in edges:
        if start in index:
            continue
        enter(start)
        while work:
            node, successors = work[-1]
            for m in successors:
                if m not in index:
                    enter(m)
                    break
                if m in on_stack:
                    lowlink[node] = min(lowlink[node], index[m])
            else:
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


def _asserted_subclass_edges(graph: Graph) -> set[tuple[Iri, Iri]]:
    """The (sub, super) pairs of the graph's own rdfs:subClassOf triples with IRI ends."""
    return {(t.subject, t.object) for t in graph.match(TriplePattern(None, RDFS_SUBCLASSOF, None))
            if isinstance(t.subject, Iri) and isinstance(t.object, Iri)}


def check_consistency(graph: Graph) -> list[Inconsistency]:
    """Disjointness violations in a materialized copy of the asserted graph,
    then the cycles of its own subclass edges; the graph is left as it is."""
    work = graph.copy()
    materialize(work)
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

    # Cycles among the graph's own subclass edges.
    findings.extend(
        Inconsistency(kind=InconsistencyKind.SUBCLASS_CYCLE, members=cycle)
        for cycle in subclass_cycles(_asserted_subclass_edges(graph))
    )
    return findings
