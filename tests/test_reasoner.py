"""Forward chaining: per-rule behavior, fixpoint properties, consistency findings."""

import hashlib
import random

import oracles
import pytest
from plantkb.fixtures import fixture_graph, manifest
from plantkb.graph import Graph
from plantkb.reasoner import (
    Inconsistency,
    InconsistencyKind,
    InferenceResult,
    RuleId,
    check_consistency,
    materialize,
)
from plantkb.terms import (
    OWL,
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
    Triple,
    XSD_INTEGER,
    term_sort_key,
)
from plantkb.turtle import serialize_turtle

EX = "http://example.test/r#"


def iri(s):
    return Iri(EX + s)


def build(*triples):
    g = Graph()
    for t in triples:
        g.insert(t)
    return g


def added_by(g):
    before = set(g)
    materialize(g)
    return set(g) - before


def test_subclass_transitivity_without_reflexive_edges():
    a, b, c = iri("A"), iri("B"), iri("C")
    extra = added_by(build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, c),
        Triple(c, RDFS_SUBCLASSOF, a),  # 3-cycle: closure, but never A<=A
    ))
    assert Triple(a, RDFS_SUBCLASSOF, c) in extra
    assert Triple(b, RDFS_SUBCLASSOF, a) in extra
    assert all(t.subject != t.object for t in extra)


def test_type_inheritance():
    x, a, b = iri("x"), iri("A"), iri("B")
    extra = added_by(build(
        Triple(x, RDF_TYPE, a),
        Triple(a, RDFS_SUBCLASSOF, b),
    ))
    assert extra == {Triple(x, RDF_TYPE, b)}


def test_domain_and_range_inference():
    p, c, d = iri("p"), iri("C"), iri("D")
    x, y = iri("x"), iri("y")
    extra = added_by(build(
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(d, RDF_TYPE, OWL_CLASS),
        Triple(p, RDFS_DOMAIN, c),
        Triple(p, RDFS_RANGE, d),
        Triple(x, p, y),
    ))
    assert Triple(x, RDF_TYPE, c) in extra
    assert Triple(y, RDF_TYPE, d) in extra


def test_range_inference_requires_declared_class_and_skips_literals():
    # RDF 1.1 Semantics §9.2.1, rdfs3: "aaa rdfs:range xxx . yyy aaa zzz ."
    # entails "zzz rdf:type xxx ." for any xxx and zzz.  Rule 4 is narrower on
    # both counts, as the reasoner's module docstring states.
    p, d, x = iri("p"), iri("D"), iri("x")
    # D is not declared a class: no range inference at all
    g = build(Triple(p, RDFS_RANGE, d), Triple(x, p, iri("y")))
    assert Triple(iri("y"), RDF_TYPE, d) not in added_by(g)

    # declared class, but a literal object still must not be typed
    g = build(
        Triple(d, RDF_TYPE, OWL_CLASS),
        Triple(p, RDFS_RANGE, d),
        Triple(x, p, Literal("5", XSD_INTEGER)),
    )
    for t in added_by(g):
        assert not isinstance(t.subject, Literal)


def test_range_inference_reaches_a_class_declared_in_a_later_sweep():
    # C is declared a class only by type inheritance, in the first sweep, so
    # the second sweep's rule 4 types y through the range asserted before it
    m, c, p, x, y = iri("M"), iri("C"), iri("p"), iri("x"), iri("y")
    triples = [Triple(m, RDFS_SUBCLASSOF, OWL_CLASS), Triple(c, RDF_TYPE, m),
               Triple(p, RDFS_RANGE, c), Triple(x, p, y)]
    g = build(*triples)
    res = materialize(g)
    assert res.provenance[Triple(c, RDF_TYPE, OWL_CLASS)] == RuleId.TYPE_INHERIT
    assert res.provenance[Triple(y, RDF_TYPE, c)] == RuleId.RANGE_INFER
    assert res.iterations == 4
    assert set(g) == oracles.closure(triples)


def test_subproperty_inheritance():
    p, q, x, y = iri("p"), iri("q"), iri("x"), iri("y")
    extra = added_by(build(
        Triple(p, RDFS_SUBPROPERTYOF, q),
        Triple(x, p, y),
    ))
    assert extra == {Triple(x, q, y)}


def test_transitive_property_chains():
    p = iri("p")
    hops = [Triple(iri(f"n{i}"), p, iri(f"n{i+1}")) for i in range(4)]
    extra = added_by(build(Triple(p, RDF_TYPE, OWL_TRANSITIVE_PROPERTY), *hops))
    assert Triple(iri("n0"), p, iri("n4")) in extra
    assert len(extra) == 6  # all longer-than-one paths in a 5-node chain


def test_inverse_fires_only_as_asserted():
    # OWL 2 RL (W3C OWL 2 Profiles §4.3) prp-inv2, not implemented:
    # prp-inv2 (Table 5): T(?p1, owl:inverseOf, ?p2) T(?x, ?p2, ?y) => T(?y, ?p1, ?x)
    p, q, x, y = iri("p"), iri("q"), iri("x"), iri("y")
    extra = added_by(build(
        Triple(p, OWL_INVERSE_OF, q),
        Triple(x, p, y),
        Triple(iri("u"), q, iri("v")),
    ))
    # (x p y) yields (y q x) by prp-inv1; nothing maps (u q v) back through p
    assert extra == {Triple(y, q, x)}


# More OWL 2 RL rules (W3C OWL 2 Profiles §4.3) the reasoner does not
# implement, as its module docstring lists: each test quotes the rule and
# pins today's output.


def test_scm_spo_is_not_implemented():
    # scm-spo (Table 9): T(?p1, rdfs:subPropertyOf, ?p2) T(?p2, rdfs:subPropertyOf, ?p3)
    #                    => T(?p1, rdfs:subPropertyOf, ?p3)
    p, q, r, x, y = iri("p"), iri("q"), iri("r"), iri("x"), iri("y")
    extra = added_by(build(
        Triple(p, RDFS_SUBPROPERTYOF, q),
        Triple(q, RDFS_SUBPROPERTYOF, r),
        Triple(x, p, y),
    ))
    # x p y still reaches r through q; the property hierarchy is not closed
    assert extra == {Triple(x, q, y), Triple(x, r, y)}


def test_cax_eqc1_and_cax_eqc2_are_not_implemented():
    # cax-eqc1 (Table 7): T(?c1, owl:equivalentClass, ?c2) T(?x, rdf:type, ?c1) => T(?x, rdf:type, ?c2)
    # cax-eqc2 (Table 7): T(?c1, owl:equivalentClass, ?c2) T(?x, rdf:type, ?c2) => T(?x, rdf:type, ?c1)
    c, d = iri("C"), iri("D")
    assert added_by(build(
        Triple(c, Iri(OWL + "equivalentClass"), d),
        Triple(iri("x"), RDF_TYPE, c),
        Triple(iri("y"), RDF_TYPE, d),
    )) == set()


def test_prp_eqp1_and_prp_eqp2_are_not_implemented():
    # prp-eqp1 (Table 5): T(?p1, owl:equivalentProperty, ?p2) T(?x, ?p1, ?y) => T(?x, ?p2, ?y)
    # prp-eqp2 (Table 5): T(?p1, owl:equivalentProperty, ?p2) T(?x, ?p2, ?y) => T(?x, ?p1, ?y)
    p, q = iri("p"), iri("q")
    assert added_by(build(
        Triple(p, Iri(OWL + "equivalentProperty"), q),
        Triple(iri("x"), p, iri("y")),
        Triple(iri("u"), q, iri("v")),
    )) == set()


def test_symmetric_property():
    p, x, y = iri("p"), iri("x"), iri("y")
    extra = added_by(build(
        Triple(p, RDF_TYPE, OWL_SYMMETRIC_PROPERTY),
        Triple(x, p, y),
        Triple(x, p, Literal("5", XSD_INTEGER)),  # cannot be mirrored
    ))
    assert extra == {Triple(y, p, x)}


def test_thing_membership_skips_the_root_itself():
    c = iri("C")
    extra = added_by(build(
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(OWL_THING, RDF_TYPE, OWL_CLASS),
    ))
    assert extra == {Triple(c, RDFS_SUBCLASSOF, OWL_THING)}


def test_fixture_materialization_golden():
    g = fixture_graph("arabidopsis")
    res = materialize(g)
    assert len(res.added) == 46
    assert res.iterations == 3
    assert res.rule_counts == {
        RuleId.TYPE_INHERIT: 28,
        RuleId.SYMMETRIC_PROP: 1,
        RuleId.THING_MEMBERSHIP: 17,
    }
    assert set(res.provenance) == res.added
    assert len(g) == 87 + 46


def test_materialize_is_idempotent():
    g = fixture_graph("arabidopsis")
    materialize(g)
    second = materialize(g)
    assert second.added == set() and second.iterations == 1


def test_random_graphs_match_closure_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        triples = oracles.random_ontology(rng)
        g = build(*triples)
        terms = {x for t in triples for x in (t.subject, t.predicate, t.object)}
        res = materialize(g)
        assert set(g) == oracles.closure(triples)
        assert res.iterations <= max(1, len(terms) ** 2)
        assert sum(res.rule_counts.values()) == len(res.added)


def test_store_reads_per_sweep_do_not_grow_with_the_data(monkeypatch):
    calls = []
    real = Graph.match_with_stats

    def counting(self, pattern):
        calls.append(pattern)
        return real(self, pattern)

    monkeypatch.setattr(Graph, "match_with_stats", counting)
    per_size = []
    for n in (10, 200):
        chain = [iri(f"C{i}") for i in range(4)]
        g = build(*(Triple(c, RDF_TYPE, OWL_CLASS) for c in chain))
        for sub, sup in zip(chain, chain[1:]):
            g.insert(Triple(sub, RDFS_SUBCLASSOF, sup))
        for i in range(n):
            g.insert(Triple(iri(f"x{i}"), RDF_TYPE, chain[0]))
        calls.clear()
        res = materialize(g)
        per_size.append((len(calls), res.iterations))
    assert per_size[0] == per_size[1]


def test_materialize_and_serialize_sort_only_the_spo_view(monkeypatch):
    # both read the whole store, which the SPO view serves; sorting the POS
    # and OSP views as well would be wasted work
    import plantkb.graph

    keys = []

    def counting(iterable, *, key=None):
        items = list(iterable)
        if items and all(isinstance(x, int) for x in items[0]):  # id-triples, not prefixes
            keys.append(key)
        return sorted(items, key=key)

    chain = [iri(f"C{i}") for i in range(4)]
    g = build(*(Triple(sub, RDFS_SUBCLASSOF, sup) for sub, sup in zip(chain, chain[1:])),
              Triple(iri("x"), RDF_TYPE, chain[0]))
    monkeypatch.setattr(plantkb.graph, "sorted", counting, raising=False)
    assert materialize(g).added
    assert keys == [None]  # one sort, in natural (s, p, o) order
    serialize_turtle(g)
    assert keys == [None, None]


def _reads_for_chain(monkeypatch, length):
    """Store reads (match_with_stats plus match_ids) made by one materialize
    of a subclass chain, and the sweeps it took."""
    calls = []
    for name in ("match_with_stats", "match_ids"):
        real = getattr(Graph, name)

        def counting(self, *args, _real=real, **kwargs):
            calls.append(args)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Graph, name, counting)
    chain = [iri(f"C{i}") for i in range(length)]
    g = build(*(Triple(sub, RDFS_SUBCLASSOF, sup) for sub, sup in zip(chain, chain[1:])))
    res = materialize(g)
    monkeypatch.undo()
    return len(calls), res.iterations


def test_store_is_read_once_per_call_not_once_per_sweep(monkeypatch):
    short_reads, short_sweeps = _reads_for_chain(monkeypatch, 4)
    long_reads, long_sweeps = _reads_for_chain(monkeypatch, 18)
    assert (short_sweeps, long_sweeps) == (3, 6)
    assert short_reads == long_reads


def test_fixture_materialization_makes_fewer_insert_attempts(monkeypatch):
    g = fixture_graph("arabidopsis")
    attempts, new = [], []
    real = Graph.insert

    def counting(self, triple):
        added = real(self, triple)
        attempts.append(triple)
        new.extend([triple] if added else [])
        return added

    monkeypatch.setattr(Graph, "insert", counting)
    materialize(g)
    # naive re-evaluation made 211 attempts here; each sweep now joins only
    # the previous sweep's new triples, yet a duplicate still reaches insert
    assert len(new) == 46 < len(attempts) < 211


def test_each_distinct_derivation_of_a_sweep_is_inserted_once(monkeypatch):
    g = fixture_graph("arabidopsis")
    attempts, new = [], []
    real = Graph.insert

    def counting(self, triple):
        added = real(self, triple)
        attempts.append(triple)
        new.extend([triple] if added else [])
        return added

    monkeypatch.setattr(Graph, "insert", counting)
    materialize(g)
    # a triple derived twice in one sweep (by two rules, or one rule twice)
    # reaches insert once; one derived again in a later sweep reaches it again
    assert (len(attempts), len(new)) == (66, 46)


def test_constants_the_store_lacks_are_derived_and_joined_on():
    # the first sweep derives a constant the store has no id for yet; the
    # second sweep joins on the triples that use it
    p, c, d, x, y = iri("p"), iri("C"), iri("D"), iri("x"), iri("y")
    res = materialize(build(Triple(p, RDFS_DOMAIN, c), Triple(x, p, y), Triple(c, RDFS_SUBCLASSOF, d)))
    assert res.provenance == {  # no rdf:type stored
        Triple(x, RDF_TYPE, c): RuleId.DOMAIN_INFER,
        Triple(x, RDF_TYPE, d): RuleId.TYPE_INHERIT,
    }
    assert res.iterations == 3
    res = materialize(build(Triple(c, RDF_TYPE, OWL_CLASS), Triple(x, RDF_TYPE, c)))
    assert res.provenance == {  # neither rdfs:subClassOf nor owl:Thing stored
        Triple(c, RDFS_SUBCLASSOF, OWL_THING): RuleId.THING_MEMBERSHIP,
        Triple(x, RDF_TYPE, OWL_THING): RuleId.TYPE_INHERIT,
    }
    assert res.iterations == 3


# SHA-256 of each materialize result (provenance items, iterations, rule
# counts, and the graph's term-id table), recorded with naive re-evaluation.
_FIXTURE_DIGESTS = {
    "arabidopsis": "eaf7245ef1ce067f4b9c50557b98905b710d469a5b58d755b4ca77702d2a0861",
    "nc001": "ebc675b6fe4a52f65d6c68086684cd32f5a02925c8c5db2d5c9c3cf9036318ad",
    "nc002": "b86505f16a5f604dcb95fafb2a8200805247a9412d3431cbf6a1c32cd5c2401d",
    "md001": "a55f7c0fc5e53828567f2016099ae052dbac3b984bd7ab1ad004ff58e599a950",
    "cn001": "88e2e3b032b8a643fec04f30a165163287b32395d089149cffa120e56c54030a",
    "cn002": "0130f67ecb5b6402ac5e40f00ffe5b082500535cab48acd9b66d6c43d5aa8a82",
    "cn003": "ec94fc7cd659c2604d53a2f735d8c798aa5080c7b6ad6263d40d5d788db323cd",
    "rf001": "f8070675dda11054fa61b570a2074961f04ecd878127281f722c5e49045bd5b9",
    "cs001": "b650886ae796f9a58c36c72bfccba0c70f1825e332f923008b27a748009fda68",
    "cs002": "055f219888a64fb5d3c9e15eb17004cb2136e021547494911c4dca08c6fbe832",
}
# the 300 ontologies of random_ontology(Random(6)), chained in order
_RANDOM_DIGEST = "8f19d78189e6b3cee762d1036a83f536e18cf619e5ebb94f70cafa7305d67c0e"


def _result_digest(g):
    res = materialize(g)
    h = hashlib.sha256()
    h.update(repr(sorted((repr(t), r.value) for t, r in res.provenance.items())).encode())
    h.update(repr((res.iterations, sorted((r.value, n) for r, n in res.rule_counts.items()))).encode())
    h.update(repr([g.term(i) for i in range(g.term_count())]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", [m.name for m in manifest()])
def test_fixture_results_match_recorded_digests(name):
    assert _result_digest(fixture_graph(name)) == _FIXTURE_DIGESTS[name]


def test_random_ontology_results_match_recorded_digest():
    def key(t):
        return (term_sort_key(t.subject), term_sort_key(t.predicate), term_sort_key(t.object))

    rng = random.Random(6)
    h = hashlib.sha256()
    for _ in range(300):
        # insertion order fixes the term-id table independently of hash seeds
        h.update(_result_digest(build(*sorted(oracles.random_ontology(rng), key=key))).encode())
    assert h.hexdigest() == _RANDOM_DIGEST


# provenance in dict order (the order rules first derived each triple), which
# _result_digest sorts away: the ten fixtures in manifest order, then the 300
# ontologies of random_ontology(Random(6))
_PROVENANCE_ORDER_DIGEST = "bbe56a447b277488b15ee18dee2a7d551dfe62753770c28c070604e8b9551c7a"


def test_provenance_order_matches_recorded_digest():
    def key(t):
        return (term_sort_key(t.subject), term_sort_key(t.predicate), term_sort_key(t.object))

    graphs = [fixture_graph(m.name) for m in manifest()]
    rng = random.Random(6)
    graphs += [build(*sorted(oracles.random_ontology(rng), key=key)) for _ in range(300)]
    h = hashlib.sha256()
    for g in graphs:
        res = materialize(g)
        h.update(repr([(repr(t), rule.value) for t, rule in res.provenance.items()]).encode())
    assert h.hexdigest() == _PROVENANCE_ORDER_DIGEST


def test_result_shape():
    res = materialize(build(Triple(iri("a"), RDFS_SUBCLASSOF, iri("b"))))
    assert isinstance(res, InferenceResult)
    assert res.added == set() and res.iterations == 1 and res.rule_counts == {}


# -- consistency ----------------------------------------------------------------


def test_disjointness_violation_reported_once_with_witness():
    a, b, x = iri("A"), iri("B"), iri("x")
    g = build(
        Triple(a, OWL_DISJOINT_WITH, b),
        Triple(b, OWL_DISJOINT_WITH, a),  # the mirror must not double-report
        Triple(x, RDF_TYPE, a),
        Triple(x, RDF_TYPE, b),
    )
    findings = check_consistency(g)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind is InconsistencyKind.DISJOINTNESS_VIOLATION
    assert f.members == (a, b)  # sorted order
    assert f.witness == Triple(x, RDF_TYPE, a)


def test_disjointness_sees_inferred_types():
    a, b, sub, x = iri("A"), iri("B"), iri("Sub"), iri("x")
    g = build(
        Triple(a, OWL_DISJOINT_WITH, b),
        Triple(sub, RDFS_SUBCLASSOF, a),
        Triple(x, RDF_TYPE, sub),  # only indirectly an A
        Triple(x, RDF_TYPE, b),
    )
    findings = check_consistency(g)
    assert [f.kind for f in findings] == [InconsistencyKind.DISJOINTNESS_VIOLATION]


def test_two_cycle_reported_once():
    a, b = iri("A"), iri("B")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, a),
    )
    findings = check_consistency(g)
    assert len(findings) == 1
    assert findings[0] == Inconsistency(
        kind=InconsistencyKind.SUBCLASS_CYCLE, members=(a, b)
    )


def test_self_loop_is_a_singleton_cycle():
    a = iri("A")
    findings = check_consistency(build(Triple(a, RDFS_SUBCLASSOF, a)))
    assert findings == [Inconsistency(kind=InconsistencyKind.SUBCLASS_CYCLE, members=(a,))]


def test_self_loop_inside_larger_cycle_not_double_reported():
    a, b = iri("A"), iri("B")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, a),
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, a),
    )
    findings = check_consistency(g)
    assert len(findings) == 1
    assert findings[0].members == (a, b)


def test_subclass_chain_has_no_cycle_before_or_after_materialize():
    # A <= B <= C materializes A <= C; that derived edge must not look like a cycle
    a, b, c = iri("A"), iri("B"), iri("C")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, c),
    )
    assert check_consistency(g) == []
    materialize(g)
    assert check_consistency(g) == []


def test_materialized_two_cycle_reported_once():
    # materializing a 2-cycle adds no subclass edge; checking the closed
    # graph must still find exactly one cycle
    a, b = iri("A"), iri("B")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, a),
    )
    materialize(g)
    findings = check_consistency(g)
    cycles = [f for f in findings if f.kind is InconsistencyKind.SUBCLASS_CYCLE]
    assert len(cycles) == 1 and cycles[0].members == (a, b)


def test_check_consistency_agrees_on_asserted_and_materialized_graphs():
    rng = random.Random(303)
    kinds = set()
    for _ in range(100):
        triples = oracles.random_ontology(rng)
        classes = sorted({t.subject for t in triples if t.object == OWL_CLASS}, key=str)
        # random_ontology is acyclic and has no disjointness; add both
        for _ in range(rng.randint(0, 2)):
            triples.add(Triple(rng.choice(classes), RDFS_SUBCLASSOF, rng.choice(classes)))
        for _ in range(rng.randint(0, 2)):
            triples.add(Triple(rng.choice(classes), OWL_DISJOINT_WITH, rng.choice(classes)))
        g = build(*triples)
        w = g.copy()
        expected = check_consistency(g)
        materialize(w)
        assert check_consistency(w) == expected
        assert set(g) == triples  # the graph itself is left as asserted
        kinds.update(f.kind for f in expected)
    assert kinds == set(InconsistencyKind)


def test_clean_fixture_is_consistent():
    assert check_consistency(fixture_graph("arabidopsis")) == []


def test_defect_fixtures_yield_expected_findings():
    cs1 = check_consistency(fixture_graph("cs001"))
    assert [f.kind for f in cs1] == [InconsistencyKind.DISJOINTNESS_VIOLATION]
    cs2 = check_consistency(fixture_graph("cs002"))
    assert [f.kind for f in cs2] == [InconsistencyKind.SUBCLASS_CYCLE]
    assert len(cs2[0].members) == 2


def test_sccs_match_reachability_oracle():
    rng = random.Random(77)
    from plantkb.reasoner import strongly_connected_components

    for _ in range(50):
        n = rng.randint(1, 14)
        edges = {}
        for i in range(n):
            edges[i] = {rng.randrange(n) for _ in range(rng.randint(0, 3))}
        got = {frozenset(c) for c in strongly_connected_components(edges)}
        want = {frozenset(c) for c in oracles.naive_sccs(edges)}
        assert got == want
