"""Forward chaining: per-rule behavior, fixpoint properties, consistency findings."""

import random

import oracles
from plantkb.fixtures import fixture_graph
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
)

EX = "http://example.test/r#"


def iri(s):
    return Iri(EX + s)


def build(*triples):
    g = Graph()
    for t in triples:
        g.insert(t)
    return g


def added_by(g):
    before = g.triples()
    materialize(g)
    return g.triples() - before


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
    p, q, x, y = iri("p"), iri("q"), iri("x"), iri("y")
    extra = added_by(build(
        Triple(p, OWL_INVERSE_OF, q),
        Triple(x, p, y),
        Triple(iri("u"), q, iri("v")),
    ))
    # (x p y) yields (y q x); nothing maps q edges back through p
    assert Triple(y, q, x) in extra
    assert Triple(iri("v"), p, iri("u")) not in extra


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
        assert g.triples() == oracles.closure(triples)
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


def test_materialized_graph_with_inference_recovers_asserted_edges():
    # A <= B <= C materializes A <= C; that derived edge must not look like a cycle
    a, b, c = iri("A"), iri("B"), iri("C")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, c),
    )
    res = materialize(g)
    assert check_consistency(g, inference=res) == []


def test_cycle_detection_uses_asserted_not_inferred_edges():
    # materializing a 2-cycle adds nothing new structurally; the asserted
    # subtraction path must still find exactly one finding
    a, b = iri("A"), iri("B")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, a),
    )
    res = materialize(g)
    findings = check_consistency(g, inference=res)
    cycles = [f for f in findings if f.kind is InconsistencyKind.SUBCLASS_CYCLE]
    assert len(cycles) == 1 and cycles[0].members == (a, b)


def test_both_entry_paths_of_check_consistency_agree():
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
        assert check_consistency(w, inference=materialize(w)) == expected
        assert g.triples() == triples  # the graph itself is left as asserted
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
