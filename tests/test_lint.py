"""Validation checks: catalog coverage, configuration, deterministic rendering."""

import functools
import hashlib
import json
import random

import oracles
import pytest
from plantkb.fixtures import fixture_graph, manifest
from plantkb.graph import Graph
from plantkb.lint import (
    ALL_CODES,
    DEFAULT_CLASS_PATTERN,
    DEFAULT_PROPERTY_PATTERN,
    CheckConfig,
    Diagnostic,
    Severity,
    render_json,
    render_text,
    run_checks,
)
from plantkb.terms import (
    OWL_CLASS,
    OWL_OBJECT_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    Iri,
    Literal,
    Triple,
    term_sort_key,
)
from plantkb.turtle import parse_turtle

EX = "http://example.test/l#"


def iri(s):
    return Iri(EX + s)


def build(*triples):
    g = Graph()
    for t in triples:
        g.insert(t)
    return g


def codes(diagnostics):
    return [d.code for d in diagnostics]


def test_catalog_is_exactly_ten_codes():
    assert ALL_CODES == {
        "NC001", "NC002", "MD001", "CN001", "CN002", "CN003", "RF001",
        "MM001", "CS001", "CS002",
    }


def test_clean_fixture_has_no_findings():
    assert run_checks(fixture_graph("arabidopsis")) == []


def test_each_defect_fixture_triggers_exactly_its_code():
    for entry in manifest():
        diagnostics = run_checks(fixture_graph(entry.name))
        error_codes = {d.code for d in diagnostics if d.severity is Severity.ERROR}
        assert error_codes == entry.expected_error_codes, entry.name


def test_mm001_is_a_warning_not_an_error():
    c, k = iri("Dual"), iri("Kind")
    g = build(
        Triple(k, RDF_TYPE, OWL_CLASS),
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(c, RDF_TYPE, k),  # Dual is also an individual of Kind
        Triple(c, RDFS_LABEL, Literal("dual")),
        Triple(k, RDFS_LABEL, Literal("kind")),
    )
    cfg = CheckConfig(enabled_codes=frozenset({"MM001"}))
    found = run_checks(g, cfg)
    assert codes(found) == ["MM001"]
    assert found[0].severity is Severity.WARNING
    assert found[0].subject == c


def test_naming_patterns_are_configurable():
    c = iri("snake_case_class")
    g = build(Triple(c, RDF_TYPE, OWL_CLASS))
    cfg = CheckConfig(enabled_codes=frozenset({"NC001"}))
    assert codes(run_checks(g, cfg)) == ["NC001"]
    relaxed = CheckConfig(
        enabled_codes=frozenset({"NC001"}), class_name_pattern=r"^[a-z_]+$"
    )
    assert run_checks(g, relaxed) == []


def test_require_labels_toggle():
    c = iri("Unlabeled")
    g = build(Triple(c, RDF_TYPE, OWL_CLASS))
    only_md = CheckConfig(enabled_codes=frozenset({"MD001"}))
    assert codes(run_checks(g, only_md)) == ["MD001"]
    no_labels = CheckConfig(enabled_codes=ALL_CODES - {"MD001"})
    assert "MD001" not in codes(run_checks(g, no_labels))


def test_cn001_flags_redundant_edge():
    a, b, c = iri("A"), iri("B"), iri("C")
    g = build(
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, c),
        Triple(a, RDFS_SUBCLASSOF, c),  # implied by the other two
    )
    cfg = CheckConfig(enabled_codes=frozenset({"CN001"}))
    found = run_checks(g, cfg)
    assert codes(found) == ["CN001"]
    assert found[0].subject == a and f"<{c.value}>" in found[0].message


def test_rf001_accepts_datatype_ranges():
    p, c = iri("p"), iri("C")
    g = build(
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(p, RDF_TYPE, Iri("http://www.w3.org/2002/07/owl#DatatypeProperty")),
        Triple(p, RDFS_DOMAIN, c),
        Triple(p, RDFS_RANGE, Iri("http://www.w3.org/2001/XMLSchema#decimal")),
    )
    cfg = CheckConfig(enabled_codes=frozenset({"RF001"}))
    assert run_checks(g, cfg) == []


def test_diagnostics_sorted_by_code_then_subject():
    za, ab = iri("zz_bad"), iri("aa_bad")
    g = build(
        Triple(za, RDF_TYPE, OWL_CLASS),
        Triple(ab, RDF_TYPE, OWL_CLASS),
    )
    cfg = CheckConfig(enabled_codes=frozenset({"NC001", "MD001"}))
    found = run_checks(g, cfg)
    assert codes(found) == ["MD001", "MD001", "NC001", "NC001"]
    assert found[0].subject == ab and found[1].subject == za


def test_render_text_format():
    d = Diagnostic("NC001", Severity.ERROR, iri("bad_name"), "message text")
    w = Diagnostic("MM001", Severity.WARNING, iri("dual"), "both ways")
    assert render_text([d, w]) == (
        f"ERROR NC001 <{EX}bad_name>: message text\n"
        f"WARNING MM001 <{EX}dual>: both ways\n"
    )
    assert render_text([]) == ""


def test_render_json_format():
    d = Diagnostic("CS002", Severity.ERROR, iri("A"), "subclass cycle: stuff")
    text = render_json([d])
    assert text.endswith("\n")
    assert json.loads(text) == [
        {
            "code": "CS002",
            "severity": "error",
            "subject": EX + "A",
            "message": "subclass cycle: stuff",
        }
    ]


def test_reports_are_byte_identical_across_runs():
    for name in ("arabidopsis", "nc001", "cs002"):
        a = render_text(run_checks(fixture_graph(name)))
        b = render_text(run_checks(fixture_graph(name)))
        assert a == b
        assert render_json(run_checks(fixture_graph(name))) == render_json(
            run_checks(fixture_graph(name))
        )


def test_store_reads_do_not_grow_with_the_individuals(counting):
    calls = counting(Graph, "match_with_stats")
    per_size = []
    # n individuals, k classes and k - 3 properties: more individuals, then
    # more declarations
    for n, k in ((10, 4), (200, 4), (10, 40)):
        classes = [iri(f"C{i}") for i in range(k)]
        g = build(*(Triple(c, RDF_TYPE, OWL_CLASS) for c in classes))
        g.insert(Triple(iri("C1"), RDFS_SUBCLASSOF, iri("C0")))
        g.insert(Triple(iri("knows"), RDF_TYPE, OWL_OBJECT_PROPERTY))
        for c in classes[4:]:
            g.insert(Triple(iri(f"in{c.local_name()}"), RDF_TYPE, OWL_OBJECT_PROPERTY))
            g.insert(Triple(iri(f"in{c.local_name()}"), RDFS_DOMAIN, c))
        for i in range(n):
            g.insert(Triple(iri(f"x{i}"), RDF_TYPE, iri("C1")))
            g.insert(Triple(iri(f"x{i}"), iri("knows"), iri("C3")))
        calls.clear()
        orphans = [d.subject for d in run_checks(g) if d.code == "CN003"]
        per_size.append((len(calls), orphans))
    # C2 is the one orphan: C3 is mentioned by the individuals' assertions,
    # and C4 on are the domains of properties
    assert per_size[0] == per_size[1] == per_size[2]
    assert per_size[0][1] == [iri("C2")]


# eight codes at once, and the cases the fixtures and random graphs miss: a
# class that is also an individual, IRI-valued labels, a blank individual
# typed by disjoint classes, and a range that is a datatype
_MIXED_TTL = """\
@prefix : <http://example.test/l#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:Kind a owl:Class ; rdfs:label :kindLabel .
:Dual a owl:Class, :Kind ; rdfs:label "dual" .
:A a owl:Class ; rdfs:label "same" ; owl:disjointWith :B .
:B a owl:Class ; rdfs:label "same" .
:lower_case a owl:Class ; rdfs:subClassOf :Cyc ; rdfs:label "lc" .
:Cyc a owl:Class ; rdfs:subClassOf :lower_case ; rdfs:label "cyc" .
:hasPart a owl:ObjectProperty ; rdfs:label "has part" ;
    rdfs:domain :Dual, :Missing ; rdfs:range :Gone, xsd:string .
:Bad_prop a owl:DatatypeProperty ; rdfs:label :propLabel .
_:x a :A, :B .
"""


@functools.cache
def _lint_inputs():
    """The ten fixtures in manifest order, _MIXED_TTL, then
    random_ontology(Random(s)) for s in 0..99, inserted in term order so the
    term-id table does not depend on the hash seed."""
    def key(t):
        return (term_sort_key(t.subject), term_sort_key(t.predicate), term_sort_key(t.object))

    graphs = [fixture_graph(m.name) for m in manifest()]
    graphs.append(parse_turtle(_MIXED_TTL).graph)
    graphs += [
        build(*sorted(oracles.random_ontology(random.Random(s)), key=key)) for s in range(100)
    ]
    return graphs


_LINT_CONFIGS = [
    CheckConfig(),
    CheckConfig(enabled_codes=ALL_CODES - {"MD001"}),
    CheckConfig(enabled_codes=ALL_CODES - {"CS001", "CS002"}),
    CheckConfig(
        enabled_codes=frozenset({"NC002", "CN003"}),
        class_name_pattern=DEFAULT_PROPERTY_PATTERN,
        property_name_pattern=DEFAULT_CLASS_PATTERN,
    ),
]
# render_text + render_json of every input under each of _LINT_CONFIGS, in
# order, chained into one hash
_LINT_OUTPUT_DIGEST = "be9db4d3a962237515b24c254a042f6b78c2be1c4c60c368bc2813c27bce132c"


def test_lint_output_matches_recorded_digest():
    h = hashlib.sha256()
    for cfg in _LINT_CONFIGS:
        for g in _lint_inputs():
            found = run_checks(g, cfg)
            h.update(render_text(found).encode())
            h.update(render_json(found).encode())
    assert h.hexdigest() == _LINT_OUTPUT_DIGEST


@functools.cache
def _all_codes_results():
    return [run_checks(g) for g in _lint_inputs()]


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_each_code_turns_off_alone(code):
    # the clean fixture has no findings to filter, so it is skipped
    for g, everything in list(zip(_lint_inputs(), _all_codes_results()))[1:]:
        without = run_checks(g, CheckConfig(enabled_codes=ALL_CODES - {code}))
        assert without == [d for d in everything if d.code != code]
