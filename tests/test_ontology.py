"""Ontology view, class tree, DOT export."""

import pytest

import oracles
from plantkb.errors import SubclassCycleError
from plantkb.fixtures import fixture_graph
from plantkb.graph import Graph
from plantkb.ontology import (
    PropertyKind,
    class_tree,
    extract_ontology,
    to_dot,
)
from plantkb.reasoner import materialize
from plantkb.terms import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_OBJECT_PROPERTY,
    OWL_THING,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    Iri,
    Literal,
    Triple,
    TriplePattern,
)

PLANT = "http://plantkb.example/arabidopsis#"
EX = "http://example.test/o#"


def plant(name):
    return Iri(PLANT + name)


def build(*triples):
    g = Graph()
    for t in triples:
        g.insert(t)
    return g


def _typed_individuals(n, k=4):
    """n individuals typed by two of four classes; k labelled classes in a
    subclass chain and k properties, each with a domain and a range."""
    classes = [Iri(f"{EX}C{i}") for i in range(k)]
    g = build(*(Triple(c, RDF_TYPE, OWL_CLASS) for c in classes))
    for sub, sup in zip(classes, classes[1:]):
        g.insert(Triple(sub, RDFS_SUBCLASSOF, sup))
    for i, c in enumerate(classes):
        g.insert(Triple(c, RDFS_LABEL, Literal(f"class {i}")))
        p = Iri(f"{EX}p{i}")
        g.insert(Triple(p, RDF_TYPE, OWL_OBJECT_PROPERTY))
        g.insert(Triple(p, RDFS_DOMAIN, c))
        g.insert(Triple(p, RDFS_RANGE, classes[(i + 1) % k]))
    g.insert(Triple(Iri(EX + "knows"), RDF_TYPE, OWL_OBJECT_PROPERTY))
    for i in range(n):
        x = Iri(f"{EX}x{i}")
        g.insert(Triple(x, RDF_TYPE, classes[i % 4]))
        g.insert(Triple(x, RDF_TYPE, classes[(i + 1) % 4]))
        g.insert(Triple(x, Iri(EX + "knows"), Iri(f"{EX}x{(i + 1) % n}")))
    return g


def test_store_reads_do_not_grow_with_the_individuals(counting):
    calls = counting(Graph, "match_with_stats")
    readers = (
        extract_ontology,
        lambda g: to_dot(g, mode="classes"),
        lambda g: to_dot(g, mode="properties"),
    )
    per_size = []
    # more individuals, then more classes and properties
    for n, k in ((10, 4), (200, 4), (10, 40)):
        g = _typed_individuals(n, k)
        reads = []
        for read in readers:
            calls.clear()
            read(g)
            reads.append(len(calls))
        per_size.append(reads)
        view = extract_ontology(g)
        assert (len(view.individuals), len(view.classes), len(view.properties)) == (n, k, k + 1)
        assert view.individuals[Iri(EX + "x5")].asserted_types == {Iri(EX + "C1"), Iri(EX + "C2")}
    assert per_size[0] == per_size[1] == per_size[2]


def test_fixture_view_counts():
    view = extract_ontology(fixture_graph("arabidopsis"))
    assert len(view.classes) == 17
    assert len(view.properties) == 4
    assert len(view.individuals) == 14


def test_fixture_property_declarations():
    view = extract_ontology(fixture_graph("arabidopsis"))
    grows = view.properties[plant("growsIn")]
    assert grows.kind is PropertyKind.OBJECT
    assert grows.domain == {plant("Seed")} and grows.range == {plant("Germination")}
    assert grows.characteristics == frozenset()

    has_part = view.properties[plant("hasPart")]
    assert has_part.characteristics == frozenset({"transitive"})
    assert view.properties[plant("hasVariant")].characteristics == frozenset({"symmetric"})

    max_height = view.properties[plant("maxHeight")]
    assert max_height.kind is PropertyKind.DATATYPE
    assert max_height.range == {Iri("http://www.w3.org/2001/XMLSchema#decimal")}

    # annotation-only property stays out of the declared set
    assert plant("chromosomeCount") not in view.properties


def test_fixture_class_labels_and_supers():
    view = extract_ontology(fixture_graph("arabidopsis"))
    seed = view.classes[plant("Seed")]
    assert seed.label == "seed"
    assert seed.direct_supers == frozenset({plant("BiologicalDevelopmentalStage")})
    root = view.classes[plant("BiologicalProperty")]
    assert root.direct_supers == frozenset()


def test_fixture_individuals_carry_asserted_types():
    view = extract_ontology(fixture_graph("arabidopsis"))
    frost = view.individuals[plant("frostTolerance")]
    assert frost.asserted_types == frozenset({plant("Tolerance")})


def test_object_kind_wins_when_typed_both():
    p = Iri(EX + "p")
    g = build(
        Triple(p, RDF_TYPE, OWL_OBJECT_PROPERTY),
        Triple(p, RDF_TYPE, OWL_DATATYPE_PROPERTY),
    )
    assert extract_ontology(g).properties[p].kind is PropertyKind.OBJECT


def test_best_label_is_deterministic():
    c = Iri(EX + "C")
    g = build(
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(c, RDFS_LABEL, Literal("zebra")),
        Triple(c, RDFS_LABEL, Literal("aardvark")),
    )
    assert extract_ontology(g).classes[c].label == "aardvark"


def test_class_tree_shape_on_fixture():
    tree = class_tree(fixture_graph("arabidopsis"))
    assert tree.root == OWL_THING and OWL_THING in tree.nodes()
    assert tree.children[OWL_THING] == (
        plant("BiochemicalProcess"),
        plant("BiologicalDevelopmentalStage"),
        plant("BiologicalProcess"),
        plant("BiologicalProperty"),
    )
    assert tree.children[plant("BiologicalDevelopmentalStage")] == (
        plant("Germination"), plant("LifeSpan"), plant("Seed"), plant("Seedling"),
    )
    assert len(tree.nodes()) == 18
    assert sum(map(len, tree.children.values())) == 17  # one parent link per class
    assert plant("Seed") in tree.nodes()
    assert Iri(EX + "Nope") not in tree.nodes()


def test_class_tree_preorder_starts_at_root():
    tree = class_tree(fixture_graph("arabidopsis"))
    walk, stack = [], [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        walk.append((node, depth))
        stack.extend((kid, depth + 1) for kid in reversed(tree.children.get(node, ())))
    assert walk[0] == (OWL_THING, 0)
    assert len(walk) == 18
    depths = dict(walk)
    assert depths[plant("Seed")] == 2


def test_class_tree_lists_a_multi_parent_class_under_each_parent():
    a, b, c, d = (Iri(EX + n) for n in "ABCD")
    tree = class_tree(build(
        *(Triple(x, RDF_TYPE, OWL_CLASS) for x in (a, b, c, d)),
        Triple(c, RDFS_SUBCLASSOF, a),
        Triple(c, RDFS_SUBCLASSOF, b),
        Triple(d, RDFS_SUBCLASSOF, c),
    ))
    assert tree.children == {OWL_THING: (a, b), a: (c,), b: (c,), c: (d,)}
    assert tree.nodes() == [a, b, c, d, OWL_THING]


def test_class_tree_holds_a_deep_chain():
    # deeper than the default recursion limit of 1,000 frames
    chain = [Iri(f"{EX}C{i:04d}") for i in range(3000)]
    g = build(*(Triple(c, RDF_TYPE, OWL_CLASS) for c in chain))
    for sub, sup in zip(chain[1:], chain):
        g.insert(Triple(sub, RDFS_SUBCLASSOF, sup))
    tree = class_tree(g)
    assert tree.children == {OWL_THING: (chain[0],), **{sup: (sub,) for sub, sup in zip(chain[1:], chain)}}
    assert to_dot(g).count(" -> ") == 3000


def test_parentless_class_attaches_to_thing():
    c = Iri(EX + "C")
    tree = class_tree(build(Triple(c, RDF_TYPE, OWL_CLASS)))
    assert tree.children == {OWL_THING: (c,)}


def test_undeclared_parent_is_not_a_tree_node():
    c, ghost = Iri(EX + "C"), Iri(EX + "Ghost")
    tree = class_tree(build(
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(c, RDFS_SUBCLASSOF, ghost),
    ))
    assert ghost not in tree.nodes()
    # with no declared parent the class falls back to the root
    assert tree.children == {OWL_THING: (c,)}


def test_class_tree_rejects_cycles():
    a, b = Iri(EX + "A"), Iri(EX + "B")
    g = build(
        Triple(a, RDF_TYPE, OWL_CLASS),
        Triple(b, RDF_TYPE, OWL_CLASS),
        Triple(a, RDFS_SUBCLASSOF, b),
        Triple(b, RDFS_SUBCLASSOF, a),
    )
    with pytest.raises(SubclassCycleError) as exc:
        class_tree(g)
    assert set(exc.value.members) == {a, b}
    with pytest.raises(SubclassCycleError):
        class_tree(fixture_graph("cs002"))


def test_class_tree_reports_the_first_cycle_in_sorted_order():
    a, b, z = Iri(EX + "A"), Iri(EX + "B"), Iri(EX + "Z")
    g = build(
        Triple(z, RDF_TYPE, OWL_CLASS),
        Triple(z, RDFS_SUBCLASSOF, z),
        Triple(b, RDF_TYPE, OWL_CLASS),
        Triple(a, RDF_TYPE, OWL_CLASS),
        Triple(b, RDFS_SUBCLASSOF, a),
        Triple(a, RDFS_SUBCLASSOF, b),
    )
    with pytest.raises(SubclassCycleError) as exc:
        class_tree(g)
    assert exc.value.members == [a, b]


def test_fixture_stages_are_inferred_members_of_developmental_stage():
    g = fixture_graph("arabidopsis")
    members = TriplePattern(None, RDF_TYPE, plant("BiologicalDevelopmentalStage"))
    assert g.match(members) == []
    working = g.copy()
    materialize(working)
    assert {t.subject for t in working.match(members)} == {
        plant("seedCol0"), plant("germinationCol0"), plant("sampleCol0"), plant("lifeCycleCol0"),
    }
    assert g.match(members) == []  # inference ran on the copy


def test_dot_classes_well_formed_and_counted():
    g = fixture_graph("arabidopsis")
    text = to_dot(g, mode="classes")
    name, nodes, edges = oracles.parse_dot(text)
    assert name == "classes"
    assert len(nodes) == 18  # 17 declared classes + the root
    assert len(edges) == 17  # every class links to exactly one parent
    assert text == to_dot(fixture_graph("arabidopsis"), mode="classes")
    assert text.splitlines()[1] == "    rankdir=BT;"


def test_dot_classes_edges_point_child_to_parent():
    g = fixture_graph("arabidopsis")
    _, _, edges = oracles.parse_dot(to_dot(g, mode="classes"))
    assert (PLANT + "Seed", PLANT + "BiologicalDevelopmentalStage", None) in edges
    assert (PLANT + "BiologicalProperty", OWL_THING.value, None) in edges


def test_dot_properties_mode():
    g = fixture_graph("arabidopsis")
    name, nodes, edges = oracles.parse_dot(to_dot(g, mode="properties"))
    assert name == "properties"
    # domains and ranges only: 6 classes + xsd:decimal
    assert len(nodes) == 7
    labels = {e[2] for e in edges}
    assert labels == {"growsIn", "hasPart", "hasVariant", "maxHeight"}


def test_dot_escapes_quotes_in_labels():
    c = Iri(EX + "C")
    g = build(
        Triple(c, RDF_TYPE, OWL_CLASS),
        Triple(c, RDFS_LABEL, Literal('say "label"')),
    )
    text = to_dot(g, mode="classes")
    assert '\\"label\\"' in text
    oracles.parse_dot(text)


def test_dot_mode_validation():
    with pytest.raises(ValueError):
        to_dot(fixture_graph("arabidopsis"), mode="instances")
