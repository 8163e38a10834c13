"""Turtle subset: parsing, error reporting, deterministic serialization, round trips."""

import random

import pytest

import oracles
from plantkb.errors import (
    ParseError,
    RelativeIriError,
    UnknownPrefixError,
    UnsupportedConstructError,
)
from plantkb.graph import Graph, PrefixMap
from plantkb.terms import (
    RDF_LANG_STRING,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
)
from plantkb.turtle import parse_turtle, serialize_turtle

EX = "http://example.test/t#"


def test_basic_statement_forms():
    doc = """
    @prefix ex: <http://example.test/t#> .
    ex:s a ex:C ;
        ex:p ex:o , "text" , 42 , 3.5 , true ;
        ex:q "tagged"@en .
    """
    g = parse_turtle(doc).graph
    s = Iri(EX + "s")
    assert Triple(s, Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), Iri(EX + "C")) in g
    assert Triple(s, Iri(EX + "p"), Literal("text")) in g
    assert Triple(s, Iri(EX + "p"), Literal("42", XSD_INTEGER)) in g
    assert Triple(s, Iri(EX + "p"), Literal("3.5", XSD_DECIMAL)) in g
    assert Triple(s, Iri(EX + "p"), Literal("true", XSD_BOOLEAN)) in g
    assert Triple(s, Iri(EX + "q"), Literal("tagged", RDF_LANG_STRING, "en")) in g
    assert len(g) == 7


def test_string_escapes_round_trip_through_parser():
    doc = r'<http://e.test/s> <http://e.test/p> "a\"b\\c\nd\te" .'
    g = parse_turtle(doc).graph
    (tr,) = g.triples()
    assert tr.object == Literal('a"b\\c\nd\te')


def test_unicode_escapes_in_iri_and_string():
    doc = '<http://e.test/s\\u00e9> <http://e.test/p> "sn\\u00f6" .'
    g = parse_turtle(doc).graph
    (tr,) = g.triples()
    assert tr.subject == Iri("http://e.test/sé")
    assert tr.object == Literal("snö")


def test_datatyped_literal_and_sparql_style_prefix():
    doc = """
    PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
    PREFIX ex: <http://example.test/t#>
    ex:s ex:p "7"^^xsd:integer .
    """
    g = parse_turtle(doc).graph
    (tr,) = g.triples()
    assert tr.object == Literal("7", XSD_INTEGER)


def test_base_resolution():
    doc = """
    @base <http://example.test/dir/> .
    <leaf> <p> <../up> .
    """
    g = parse_turtle(doc).graph
    (tr,) = g.triples()
    assert tr.subject == Iri("http://example.test/dir/leaf")
    assert tr.predicate == Iri("http://example.test/dir/p")
    assert tr.object == Iri("http://example.test/up")


def test_base_argument_used_when_document_has_none():
    g = parse_turtle("<leaf> <p> <o> .", base="http://example.test/dir/").graph
    assert Triple(
        Iri("http://example.test/dir/leaf"),
        Iri("http://example.test/dir/p"),
        Iri("http://example.test/dir/o"),
    ) in g


def test_relative_iri_without_base_is_rejected():
    with pytest.raises(RelativeIriError):
        parse_turtle("<leaf> <http://e.test/p> <http://e.test/o> .")


def test_unknown_prefix_reports_position():
    with pytest.raises(UnknownPrefixError) as exc:
        parse_turtle("zz:s <http://e.test/p> zz:o .")
    assert exc.value.prefix == "zz"


def test_labeled_blank_nodes_keep_their_labels():
    doc = "_:alice <http://e.test/knows> _:bob ."
    g = parse_turtle(doc).graph
    (tr,) = g.triples()
    assert tr.subject == BlankNode("alice") and tr.object == BlankNode("bob")


def test_anonymous_blank_nodes_skip_used_labels():
    doc = """
    @prefix ex: <http://example.test/t#> .
    _:b1 ex:p [ ex:q ex:o ] .
    """
    g = parse_turtle(doc).graph
    # the [] node must not collide with the explicit _:b1
    anon = [tr.object for tr in g.triples() if tr.predicate == Iri(EX + "p")]
    assert anon == [BlankNode("b2")]
    assert Triple(BlankNode("b2"), Iri(EX + "q"), Iri(EX + "o")) in g


def test_comments_and_blank_lines_ignored():
    doc = """
    # leading comment
    <http://e.test/s> <http://e.test/p> <http://e.test/o> . # trailing comment
    """
    assert len(parse_turtle(doc).graph) == 1


def test_unsupported_constructs():
    with pytest.raises(UnsupportedConstructError):
        parse_turtle("<http://e.test/s> <http://e.test/p> (1 2) .")
    with pytest.raises(UnsupportedConstructError):
        parse_turtle('<http://e.test/s> <http://e.test/p> """block""" .')
    with pytest.raises(UnsupportedConstructError):
        parse_turtle("<http://e.test/s> <http://e.test/p> 1.0e6 .")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_turtle('<http://e.test/s> <http://e.test/p> "unclosed .')
    assert exc.value.line == 1
    assert exc.value.column > 30
    assert "line 1, column" in str(exc.value)


@pytest.mark.parametrize(
    "doc, line, column",
    [
        ("_:-x <http://e.test/p> <http://e.test/o> .", 1, 1),
        ("_:.x <http://e.test/p> <http://e.test/o> .", 1, 1),
        ("<http://e.test/s> <http://e.test/p>\n  <http://e.test/\\u0020> .", 2, 3),
        ("<http://e.test/s> <http://e.test/p> <http://e.test/\\UFFFFFFFF> .", 1, 37),
    ],
)
def test_malformed_terms_raise_parse_error_at_the_token(doc, line, column):
    with pytest.raises(ParseError) as exc:
        parse_turtle(doc)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_numeric_literal_with_trailing_newline_is_a_parse_error():
    # once accepted, it was written back bare and re-read as a different literal
    doc = '<http://e/s> <http://e/p> "5\\n"^^<http://www.w3.org/2001/XMLSchema#integer> .'
    with pytest.raises(ParseError) as exc:
        parse_turtle(doc)
    assert (exc.value.line, exc.value.column) == (1, 27)
    assert "line 1, column 27: not a valid xsd:integer lexical form: '5\\n'" in str(exc.value)


def test_missing_final_dot_is_an_error():
    with pytest.raises(ParseError):
        parse_turtle("<http://e.test/s> <http://e.test/p> <http://e.test/o>")


def test_prefixes_exposed_on_outcome():
    out = parse_turtle("@prefix ex: <http://example.test/t#> .\nex:a ex:b ex:c .")
    assert out.prefixes.namespace("ex") == Iri(EX)


def test_serializer_golden_layout():
    g = Graph()
    pm = PrefixMap()
    pm.bind("ex", Iri(EX))
    g.insert(Triple(Iri(EX + "s"), Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), Iri(EX + "C")))
    g.insert(Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("42", XSD_INTEGER)))
    g.insert(Triple(Iri(EX + "s"), Iri(EX + "p"), Iri(EX + "o")))
    g.insert(Triple(Iri(EX + "z"), Iri(EX + "p"), Literal("hi")))
    text = serialize_turtle(g, pm)
    # subjects sorted, predicates sorted within the group, objects joined by
    # commas; rdf:type renders as 'a' wherever its IRI happens to sort
    assert text == (
        "@prefix ex: <http://example.test/t#> .\n"
        "\n"
        "ex:s ex:p ex:o, 42 ;\n"
        "    a ex:C .\n"
        'ex:z ex:p "hi" .\n'
    )


def test_serializer_quotes_non_canonical_numbers():
    g = Graph()
    g.insert(Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("0042", XSD_INTEGER)))
    text = serialize_turtle(g)
    # 0042 survives as a bare token only if it round-trips exactly; it does
    assert "0042" in text
    back = parse_turtle(text).graph
    assert Triple(Iri(EX + "s"), Iri(EX + "p"), Literal("0042", XSD_INTEGER)) in back


def test_serializer_deterministic_across_insertion_orders():
    rng = random.Random(17)
    triples = list(oracles.random_document_triples(rng, max_triples=50))
    g1, g2 = Graph(), Graph()
    for tr in triples:
        g1.insert(tr)
    rng.shuffle(triples)
    for tr in triples:
        g2.insert(tr)
    assert serialize_turtle(g1) == serialize_turtle(g2)


def test_random_round_trips():
    rng = random.Random(4242)
    for _ in range(60):
        triples = oracles.random_document_triples(rng)
        g = Graph()
        for tr in triples:
            g.insert(tr)
        back = parse_turtle(serialize_turtle(g)).graph
        assert back == g


def test_round_trip_with_blank_nodes_and_prefixes():
    doc = """
    @prefix ex: <http://example.test/t#> .
    ex:s ex:p _:n1 .
    _:n1 ex:q "v" .
    """
    out = parse_turtle(doc)
    text = serialize_turtle(out.graph, out.prefixes)
    again = parse_turtle(text).graph
    assert again == out.graph
