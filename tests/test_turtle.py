"""Turtle subset: parsing, error reporting, deterministic serialization, round trips."""

import hashlib
import random
from collections import Counter

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
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
    term_sort_key,
)
from plantkb.fixtures import fixture_text, manifest
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


# RFC 3986 §5.4.1 (normal) and §5.4.2 (abnormal) examples, against the base
# http://a/b/c/d;p?q; "http:g" is the strict parser's answer
RFC_3986_EXAMPLES = [
    ("g:h", "g:h"), ("g", "http://a/b/c/g"), ("./g", "http://a/b/c/g"), ("g/", "http://a/b/c/g/"),
    ("/g", "http://a/g"), ("//g", "http://g"), ("?y", "http://a/b/c/d;p?y"), ("g?y", "http://a/b/c/g?y"),
    ("#s", "http://a/b/c/d;p?q#s"), ("g#s", "http://a/b/c/g#s"), ("g?y#s", "http://a/b/c/g?y#s"),
    (";x", "http://a/b/c/;x"), ("g;x", "http://a/b/c/g;x"), ("g;x?y#s", "http://a/b/c/g;x?y#s"),
    ("", "http://a/b/c/d;p?q"), (".", "http://a/b/c/"), ("./", "http://a/b/c/"), ("..", "http://a/b/"),
    ("../", "http://a/b/"), ("../g", "http://a/b/g"), ("../..", "http://a/"), ("../../", "http://a/"),
    ("../../g", "http://a/g"),
    ("../../../g", "http://a/g"), ("../../../../g", "http://a/g"), ("/./g", "http://a/g"),
    ("/../g", "http://a/g"), ("g.", "http://a/b/c/g."), (".g", "http://a/b/c/.g"), ("g..", "http://a/b/c/g.."),
    ("..g", "http://a/b/c/..g"), ("./../g", "http://a/b/g"), ("./g/.", "http://a/b/c/g/"),
    ("g/./h", "http://a/b/c/g/h"), ("g/../h", "http://a/b/c/h"), ("g;x=1/./y", "http://a/b/c/g;x=1/y"),
    ("g;x=1/../y", "http://a/b/c/y"), ("g?y/./x", "http://a/b/c/g?y/./x"), ("g?y/../x", "http://a/b/c/g?y/../x"),
    ("g#s/./x", "http://a/b/c/g#s/./x"), ("g#s/../x", "http://a/b/c/g#s/../x"), ("http:g", "http:g"),
]


@pytest.mark.parametrize("ref, target", RFC_3986_EXAMPLES)
def test_relative_references_resolve_as_rfc_3986_examples(ref, target):
    g = parse_turtle(f"<{ref}> <http://e.test/p> <http://e.test/o> .", base="http://a/b/c/d;p?q").graph
    (tr,) = g.triples()
    assert tr.subject == Iri(target)


@pytest.mark.parametrize("base, ref, target", [
    ("urn:ex:a/b", "c", "urn:ex:a/c"),
    ("urn:ex:a/b", "../d", "urn:/d"),
    ("foo://h/a/b", "../d", "foo://h/d"),
    ("tag:example.org,2020:a/b", "c", "tag:example.org,2020:a/c"),
])
def test_relative_references_resolve_against_a_base_of_any_scheme(base, ref, target):
    # RFC 3986 §5.2 does not depend on the scheme
    g = parse_turtle(f"<{ref}> <http://e.test/p> <http://e.test/o> .", base=base).graph
    (tr,) = g.triples()
    assert tr.subject == Iri(target)


def test_iris_resolved_against_a_urn_base_round_trip():
    out = parse_turtle("@base <urn:ex:a/b> . <c> <urn:ex:p> <../d> .")
    assert set(out.graph.triples()) == {Triple(Iri("urn:ex:a/c"), Iri("urn:ex:p"), Iri("urn:/d"))}
    assert parse_turtle(serialize_turtle(out.graph, out.prefixes)).graph == out.graph


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


def test_anonymous_blank_nodes_skip_labels_used_later_in_the_document():
    g = parse_turtle("@prefix ex: <http://example.test/t#> .\n"
                     "ex:s ex:p [ ex:q ex:o ] . _:b1 ex:r ex:t .").graph
    assert Triple(Iri(EX + "s"), Iri(EX + "p"), BlankNode("b2")) in g
    assert Triple(BlankNode("b2"), Iri(EX + "q"), Iri(EX + "o")) in g
    assert Triple(BlankNode("b1"), Iri(EX + "r"), Iri(EX + "t")) in g


def test_deeply_nested_blank_node_property_lists_parse():
    # the statement parser keeps its own stack of open '[', so nesting depth
    # is not bounded by the recursion limit, in object or subject position
    depth = 5000
    nested = "[ ex:p " * depth + "ex:o" + " ]" * depth
    head = "@prefix ex: <http://example.test/t#> .\n"
    g = parse_turtle(head + "ex:s ex:p " + nested + " .").graph
    assert len(g) == depth + 1
    assert Triple(Iri(EX + "s"), Iri(EX + "p"), BlankNode("b1")) in g
    assert Triple(BlankNode(f"b{depth}"), Iri(EX + "p"), Iri(EX + "o")) in g
    for tail, extra in (("", []), (" ex:q ex:r", [Triple(BlankNode("b1"), Iri(EX + "q"), Iri(EX + "r"))])):
        g = parse_turtle(head + nested + tail + " .").graph
        assert len(g) == depth + len(extra)
        assert Triple(BlankNode("b1"), Iri(EX + "p"), BlankNode("b2")) in g
        assert Triple(BlankNode(f"b{depth}"), Iri(EX + "p"), Iri(EX + "o")) in g
        assert all(t in g for t in extra)


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
    "doc, error",
    [
        # a grammar error on line 2, a lexical one on line 3
        ('@prefix ex: <http://e/> .\nex:s ex:p .\nex:a ex:b "abc\n',
         "line 3, column 15: newline inside single-line string literal (near '\\\\n')"),
        # a term error (unknown prefix) on line 1, a lexical one on line 2
        ("zz:s ex:p ex:o .\nex:a ex:b 1e5 .",
         "line 2, column 11: unsupported construct: numeric literal with exponent (near '1e5')"),
    ],
)
def test_a_lexical_error_anywhere_wins_over_an_earlier_error(doc, error):
    with pytest.raises(ParseError) as exc:
        parse_turtle(doc)
    assert str(exc.value) == error


@pytest.mark.parametrize(
    "doc, line, column",
    [
        ("_:-x <http://e.test/p> <http://e.test/o> .", 1, 1),
        ("_:.x <http://e.test/p> <http://e.test/o> .", 1, 1),
        ("<http://e.test/s> <http://e.test/p>\n  <http://e.test/\\u0020> .", 2, 3),
        ("<http://e.test/s> <http://e.test/p> <http://e.test/\\UFFFFFFFF> .", 1, 37),
        # surrogate code points, which no UTF-8 output can hold
        ('<http://e.test/s> <http://e.test/p> "a\\uD800b" .', 1, 37),
        ('<http://e.test/s> <http://e.test/p> "\\udfff" .', 1, 37),
        ('<http://e.test/s> <http://e.test/p> "\\U0000DBFF" .', 1, 37),
        ("<http://e.test/s> <http://e.test/p>\n  <http://e.test/\\uDC00> .", 2, 3),
        ("<http://e.test/s\\U0000D800> <http://e.test/p> <http://e.test/o> .", 1, 1),
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


def test_backslash_in_an_iri_is_written_escaped_and_reads_back():
    # written raw, <http://e.test/a\b> re-read as the invalid escape \b, and
    # the characters IRIREF excludes (here { } | ^ ` and U+0001) as errors
    doc = ("@prefix w: <http://e.test/w\\u005C/> .\n"
           "<http://e.test/a\\u005Cb> <http://e.test/p> w:x , <http://e.test/w\\u005C/y#z> ,"
           " <http://e.test/c\\u007B\\u007D\\u007C\\u005E\\u0060\\u0001d> .")
    out = parse_turtle(doc)
    assert Triple(Iri("http://e.test/a\\b"), Iri("http://e.test/p"), Iri("http://e.test/w\\/x")) in out.graph
    assert Triple(Iri("http://e.test/a\\b"), Iri("http://e.test/p"), Iri("http://e.test/c{}|^`\x01d")) in out.graph
    text = serialize_turtle(out.graph, out.prefixes)
    assert text == (
        "@prefix w: <http://e.test/w\\u005C/> .\n"
        "\n"
        "<http://e.test/a\\u005Cb> <http://e.test/p> <http://e.test/c\\u007B\\u007D\\u007C\\u005E\\u0060\\u0001d>,"
        " w:x, <http://e.test/w\\u005C/y#z> .\n"
    )
    again = parse_turtle(text)
    assert again.graph == out.graph
    assert again.prefixes.items() == out.prefixes.items()


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


# -- term ids ------------------------------------------------------------------
#
# A parse gives each term its id at the first emitted triple that uses it, in
# subject, predicate, object order (a [ ... ] list's own triples come first),
# exactly as inserting the emitted triples one by one would.  The digests
# below were recorded with a parser that did insert them one by one.


def parse_digest(text: str) -> str:
    """SHA-256 of one parse: its term table, sorted id-triples and all three views."""
    graph = parse_turtle(text).graph
    h = hashlib.sha256()
    h.update(repr([term_sort_key(graph.term(i)) for i in range(graph.term_count())]).encode())
    h.update(repr(sorted(graph.match_ids(None, None, None))).encode())
    for order in ("spo", "pos", "osp"):
        h.update(repr(graph.index_entries(order)).encode())
    return h.hexdigest()


HAND_WRITTEN = {
    "nested lists": """@prefix ex: <http://example.test/h#> .
ex:s ex:p [ ex:q [ ex:r ex:o ; ex:t "x" ] , ex:o2 ] ; ex:u ex:s .
[ ex:a ex:b ; ex:c [ ex:d ex:e ] ] ex:f ex:g , [ ] .
[ ex:h ex:i ] .
[] ex:j ex:k .
_:b1 ex:p [ ex:q _:b2 ] .
ex:n1 ex:p [ ex:p ex:n1 ; ex:z [ ex:y ex:n1 ] ] .
ex:aa ex:aa ex:aa .
ex:s2 ex:p2 [ ex:p3 ex:p2 ] ;; ex:p4 ex:o4 ; .
""",
    "prefix rebound": """@prefix ex: <http://example.test/one#> .
ex:s ex:p ex:o .
@prefix ex: <http://example.test/two#> .
ex:s ex:p ex:o , "1"^^ex:dt .
PREFIX ex: <http://example.test/three#>
ex:s ex:p "1"^^ex:dt , ex:o .
""",
    "base changed": """@base <http://example.test/a/> .
<s> <p> <o> .
BASE <http://example.test/b/>
<s> <p> <o> , <../up> , "x"^^<dt> .
@base <sub/> .
<s> <p> <o> , "x"^^<dt> .
""",
    "one IRI three ways": """@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix ex: <http://example.test/h#> .
ex:s a ex:C .
ex:s rdf:type ex:D .
ex:s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ex:E .
rdf:type ex:p <http://example.test/h#s> .
ex:s ex:p ex:s , <http://example.test/h#s> , rdf:type .
""",
    "literals": """@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex: <http://example.test/h#> .
ex:s ex:p "5" , 5 , "5"^^xsd:integer , "5"@en , true , "true"^^xsd:boolean ,
    "5"^^<http://www.w3.org/2001/XMLSchema#integer> , "5"@EN , '5' , 5.0 , -5 , false ,
    "5"^^xsd:string .
ex:t ex:q "5"@en , 5 , "5" .
""",
}

HAND_WRITTEN_DIGESTS = {
    "base changed": "d080ae83554f9b84cb188cfb4ea7ba8f4d2563a179a5bc1d4562454b0671cb65",
    "literals": "b9f46c5a326d318147617040aa24c46c970e37c648549545b759a4681ab0ca2f",
    "nested lists": "2099450daf83a9377a20fa0d304848e7efc294070f121667e02e57b4cac2de56",
    "one IRI three ways": "c9b1f52484cea38eeb598c2b86fcc3128f3bb06d96b1abc9dd75d43e114793bc",
    "prefix rebound": "5e65c06f02e956e47c78ef9e18ac68788c2dfc71951d6104ef9779ddcfc05533",
}

FIXTURE_DIGESTS = {
    "arabidopsis": "f7ea737e1ca67252a97b80908a5346714ad10e03b2a8295089e212540e29db07",
    "nc001": "eb81184be319c9c93f3c9695624f04b6985a0fd0a62a7fc8f310ac2bf669da5a",
    "nc002": "940961dc16a179645904c2ea2b93bbc48e08d32686b009b6163a1a34ad50fce8",
    "md001": "b88702029f4bb8d5ce1303179a99fecb3a86bdd517109e59f26751ad51f60c43",
    "cn001": "aae5ca7a7af72370dafb4c0534607b5f8a3787cdd0f2e59c2b4ea92bc3329d50",
    "cn002": "9a39b71a8a6de53b2109838fc6869211b1901623bd56ce8a7fc4039f63fbc334",
    "cn003": "a258afd9b46dda02416fe98512ed3619d149c87ca556f364fe54fce527d29ecc",
    "rf001": "14eaf4a6deb73052f2af3e91af5fe120e191a36b513f65fea5d87361d3ba6e16",
    "cs001": "efca7c120728281b0fe03b2f1a714f465b77fd09114df67d1aeef68beb0714d9",
    "cs002": "dda6d12c17d619f222b170ed191c035de3523e1b6291cd5b88940c7fe2f92a0a",
}

# the per-document digests of random_documents(), hashed in order
RANDOM_DOCUMENTS_DIGEST = "0045696f23fc7579d3e95e1db04ca1cf17f740259305e475a1582d9513672961"


def random_documents():
    """300 seeded random documents as serialize_turtle writes them; every
    other one with prefixes, so prefixed names and ^^xsd: datatypes occur."""
    rng = random.Random(9090)
    prefixes = PrefixMap({"a": Iri("http://example.test/doc#"), "b": Iri("http://example.test/doc/"),
                          "c": Iri("urn:doc:"), "xsd": Iri("http://www.w3.org/2001/XMLSchema#")})
    for i in range(300):
        g = Graph()
        for tr in oracles.random_document_triples(rng):
            g.insert(tr)
        yield serialize_turtle(g, prefixes if i % 2 else PrefixMap())


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_documents_keep_their_term_ids(name):
    assert parse_digest(HAND_WRITTEN[name]) == HAND_WRITTEN_DIGESTS[name]


@pytest.mark.parametrize("name", [entry.name for entry in manifest()])
def test_fixtures_keep_their_term_ids(name):
    assert parse_digest(fixture_text(name)) == FIXTURE_DIGESTS[name]


def test_random_documents_keep_their_term_ids():
    h = hashlib.sha256()
    for text in random_documents():
        h.update(parse_digest(text).encode())
    assert h.hexdigest() == RANDOM_DOCUMENTS_DIGEST


# the per-document digests of list_documents(), hashed in order
LIST_DOCUMENTS_DIGEST = "1aa36386427f81d40b63236f8a1f9c08054c43b91cf1f099ab02b4e7e8153262"

_LIST_TERMS = [
    ("ex:o", Iri(EX + "o")), ("ex:s", Iri(EX + "s")), ("<http://example.test/t#o>", Iri(EX + "o")),
    ("_:n1", BlankNode("n1")), ('"v"', Literal("v")), ('"v"@en', Literal("v", RDF_LANG_STRING, "en")),
    ("7", Literal("7", XSD_INTEGER)), ('"7"^^xsd:integer', Literal("7", XSD_INTEGER)),
]
_LIST_VERBS = [("ex:p", Iri(EX + "p")), ("ex:q", Iri(EX + "q")), ("a", RDF_TYPE)]


def list_document(rng: random.Random) -> tuple[str, set[Triple]]:
    """A seeded document of nested ``[ ... ]`` lists, in subject and object
    position, with the triples it states, worked out while it is written.

    The anonymous nodes are b1, b2, ... in the order their '[' is written;
    no document uses a ``_:b`` label, so those are the labels the reader
    gives them."""
    triples: set[Triple] = set()
    count = 0

    def anon(depth: int, empty: bool) -> tuple[str, BlankNode]:
        nonlocal count
        count += 1
        node = BlankNode(f"b{count}")
        if empty:
            return "[]", node
        return f"[ {predicate_objects(node, depth + 1)} ]", node

    def predicate_objects(subject, depth: int) -> str:
        parts = []
        for _ in range(rng.randint(1, 3)):
            verb, predicate = rng.choice(_LIST_VERBS)
            objs = []
            for _ in range(rng.randint(1, 3)):
                r = rng.random()
                text, obj = anon(depth, r < 0.1) if depth < 3 and r < 0.4 else rng.choice(_LIST_TERMS)
                triples.add(Triple(subject, predicate, obj))
                objs.append(text)
            parts.append(f"{verb} {' , '.join(objs)}")
        return " ; ".join(parts) + rng.choice(["", "", " ;", " ;;"])

    statements = ["@prefix ex: <http://example.test/t#> .",
                  "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> ."]
    for _ in range(rng.randint(1, 6)):
        r = rng.random()
        if r < 0.3:
            subject_text, subject = rng.choice(_LIST_TERMS[:4])
        else:
            subject_text, subject = anon(0, r < 0.4)
        if r >= 0.8:  # a list that is the whole statement
            statements.append(f"{subject_text} .")
        else:
            statements.append(f"{subject_text} {predicate_objects(subject, 0)} .")
    return "\n".join(statements), triples


def list_documents():
    rng = random.Random(4242)
    return [list_document(rng) for _ in range(300)]


def test_blank_node_property_lists_state_the_expected_triples():
    h = hashlib.sha256()
    for text, triples in list_documents():
        assert set(parse_turtle(text).graph.triples()) == triples, text
        h.update(parse_digest(text).encode())
    assert h.hexdigest() == LIST_DOCUMENTS_DIGEST


def test_parse_interns_each_distinct_term_once_and_never_inserts(monkeypatch):
    rng = random.Random(11)
    lines = ["@prefix ex: <http://example.test/w#> ."]
    for _ in range(400):
        lines.append(f"ex:s{rng.randrange(30)} ex:p{rng.randrange(5)} ex:o{rng.randrange(40)} , "
                     f"{rng.randrange(10)} , \"v{rng.randrange(10)}\"@en ;\n"
                     f"    a ex:C{rng.randrange(4)} ; ex:q [ ex:p{rng.randrange(5)} _:n{rng.randrange(9)} ] .")
    calls = Counter()
    intern, insert = Graph._intern, Graph.insert

    def counting_intern(self, term):
        calls["intern"] += 1
        return intern(self, term)

    def counting_insert(self, triple):
        calls["insert"] += 1
        return insert(self, triple)

    monkeypatch.setattr(Graph, "_intern", counting_intern)
    monkeypatch.setattr(Graph, "insert", counting_insert)
    graph = parse_turtle("\n".join(lines)).graph
    assert calls["insert"] == 0
    assert calls["intern"] == graph.term_count()
    assert 2 * graph.term_count() < len(graph)  # terms repeat
