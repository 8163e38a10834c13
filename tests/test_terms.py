"""Term model: identity, validation, ordering."""

import random

import pytest

from plantkb.errors import MalformedTripleError
from plantkb.terms import (
    RDF_LANG_STRING,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Triple,
    TriplePattern,
    Var,
    term_sort_key,
)

EX = "http://example.test/ns#"


def test_iri_rejects_empty_and_unsafe_characters():
    with pytest.raises(ValueError):
        Iri("")
    for bad in ("http://a b", 'http://a"b', "http://a<b", "http://a>b", "http://a\nb"):
        with pytest.raises(ValueError):
            Iri(bad)


def test_iri_local_name():
    assert Iri(EX + "Seed").local_name() == "Seed"
    assert Iri("http://example.test/path/leaf").local_name() == "leaf"
    # '#' wins over '/' because it is tried first
    assert Iri("http://example.test/a/b#frag").local_name() == "frag"
    assert Iri("urn:isbn:0451450523").local_name() == "urn:isbn:0451450523"


def test_blank_node_label_validation():
    BlankNode("b1")
    BlankNode("a.b-c_d")
    for bad in ("", "-x", ".x", "x.", "a b", "b1\n"):
        with pytest.raises(ValueError):
            BlankNode(bad)


def test_literal_identity_includes_datatype_and_language():
    assert Literal("5", XSD_INTEGER) != Literal("5", XSD_STRING)
    assert Literal("5", XSD_INTEGER) != Literal("5", XSD_DECIMAL)
    assert Literal("hi", RDF_LANG_STRING, "en") != Literal("hi", RDF_LANG_STRING, "de")
    assert Literal("hi") == Literal("hi", XSD_STRING)
    assert len({Literal("1", XSD_INTEGER), Literal("1", XSD_INTEGER)}) == 1


def test_language_tag_rules():
    lit = Literal("hallo", RDF_LANG_STRING, "de")
    assert lit.language == "de"
    with pytest.raises(ValueError):
        Literal("x", XSD_STRING, language="en")  # tag without langString
    with pytest.raises(ValueError):
        Literal("x", RDF_LANG_STRING)  # langString without tag
    with pytest.raises(ValueError):
        Literal("x", RDF_LANG_STRING, "en_US")  # underscore is not valid
    with pytest.raises(ValueError):
        Literal("x", RDF_LANG_STRING, "en\n")  # the tag must end the string


def test_numeric_lexical_validation():
    Literal("-42", XSD_INTEGER)
    Literal("3.14", XSD_DECIMAL)
    Literal(".5", XSD_DECIMAL)
    with pytest.raises(ValueError):
        Literal("4.2", XSD_INTEGER)
    with pytest.raises(ValueError):
        Literal("abc", XSD_DECIMAL)
    with pytest.raises(ValueError):
        Literal("1e3", XSD_DECIMAL)  # exponents are not decimal syntax
    # a trailing newline is not part of either lexical space
    for lexical, datatype in (("5\n", XSD_INTEGER), ("1.5\n", XSD_DECIMAL)):
        with pytest.raises(ValueError):
            Literal(lexical, datatype)
    with pytest.raises(ValueError):
        Literal("nope", XSD_DOUBLE)


def test_numeric_value():
    from decimal import Decimal

    assert Literal("7", XSD_INTEGER).numeric_value() == 7
    assert Literal("2.50", XSD_DECIMAL).numeric_value() == Decimal("2.50")
    assert Literal("1.5e2", XSD_DOUBLE).numeric_value() == 150.0
    assert Literal("NaN", XSD_DOUBLE).numeric_value() is None
    assert Literal("7").numeric_value() is None  # plain string


def test_var_name_validation():
    Var("x")
    Var("_private9")
    for bad in ("", "9x", "a-b", "a b", "x\n"):
        with pytest.raises(ValueError):
            Var(bad)


def test_triple_position_validation():
    s, p, o = Iri(EX + "s"), Iri(EX + "p"), Literal("v")
    Triple(s, p, o)
    Triple(BlankNode("b1"), p, s)
    with pytest.raises(MalformedTripleError):
        Triple(o, p, s)  # literal subject
    with pytest.raises(MalformedTripleError):
        Triple(s, BlankNode("b1"), o)  # blank predicate
    with pytest.raises(MalformedTripleError):
        Triple(s, p, Var("x"))  # variable is not a term


def test_pattern_variables_order_and_dedup():
    x, y = Var("x"), Var("y")
    assert TriplePattern(x, y, x).variables() == ["x", "y"]
    assert TriplePattern(None, None, y).variables() == ["y"]
    assert TriplePattern(Iri(EX + "s"), None, None).variables() == []


def test_term_sort_key_total_order():
    terms = [
        Iri(EX + "b"),
        Iri(EX + "a"),
        BlankNode("z"),
        BlankNode("a"),
        Literal("a"),
        Literal("1", XSD_INTEGER),
    ]
    rng = random.Random(3)
    expect = sorted(terms, key=term_sort_key)
    # IRIs first, then blank nodes, then literals
    assert [type(t).__name__ for t in expect] == ["Iri", "Iri", "BlankNode", "BlankNode", "Literal", "Literal"]
    for _ in range(10):
        rng.shuffle(terms)
        assert sorted(terms, key=term_sort_key) == expect


def test_term_sort_key_distinguishes_datatype_and_language():
    a = Literal("5", XSD_INTEGER)
    b = Literal("5", XSD_STRING)
    c = Literal("5", RDF_LANG_STRING, "en")
    keys = {term_sort_key(t) for t in (a, b, c)}
    assert len(keys) == 3
