"""Query subset: grammar, validation errors, evaluation, result serialization."""

import json
import random
from collections import Counter

import pytest

import oracles
from plantkb.errors import ParseError, UnknownPrefixError, UnsupportedConstructError
from plantkb.fixtures import fixture_graph
from plantkb.graph import Graph
from plantkb.sparql import ResultSet, evaluate, parse_query, serialize_results
from plantkb.terms import (
    RDF_LANG_STRING,
    BlankNode,
    Iri,
    Literal,
    Triple,
    Var,
    XSD_DECIMAL,
    XSD_INTEGER,
)

PLANT = "http://plantkb.example/arabidopsis#"
EX = "http://example.test/q#"


def iri(s):
    return Iri(EX + s)


def build(*triples):
    g = Graph()
    for t in triples:
        g.insert(t)
    return g


def rows_of(text, graph):
    return evaluate(parse_query(text), graph).rows


# -- grammar -------------------------------------------------------------------


def test_parse_basic_query():
    q = parse_query(
        "PREFIX ex: <http://example.test/q#>\n"
        "SELECT ?s ?o WHERE { ?s ex:p ?o . ?o a ex:C }"
    )
    assert q.select_vars == ["s", "o"]
    assert len(q.patterns) == 2
    assert q.patterns[0].predicate == iri("p")
    assert q.patterns[1].predicate == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    assert not q.distinct and q.limit is None and q.offset is None


def test_parse_modifiers_in_any_order():
    q = parse_query("SELECT ?s WHERE { ?s ?p ?o } OFFSET 2 LIMIT 5 ORDER BY DESC(?s)")
    assert q.limit == 5 and q.offset == 2 and q.order_by == ("s", "desc")
    q2 = parse_query("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ASC(?s) LIMIT 1")
    assert q2.order_by == ("s", "asc")


def test_where_keyword_is_optional():
    q = parse_query("SELECT ?s { ?s ?p ?o }")
    assert q.select_vars == ["s"]


def test_parse_star_and_distinct():
    q = parse_query("SELECT DISTINCT * WHERE { ?a ?b ?c }")
    assert q.distinct and q.select_vars == "*"


def test_dollar_variables_are_accepted():
    q = parse_query("SELECT $s WHERE { $s ?p ?o }")
    assert q.select_vars == ["s"]


def test_filter_forms_parse():
    for text in (
        "SELECT ?s WHERE { ?s ?p ?v . FILTER(?v > 3) }",
        "SELECT ?s WHERE { ?s ?p ?v . FILTER (?v != <http://example.test/q#o>) }",
        'SELECT ?s WHERE { ?s ?p ?v . FILTER regex(?v, "^a") }',
        'SELECT ?s WHERE { ?s ?p ?v . FILTER(regex(?v, "b")) }',
    ):
        q = parse_query(text)
        assert len(q.filters) == 1


def test_unsupported_keywords_rejected():
    for text in (
        "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r } }",
        "SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?q ?o } }",
        "ASK { ?s ?p ?o }",
        "SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s",
        "BASE <http://example.test/> SELECT ?s WHERE { ?s ?p ?o }",
    ):
        with pytest.raises(UnsupportedConstructError):
            parse_query(text)


def test_unknown_prefix_rejected():
    with pytest.raises(UnknownPrefixError):
        parse_query("SELECT ?s WHERE { ?s zz:p ?o }")


def test_selected_variable_must_occur_in_patterns():
    with pytest.raises(ParseError):
        parse_query("SELECT ?ghost WHERE { ?s ?p ?o }")
    with pytest.raises(ParseError):
        parse_query("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?ghost")


def test_assorted_parse_errors():
    for text in (
        "SELECT ?s WHERE { ?s ?p ?o ",  # unclosed block
        "SELECT WHERE { ?s ?p ?o }",  # no variables
        "SELECT ?s WHERE { ?s ?p ?o } LIMIT -1",
        "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s ORDER BY ?s",
        "SELECT ?s WHERE { ?s ?p ?o } extra",
        'SELECT ?s WHERE { ?s ?p ?v . FILTER regex(?v, "[unclosed") }',
        "SELECT ?s WHERE { ?s ?p ?v . FILTER(?v > ?w) }",  # rhs must be constant
    ):
        with pytest.raises(ParseError):
            parse_query(text)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("SELECT ?x WHERE { _:b. ?p ?x }", 1, 22),
        ("SELECT ?x WHERE { ?x ?p +. }", 1, 25),
        ("SELECT ?x WHERE { ?x ?p ?o } LIMIT +.", 1, 36),
        ("SELECT ?x WHERE { _:-x ?p ?x }", 1, 19),
        ("SELECT ?1 WHERE { ?1 ?p ?o }", 1, 8),
        ('SELECT ?x WHERE { ?x ?p ?o . FILTER regex(?o, "a{4294967296}") }', 1, 47),
        ('SELECT ?x WHERE { ?x ?p "a\\uD800" }', 1, 25),
        ("SELECT ?x WHERE { ?x ?p <http://e/\\U0000DFFF> }", 1, 25),
    ],
)
def test_malformed_terms_raise_parse_error_at_the_token(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize(
    "text, error",
    [
        # a grammar error on line 1, a lexical one on line 2
        ('SELECT ?x WHERE { ?x ?p . }\nLIMIT "abc',
         "line 2, column 7: unterminated string literal (near '\"abc')"),
        # a term error (unknown prefix) on line 1, a lexical one on line 2
        ("SELECT ?x WHERE { zz:a ?p ?o }\nLIMIT 1e5",
         "line 2, column 7: unsupported construct: numeric literal with exponent (near '1e5')"),
    ],
)
def test_a_lexical_error_anywhere_wins_over_an_earlier_error(text, error):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert str(exc.value) == error


def test_parse_error_position_is_reported():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT ?s WHERE { ?s ?p }")
    assert exc.value.line == 1 and exc.value.column == 25
    assert "line 1, column 25" in str(exc.value)


# -- evaluation ----------------------------------------------------------------


def test_join_on_fixture_subclasses():
    g = fixture_graph("arabidopsis")
    rows = rows_of(
        "PREFIX plant: <http://plantkb.example/arabidopsis#>\n"
        "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
        "SELECT ?x WHERE { ?x rdfs:subClassOf plant:BiologicalProperty }",
        g,
    )
    got = {r["x"].local_name() for r in rows}
    assert got == {"GeneticResistance", "RegenerativeAbility", "SeedCompatibility", "Tolerance", "Viability"}


def test_shared_variable_join():
    g = build(
        Triple(iri("a"), iri("p"), iri("b")),
        Triple(iri("b"), iri("q"), iri("c")),
        Triple(iri("x"), iri("p"), iri("y")),
    )
    rows = rows_of(
        f"SELECT ?s ?t WHERE {{ ?s <{EX}p> ?m . ?m <{EX}q> ?t }}", g
    )
    assert [(r["s"], r["t"]) for r in rows] == [(iri("a"), iri("c"))]


def test_empty_result_when_pattern_cannot_match():
    g = build(Triple(iri("a"), iri("p"), iri("b")))
    assert rows_of(f"SELECT ?s WHERE {{ ?s <{EX}nope> ?o }}", g) == []


def test_order_by_groups_numbers_before_text_before_iris():
    p = iri("p")
    g = build(
        Triple(iri("s1"), p, Literal("10", XSD_INTEGER)),
        Triple(iri("s2"), p, Literal("9.5", XSD_DECIMAL)),
        Triple(iri("s3"), p, Literal("text")),
        Triple(iri("s4"), p, iri("thing")),
    )
    rows = rows_of(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v }} ORDER BY ?v", g)
    values = [r["v"] for r in rows]
    assert values == [
        Literal("9.5", XSD_DECIMAL),
        Literal("10", XSD_INTEGER),
        Literal("text"),
        iri("thing"),
    ]
    rows = rows_of(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v }} ORDER BY DESC(?v)", g)
    assert [r["v"] for r in rows] == list(reversed(values))


def test_order_by_puts_iris_before_blank_nodes():
    p = iri("p")
    g = build(
        Triple(iri("s1"), p, BlankNode("b")),
        Triple(iri("s2"), p, iri("z")),
        Triple(iri("s3"), p, BlankNode("a")),
        Triple(iri("s4"), p, Literal("text")),
    )
    query = parse_query(f"SELECT ?v WHERE {{ ?s <{EX}p> ?v }} ORDER BY ?v")
    assert serialize_results(evaluate(query, g), "csv") == (
        "v\r\ntext\r\nhttp://example.test/q#z\r\n_:a\r\n_:b\r\n")


def test_limit_is_a_prefix_of_the_full_result():
    g = fixture_graph("arabidopsis")
    base = "PREFIX owl: <http://www.w3.org/2002/07/owl#> SELECT ?c WHERE { ?c a owl:Class } ORDER BY ?c"
    full = [r["c"] for r in rows_of(base, g)]
    for k in (0, 1, 5, 17, 99):
        assert [r["c"] for r in rows_of(f"{base} LIMIT {k}", g)] == full[:k]
    assert [r["c"] for r in rows_of(f"{base} OFFSET 3 LIMIT 2", g)] == full[3:5]
    assert rows_of(f"{base} OFFSET 99", g) == []


def test_distinct_keeps_first_occurrence():
    p, q = iri("p"), iri("q")
    g = build(
        Triple(iri("a"), p, iri("v")),
        Triple(iri("a"), q, iri("v")),
        Triple(iri("b"), p, iri("w")),
    )
    rows = rows_of("SELECT DISTINCT ?o WHERE { ?s ?p ?o } ORDER BY ?o", g)
    assert [r["o"] for r in rows] == [iri("v"), iri("w")]


def test_star_projection_uses_first_occurrence_order():
    g = build(Triple(iri("a"), iri("p"), iri("b")))
    rs = evaluate(parse_query(f"SELECT * WHERE {{ ?z <{EX}p> ?a }}"), g)
    assert rs.vars == ["z", "a"]


def test_filter_regex_only_matches_literals():
    p = iri("p")
    g = build(
        Triple(iri("s1"), p, Literal("alpha")),
        Triple(iri("s2"), p, iri("alpha")),
    )
    rows = rows_of(f'SELECT ?v WHERE {{ ?s <{EX}p> ?v . FILTER regex(?v, "^a") }}', g)
    assert [r["v"] for r in rows] == [Literal("alpha")]


@pytest.mark.parametrize("condition", ["(?z = 1)", ' regex(?z, "a")'])
def test_filter_on_a_variable_no_pattern_binds_drops_every_row(condition):
    # SPARQL 1.1 section 17.2: an unbound variable makes the filter an error,
    # and a row whose filter errs is dropped
    g = build(Triple(iri("s"), iri("p"), Literal("a")),
              Triple(iri("s"), iri("q"), Literal("1", XSD_INTEGER)))
    assert len(rows_of("SELECT ?x WHERE { ?x ?p ?o }", g)) == 2
    assert rows_of(f"SELECT ?x WHERE {{ ?x ?p ?o FILTER{condition} }}", g) == []


def test_numeric_filters_compare_across_datatypes():
    p = iri("p")
    g = build(
        Triple(iri("s1"), p, Literal("5", XSD_INTEGER)),
        Triple(iri("s2"), p, Literal("5.0", XSD_DECIMAL)),
        Triple(iri("s3"), p, Literal("books")),
    )
    eq = rows_of(f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER(?v = 5) }}", g)
    assert {r["s"] for r in eq} == {iri("s1"), iri("s2")}
    # ordering comparisons silently drop non-numeric bindings
    gt = rows_of(f"SELECT ?s WHERE {{ ?s <{EX}p> ?v . FILTER(?v >= 5) }}", g)
    assert {r["s"] for r in gt} == {iri("s1"), iri("s2")}


_DOUBLE = Iri("http://www.w3.org/2001/XMLSchema#double")
# two values of each operand kind: integer, decimal, double, the double NaN,
# plain string, language-tagged string, IRI, blank node
_OPERANDS = [
    Literal("2", XSD_INTEGER), Literal("-7", XSD_INTEGER),
    Literal("2" + "0" * 4999, XSD_INTEGER),  # 2×10^4999: more digits than int() reads
    Literal("2.0", XSD_DECIMAL), Literal("0.5", XSD_DECIMAL),
    Literal("2e0", _DOUBLE), Literal("-1.5E1", _DOUBLE),
    Literal("NaN", _DOUBLE), Literal("nan", _DOUBLE),
    Literal("2"), Literal("b"),
    Literal("b", RDF_LANG_STRING, "en"), Literal("2", RDF_LANG_STRING, "fr"),
    iri("o2"), iri("b"),
    BlankNode("b1"), BlankNode("b2"),
]


def _constant_text(term):
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if term.language is not None:
        return f'"{term.lexical}"@{term.language}'
    return f'"{term.lexical}"^^<{term.datatype.value}>'


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
def test_each_comparison_agrees_with_the_oracle_on_every_pair_of_operand_kinds(op):
    g = build(*(Triple(iri(f"s{i}"), iri("p"), v) for i, v in enumerate(_OPERANDS)))
    for const in _OPERANDS:
        text = f"SELECT ?s WHERE {{ ?s <{EX}p> ?v FILTER(?v {op} {_constant_text(const)}) }}"
        got = {r["s"] for r in rows_of(text, g)}
        want = {iri(f"s{i}") for i, v in enumerate(_OPERANDS) if oracles.filter_passes(op, v, const)}
        assert got == want, text


@pytest.mark.parametrize("pattern", ["2", "^b$", "N", "o2", "b1", "."])
def test_regex_agrees_with_the_oracle_on_every_operand_kind(pattern):
    g = build(*(Triple(iri(f"s{i}"), iri("p"), v) for i, v in enumerate(_OPERANDS)))
    got = {r["s"] for r in rows_of(f'SELECT ?s WHERE {{ ?s <{EX}p> ?v FILTER regex(?v, "{pattern}") }}', g)}
    want = {iri(f"s{i}") for i, v in enumerate(_OPERANDS) if oracles.filter_passes("regex", v, pattern)}
    assert got == want


def test_random_queries_match_enumeration_oracle():
    rng = random.Random(31337)
    for _ in range(200):
        triples, text, patterns, filters, select = oracles.random_query_case(rng)
        g = build(*triples)
        rs = evaluate(parse_query(text), g)
        got = Counter(tuple(row[v] for v in select) for row in rs.rows)
        want = oracles.enumerate_select(triples, patterns, filters, select)
        assert got == want, text


def test_pattern_order_never_changes_results():
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        triples, text, patterns, filters, select = oracles.random_query_case(rng)
        if len(patterns) < 2:
            continue
        checked += 1
        g = build(*triples)
        baseline = Counter(
            tuple(row[v] for v in select)
            for row in evaluate(parse_query(text), g).rows
        )
        head, _, tail = text.partition("{")
        body = tail.rsplit("}", 1)[0]
        parts = [p.strip() for p in body.split(" . ")]
        rng.shuffle(parts)
        shuffled = f"{head}{{ {' . '.join(parts)} }}"
        got = Counter(
            tuple(row[v] for v in select)
            for row in evaluate(parse_query(shuffled), g).rows
        )
        assert got == baseline, f"{text}  vs  {shuffled}"


# -- serialization ---------------------------------------------------------------


def test_sparql_json_shape():
    rs = ResultSet(
        vars=["a", "b", "c"],
        rows=[{
            "a": iri("thing"),
            "b": Literal("5", XSD_INTEGER),
            "c": BlankNode("n1"),
        }],
    )
    text = serialize_results(rs, "sparql-json")
    assert not text.endswith("\n")
    data = json.loads(text)
    assert data["head"] == {"vars": ["a", "b", "c"]}
    assert data["results"]["bindings"] == [{
        "a": {"type": "uri", "value": EX + "thing"},
        "b": {"type": "literal", "value": "5",
              "datatype": "http://www.w3.org/2001/XMLSchema#integer"},
        "c": {"type": "bnode", "value": "n1"},
    }]


def test_sparql_json_language_and_plain_literals():
    from plantkb.terms import RDF_LANG_STRING

    rs = ResultSet(vars=["v"], rows=[
        {"v": Literal("hallo", RDF_LANG_STRING, "de")},
        {"v": Literal("plain")},
    ])
    bindings = json.loads(serialize_results(rs))["results"]["bindings"]
    assert bindings[0]["v"] == {"type": "literal", "value": "hallo", "xml:lang": "de"}
    assert bindings[1]["v"] == {"type": "literal", "value": "plain"}  # no datatype key


def test_csv_uses_crlf_and_bare_terms():
    rs = ResultSet(
        vars=["x", "y"],
        rows=[
            {"x": iri("a"), "y": Literal("says \"hi\", twice")},
            {"x": BlankNode("b0"), "y": Literal("2.5", XSD_DECIMAL)},
        ],
    )
    text = serialize_results(rs, "csv")
    assert text == (
        "x,y\r\n"
        f'{EX}a,"says ""hi"", twice"\r\n'
        "_:b0,2.5\r\n"
    )


def test_unknown_result_format_rejected():
    with pytest.raises(ValueError):
        serialize_results(ResultSet(vars=[], rows=[]), "xml")
