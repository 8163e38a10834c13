"""Query engine: pinned row order, store reads per join step, JSON writer layout."""

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plantkb.fixtures import fixture_graph
from plantkb.graph import Graph
from plantkb.reasoner import materialize
from plantkb.sparql import ResultSet, evaluate, parse_query, serialize_results
from plantkb.terms import (
    RDF_LANG_STRING,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
)

EX = "http://example.test/q#"


def build(triples):
    # insertion order fixes the term ids and so the row order; sort so the
    # order does not depend on the process's string hash seed
    g = Graph()
    for t in sorted(triples, key=repr):
        g.insert(t)
    return g


# -- row order -----------------------------------------------------------------


def _query_variants(rng, text, patterns):
    """The query plain, with DISTINCT, with ORDER BY/LIMIT/OFFSET and with
    its patterns permuted."""
    yield text
    yield text.replace("SELECT ", "SELECT DISTINCT ", 1)
    names = list(dict.fromkeys(s for pat in patterns for s in pat if isinstance(s, str)))
    var = rng.choice(names)
    order = f"ORDER BY ?{var}" if rng.random() < 0.5 else f"ORDER BY DESC(?{var})"
    yield f"{text} {order} LIMIT {rng.randint(0, 12)} OFFSET {rng.randint(0, 4)}"
    head, _, tail = text.partition("{")
    parts = [p.strip() for p in tail.rsplit("}", 1)[0].split(" . ")]
    rng.shuffle(parts)
    yield f"{head}{{ {' . '.join(parts)} }}"


def test_row_order_of_1000_random_queries_is_pinned():
    # The enumeration oracle compares multisets; this digest pins the exact
    # rows, their order and both serializations.
    rng = random.Random(5150)
    digest = hashlib.sha256()
    queries = 0
    for _ in range(250):
        triples, text, patterns, _, _ = oracles.random_query_case(rng)
        g = build(triples)
        for variant in _query_variants(rng, text, patterns):
            rs = evaluate(parse_query(variant), g)
            digest.update(serialize_results(rs, "sparql-json").encode("utf-8"))
            digest.update(serialize_results(rs, "csv").encode("utf-8"))
            queries += 1
    assert queries == 1000
    assert digest.hexdigest() == ROW_ORDER_DIGEST


def _chain_query(rng, triples):
    """A 1-3 pattern chain join over a document graph, mostly variables, so
    that most queries have many rows; with random filter and modifiers."""
    predicates = sorted({t.predicate for t in triples}, key=repr)
    chain = ["a", "b", "c", "d"]
    parts = []
    for i in range(rng.randint(1, 3)):
        p = f"<{rng.choice(predicates).value}>" if rng.random() < 0.6 else f"?p{i}"
        parts.append(f"?{chain[i]} {p} ?{chain[i + 1]}")
    names = chain[: len(parts) + 1]
    if rng.random() < 0.4:
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        parts.append(f"FILTER(?{rng.choice(names)} {op} {rng.randint(-100, 100)})")
    elif rng.random() < 0.3:
        parts.append(f'FILTER regex(?{rng.choice(names)}, "{rng.choice(["e", "^a", "t"])}")')
    select = "*" if rng.random() < 0.3 else " ".join(
        f"?{v}" for v in rng.sample(names, rng.randint(1, len(names))))
    distinct = "DISTINCT " if rng.random() < 0.4 else ""
    text = f"SELECT {distinct}{select} WHERE {{ {' . '.join(parts)} }}"
    if rng.random() < 0.5:
        var = rng.choice(names)
        text += f" ORDER BY DESC(?{var})" if rng.random() < 0.5 else f" ORDER BY ?{var}"
    if rng.random() < 0.4:
        text += f" LIMIT {rng.randint(0, 30)}"
    if rng.random() < 0.3:
        text += f" OFFSET {rng.randint(0, 10)}"
    return text


def test_row_order_of_500_chain_joins_is_pinned():
    rng = random.Random(8086)
    digest = hashlib.sha256()
    rows = 0
    for _ in range(500):
        triples = oracles.random_document_triples(rng, 80)
        rs = evaluate(parse_query(_chain_query(rng, triples)), build(triples))
        digest.update(serialize_results(rs, "sparql-json").encode("utf-8"))
        digest.update(serialize_results(rs, "csv").encode("utf-8"))
        rows += len(rs.rows)
    assert rows == CHAIN_ROWS
    assert digest.hexdigest() == CHAIN_DIGEST


# -- store reads ---------------------------------------------------------------


def _count_reads(monkeypatch) -> list:
    """The arguments of every ``Graph.match_ids`` call from here on."""
    reads = []
    real = Graph.match_ids

    def counting(self, *args, **kwargs):
        reads.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "match_ids", counting)
    return reads


def test_filter_runs_at_the_step_that_binds_its_variable(monkeypatch):
    part, score = Iri(EX + "hasPart"), Iri(EX + "score")
    triples = [Triple(Iri(f"{EX}n{i}"), score, Literal(str(i), XSD_INTEGER)) for i in range(30)]
    triples += [Triple(Iri(f"{EX}w{i}"), part, Iri(f"{EX}n{i % 30}")) for i in range(60)]
    g = build(triples)
    reads = _count_reads(monkeypatch)
    rows = evaluate(parse_query(
        f"SELECT ?x ?s WHERE {{ ?x <{part.value}> ?y . ?y <{score.value}> ?s FILTER(?s > 20) }}"
    ), g).rows
    # the score pattern is read once; 9 of its 30 rows pass the filter and
    # each of them reads the hasPart pattern once
    assert len(reads) == 1 + 9
    assert sorted(int(r["s"].lexical) for r in rows) == sorted([*range(21, 30)] * 2)


def _served_arabidopsis() -> Graph:
    """The snapshot ``serve --materialize`` serves for the arabidopsis fixture."""
    g = fixture_graph("arabidopsis")
    materialize(g)
    return g.snapshot()


def test_limit_stops_the_join_at_the_rows_it_needs(monkeypatch):
    g = _served_arabidopsis()
    assert len(g) == 133
    reads = _count_reads(monkeypatch)
    # the first row of each step's first read is enough: one read per step,
    # where building every row reads 1 + 133 + 133 * 133 = 17,823 times
    rows = evaluate(parse_query("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . ?g ?h ?i } LIMIT 1"), g).rows
    assert len(rows) == 1 and len(reads) == 3
    # rows 6-8 of the product lie in the second step's first read (133
    # rows), where building every row reads 1 + 133 = 134 times
    reads.clear()
    rows = evaluate(parse_query("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f } OFFSET 5 LIMIT 3"), g).rows
    assert len(rows) == 3 and len(reads) == 2


def test_limit_offset_and_distinct_slice_the_unlimited_rows():
    g = _served_arabidopsis()
    text = "SELECT {}?a ?f WHERE {{ ?a ?b ?c . ?c ?e ?f }}"
    rows = evaluate(parse_query(text.format("")), g).rows
    firsts = []
    for row in rows:
        if row not in firsts:
            firsts.append(row)
    assert (len(rows), len(firsts)) == (182, 136)
    for modifiers, start, end in (("", 0, None), (" LIMIT 0", 0, 0), (" LIMIT 7", 0, 7), (" OFFSET 3", 3, None),
                                  (" OFFSET 11 LIMIT 5", 11, 16), (" OFFSET 130 LIMIT 60", 130, 190)):
        assert evaluate(parse_query(text.format("") + modifiers), g).rows == rows[start:end], modifiers
        assert evaluate(parse_query(text.format("DISTINCT ") + modifiers), g).rows == firsts[start:end], modifiers


# -- SPARQL JSON writer ----------------------------------------------------------


def _json_dumps_oracle(rs):
    """The SPARQL 1.1 JSON results layout as the json module writes it."""
    def term(t):
        if isinstance(t, Iri):
            return {"type": "uri", "value": t.value}
        if isinstance(t, BlankNode):
            return {"type": "bnode", "value": t.label}
        obj = {"type": "literal", "value": t.lexical}
        if t.language is not None:
            obj["xml:lang"] = t.language
        elif t.datatype.value != "http://www.w3.org/2001/XMLSchema#string":
            obj["datatype"] = t.datatype.value
        return obj

    payload = {
        "head": {"vars": list(rs.vars)},
        "results": {"bindings": [
            {name: term(row[name]) for name in rs.vars if name in row} for row in rs.rows
        ]},
    }
    return json.dumps(payload, indent=2)


def _or_none(build):
    def make(*args):
        try:
            return build(*args)
        except ValueError:
            return None
    return make


# quotes, backslashes, control characters and non-ASCII all need escaping
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\there", "line\nbreak", "\x00\x1f\x7f", "naïve", "🌱"])
_IRIS = st.builds(_or_none(lambda v: Iri("http://example.test/" + v)), _TEXT)
_BLANKS = st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,4}", fullmatch=True).map(BlankNode)
_LITERALS = st.one_of(
    st.builds(Literal, _TEXT),
    st.builds(_or_none(lambda v, tag: Literal(v, RDF_LANG_STRING, language=tag)),
              _TEXT, st.from_regex(r"[a-z]{1,3}(-[A-Za-z0-9]{1,4})?", fullmatch=True)),
    st.builds(lambda n: Literal(str(n), XSD_INTEGER), st.integers()),
    st.builds(lambda n: Literal(str(n), XSD_DECIMAL), st.decimals(allow_nan=False, allow_infinity=False, places=2)),
    st.builds(_or_none(lambda v, dt: Literal(v, dt)), _TEXT, _IRIS.filter(lambda i: i is not None)),
)
_TERMS = st.one_of(_IRIS, _BLANKS, _LITERALS).filter(lambda t: t is not None)


@st.composite
def result_sets(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
                          unique=True, max_size=4))
    keys = st.sampled_from(names) if names else st.nothing()
    # a small pool of terms, so that the writer's per-term memo is exercised
    pool = draw(st.lists(_TERMS, min_size=1, max_size=6))
    rows = draw(st.lists(st.dictionaries(keys, st.sampled_from(pool)), max_size=8))
    return ResultSet(vars=names, rows=rows)


@settings(max_examples=300, deadline=None)
@given(result_sets())
def test_sparql_json_writer_matches_json_dumps(rs):
    assert serialize_results(rs, "sparql-json") == _json_dumps_oracle(rs)


def test_sparql_json_writer_edge_shapes():
    a = Iri(EX + "a")
    for rs in (ResultSet(vars=[], rows=[]), ResultSet(vars=[], rows=[{}]),
               ResultSet(vars=["x"], rows=[]), ResultSet(vars=["x", "y"], rows=[{}, {"y": a}])):
        assert serialize_results(rs, "sparql-json") == _json_dumps_oracle(rs)


# recorded with the row-at-a-time evaluator that preceded the id-level plan
ROW_ORDER_DIGEST = "04b1e774f9ba61cba16257871303ad41c969dadefcf4533478c50d40d0ea1abd"
CHAIN_ROWS = 7060
CHAIN_DIGEST = "ede4ae25587a98d724eb4fe3b7fe9343fe586e286524d563041f3fc6c978e2f6"
