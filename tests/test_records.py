"""The record types: construction, repr, equality, hashing, copying, pickling.

Every expected ``repr`` here is the text the dataclass-based types printed.
A frozen record hashes as the tuple of its fields, as a frozen dataclass
did, so set and dict orders (and every digest built on them) stay the same;
a mutable record is unhashable.
"""

import copy
import pickle

import pytest

from plantkb import (
    BlankNode,
    CheckConfig,
    ClassTree,
    DatasetConfig,
    Diagnostic,
    FilterExpr,
    FixtureManifest,
    Graph,
    Inconsistency,
    InconsistencyKind,
    Individual,
    InferenceResult,
    Iri,
    Literal,
    MatchStats,
    OntologyClass,
    ParseOutcome,
    PrefixMap,
    PropertyDecl,
    PropertyKind,
    Query,
    ResultSet,
    RuleId,
    Severity,
    Triple,
    TriplePattern,
    Var,
)
from plantkb.lexer import Lexer
from plantkb.terms import RDF_LANG_STRING, XSD_INTEGER, XSD_STRING

X, Y = Iri("http://e/x"), Iri("http://e/y")
FIVE = Literal("5", XSD_INTEGER)
T = Triple(X, Y, FIVE)
INT = "http://www.w3.org/2001/XMLSchema#integer"

FROZEN = [
    (X, "<http://e/x>"),
    (BlankNode("b1"), "_:b1"),
    (FIVE, f'"5"^^<{INT}>'),
    (Literal("hi", RDF_LANG_STRING, "en"), '"hi"@en'),
    (Literal("s"), '"s"'),
    (T, f'(<http://e/x> <http://e/y> "5"^^<{INT}>)'),
    (Var("v"), "?v"),
    (TriplePattern(Var("s"), Y), "TriplePattern(subject=?s, predicate=<http://e/y>, object=None)"),
    (Diagnostic("CN001", Severity.ERROR, X, "msg"),
     "Diagnostic(code='CN001', severity=<Severity.ERROR: 'error'>, subject=<http://e/x>, message='msg')"),
    (OntologyClass(X, "X", frozenset({Y})),
     "OntologyClass(iri=<http://e/x>, label='X', direct_supers=frozenset({<http://e/y>}))"),
    (PropertyDecl(Y, PropertyKind.OBJECT, frozenset(), frozenset({X}), frozenset({"transitive"}), None),
     "PropertyDecl(iri=<http://e/y>, kind=<PropertyKind.OBJECT: 'object-property'>, domain=frozenset(), "
     "range=frozenset({<http://e/x>}), characteristics=frozenset({'transitive'}), inverse_of=None)"),
    (Individual(X, frozenset({Y})), "Individual(iri=<http://e/x>, asserted_types=frozenset({<http://e/y>}))"),
    (Inconsistency(InconsistencyKind.SUBCLASS_CYCLE, (X, Y)),
     "Inconsistency(kind=<InconsistencyKind.SUBCLASS_CYCLE: 'subclass-cycle'>, "
     "members=(<http://e/x>, <http://e/y>), witness=None)"),
    (Inconsistency(InconsistencyKind.DISJOINTNESS_VIOLATION, (X,), T),
     "Inconsistency(kind=<InconsistencyKind.DISJOINTNESS_VIOLATION: 'disjointness-violation'>, "
     f'members=(<http://e/x>,), witness=(<http://e/x> <http://e/y> "5"^^<{INT}>))'),
    (FixtureManifest("clean", "clean.ttl", frozenset({"CN001"})),
     "FixtureManifest(name='clean', path='clean.ttl', expected_error_codes=frozenset({'CN001'}))"),
]

# ClassTree is frozen, but its children field is a dict, so hashing it fails
TREE = (ClassTree(X, {X: (Y,)}), "ClassTree(root=<http://e/x>, children={<http://e/x>: (<http://e/y>,)})")

MUTABLE = [
    (MatchStats("spo"), "MatchStats(index_used='spo', entries_visited=0)"),
    (Lexer({".": "dot"}, {"A": "a"}, variables=True),
     "Lexer(punctuation={'.': 'dot'}, keywords={'A': 'a'}, unsupported={}, directives={}, variables=True, errors={})"),
    (CheckConfig(frozenset({"CN001"}), "^x$"),
     "CheckConfig(enabled_codes=frozenset({'CN001'}), class_name_pattern='^x$', "
     "property_name_pattern='^[a-z][A-Za-z0-9]*$')"),
    (InferenceResult({T}, 2, {RuleId.SUBCLASS_TRANS: 1}),
     f'InferenceResult(added={{(<http://e/x> <http://e/y> "5"^^<{INT}>)}}, iterations=2, '
     "rule_counts={<RuleId.SUBCLASS_TRANS: 'SUBCLASS_TRANS'>: 1}, provenance={})"),
    (FilterExpr("regex", "v", "^a"), "FilterExpr(op='regex', left='v', right='^a')"),
    (ResultSet(["v"], [{"v": X}]), "ResultSet(vars=['v'], rows=[{'v': <http://e/x>}])"),
    (DatasetConfig("kb.ttl"), "DatasetConfig(source_path='kb.ttl', materialize_on_load=False, bind_address='127.0.0.1:3030')"),
]

def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _ids(cases):
    return [type(record).__name__ for record, _ in cases]


@pytest.mark.parametrize("record, text", [*FROZEN, TREE, *MUTABLE], ids=_ids([*FROZEN, TREE, *MUTABLE]))
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", [*FROZEN, TREE, *MUTABLE], ids=_ids([*FROZEN, TREE, *MUTABLE]))
def test_round_trips_compare_equal(record, text):
    rebuilt = type(record)(*_fields(record))
    for other in (rebuilt, copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(other) is type(record)
        assert other == record and not other != record
        assert repr(other) == text


def test_records_holding_a_store_copy():
    # a Graph and a PrefixMap compare by identity, so only a shallow copy
    # compares equal; a Graph holds a lock and does not pickle
    outcome = ParseOutcome(Graph(), None)
    assert copy.copy(outcome) == outcome
    query = Query(PrefixMap(), ["s"], [TriplePattern(Var("s"))], [FilterExpr("=", "s", X)], True, ("s", "desc"), 5, 1)
    assert copy.copy(query) == query
    assert _fields(pickle.loads(pickle.dumps(query)))[1:] == _fields(query)[1:]


@pytest.mark.parametrize("record, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_as_their_field_tuple(record, text):
    assert hash(record) == hash(_fields(record))
    assert hash(copy.deepcopy(record)) == hash(record)


def test_term_and_triple_hashes_are_their_field_tuples():
    v = "http://e/x"
    assert hash(Iri(v)) == hash((v,))
    assert hash(BlankNode("b")) == hash(("b",))
    assert hash(FIVE) == hash(("5", XSD_INTEGER, None))
    assert hash(Literal("hi", RDF_LANG_STRING, "en")) == hash(("hi", RDF_LANG_STRING, "en"))
    assert hash(T) == hash((X, Y, FIVE))


@pytest.mark.parametrize("record, text", [*FROZEN, TREE], ids=_ids([*FROZEN, TREE]))
def test_frozen_fields_refuse_assignment(record, text):
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text", [TREE, *MUTABLE], ids=_ids([TREE, *MUTABLE]))
def test_mutable_records_and_the_tree_are_unhashable(record, text):
    with pytest.raises(TypeError):
        hash(record)


def test_mutable_records_take_assignment():
    stats = MatchStats("spo")
    stats.entries_visited += 3
    assert stats == MatchStats("spo", 3)


def test_terms_of_different_kinds_or_tuples_never_compare_equal():
    assert Iri("http://e/x") != BlankNode("x")
    assert BlankNode("x") != Iri("http://e/x")
    assert Literal("5") != FIVE
    assert Iri("http://e/x") != ("http://e/x",)
    assert FIVE != ("5", XSD_INTEGER, None)
    assert T != (X, Y, FIVE)
    assert len({X, BlankNode("x"), Literal("http://e/x"), ("http://e/x",)}) == 4


def test_defaults_and_keywords():
    assert Literal("s") == Literal(lexical="s", datatype=XSD_STRING, language=None)
    assert TriplePattern() == TriplePattern(subject=None, predicate=None, object=None)
    assert CheckConfig() == CheckConfig(class_name_pattern=r"^[A-Z][A-Za-z0-9]*$")
    assert DatasetConfig(source_path="kb.ttl", bind_address="127.0.0.1:3030") == DatasetConfig("kb.ttl")
    assert Inconsistency(InconsistencyKind.SUBCLASS_CYCLE, (X,)).witness is None
    # a default container is a new one for each record
    pm = PrefixMap()
    first, second = Query(pm, "*", []), Query(pm, "*", [])
    assert first.filters == [] and first.filters is not second.filters
    assert InferenceResult(set(), 1, {}).provenance == {}
    assert Lexer({}).keywords == {} and Lexer({}).errors is not Lexer({}).errors


def test_match_args_drive_class_patterns():
    match T:
        case Triple(s, p, Literal(lexical, datatype)):
            assert (s, p, lexical, datatype) == (X, Y, "5", XSD_INTEGER)
        case _:
            pytest.fail("no match")
    assert Iri.__match_args__ == ("value",)
    assert Literal.__match_args__ == ("lexical", "datatype", "language")
    assert Query.__match_args__ == ("prefixes", "select_vars", "patterns", "filters", "distinct", "order_by",
                                    "limit", "offset")


def test_a_copied_lexer_scans():
    lexer = copy.deepcopy(Lexer({".": "dot"}))
    assert [kind for kind, _, _ in lexer.scan(". .")] == ["dot", "dot", "eof"]
