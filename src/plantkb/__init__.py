"""plantkb: a self-contained semantic knowledge-base toolkit.

Parse Turtle ontologies into an indexed triple store, materialize
RDFS/OWL-subset inferences, validate naming / metadata / consistency,
answer a SPARQL subset locally or over HTTP, and export class and
property graphs as DOT.  Ships with a bundled Arabidopsis Thaliana
ontology and seeded-defect variants for testing.
"""

from .errors import (
    FrozenGraphError,
    MalformedTripleError,
    ParseError,
    PlantKbError,
    RelativeIriError,
    SubclassCycleError,
    UnknownFixtureError,
    UnknownPrefixError,
    UnsupportedConstructError,
)
from .terms import (
    BlankNode,
    Iri,
    Literal,
    Term,
    Triple,
    TriplePattern,
    Var,
    term_sort_key,
)
from .graph import Graph, MatchStats, PrefixMap
from .turtle import ParseOutcome, parse_turtle, serialize_turtle
from .ontology import (
    ClassTree,
    Individual,
    OntologyClass,
    OntologyView,
    PropertyDecl,
    PropertyKind,
    class_tree,
    extract_ontology,
    to_dot,
)
from .reasoner import (
    Inconsistency,
    InconsistencyKind,
    InferenceResult,
    RuleId,
    check_consistency,
    materialize,
)
from .lint import ALL_CODES, CheckConfig, Diagnostic, Severity, render_json, render_text, run_checks
from .sparql import FilterExpr, Query, ResultSet, evaluate, parse_query, serialize_results
from .endpoint import DatasetConfig, load_dataset, make_server, resolve_bind, serve
from .fixtures import FixtureManifest, fixture_graph, fixture_text, manifest

__version__ = "0.1.0"

__all__ = [
    "ALL_CODES",
    "BlankNode",
    "CheckConfig",
    "ClassTree",
    "DatasetConfig",
    "Diagnostic",
    "FilterExpr",
    "FixtureManifest",
    "FrozenGraphError",
    "Graph",
    "Inconsistency",
    "InconsistencyKind",
    "Individual",
    "InferenceResult",
    "Iri",
    "Literal",
    "MalformedTripleError",
    "MatchStats",
    "OntologyClass",
    "OntologyView",
    "ParseError",
    "ParseOutcome",
    "PlantKbError",
    "PrefixMap",
    "PropertyDecl",
    "PropertyKind",
    "Query",
    "RelativeIriError",
    "ResultSet",
    "RuleId",
    "Severity",
    "SubclassCycleError",
    "Term",
    "Triple",
    "TriplePattern",
    "UnknownFixtureError",
    "UnknownPrefixError",
    "UnsupportedConstructError",
    "Var",
    "check_consistency",
    "class_tree",
    "evaluate",
    "extract_ontology",
    "fixture_graph",
    "fixture_text",
    "load_dataset",
    "make_server",
    "manifest",
    "materialize",
    "parse_query",
    "parse_turtle",
    "render_json",
    "render_text",
    "resolve_bind",
    "run_checks",
    "serialize_results",
    "serialize_turtle",
    "serve",
    "term_sort_key",
    "to_dot",
]
