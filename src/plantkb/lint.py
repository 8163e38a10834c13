"""Ontology validation checks: naming, metadata, conciseness, consistency.

Check catalog (stable codes):

    NC001  error    class local name violates the class naming pattern
    NC002  error    property local name violates the property naming pattern
    MD001  error    class or property lacks an rdfs:label
    CN001  error    asserted subclass edge is redundant (another asserted path implies it)
    CN002  error    two classes share the same rdfs:label
    CN003  error    orphan class: no instances, no subclasses, unused in domain/range
                    or individual assertions
    RF001  error    property domain/range references an undeclared class
    MM001  warning  subject is declared both class and individual
    CS001  error    disjointness violation (from the consistency checker)
    CS002  error    subclass cycle (from the consistency checker)

Every check runs, and ``CheckConfig.enabled_codes`` filters what is reported;
the one exception is CS001/CS002, whose checker copies and materializes the
graph and is skipped when both codes are off.  Diagnostics are deterministic:
same graph and config, same list, ordered by code, then subject, then message.
"""

from __future__ import annotations

import json
import re
from enum import Enum

from ._record import FrozenRecord, Record
from .graph import Graph
from .ontology import _best_label, _objects_by_subject, extract_ontology
from .reasoner import InconsistencyKind, _asserted_subclass_edges, check_consistency
from .terms import (
    RDF_LANG_STRING,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_LABEL,
    RDFS_RANGE,
    XSD,
    Iri,
    Literal,
    Term,
    TriplePattern,
    term_sort_key,
)

ALL_CODES = frozenset(
    {"NC001", "NC002", "MD001", "CN001", "CN002", "CN003", "RF001", "MM001", "CS001", "CS002"}
)

DEFAULT_CLASS_PATTERN = r"^[A-Z][A-Za-z0-9]*$"
DEFAULT_PROPERTY_PATTERN = r"^[a-z][A-Za-z0-9]*$"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(FrozenRecord):
    __slots__ = __match_args__ = ("code", "severity", "subject", "message")

    def __init__(self, code: str, severity: Severity, subject: Iri, message: str):
        super().__init__(code, severity, subject, message)


class CheckConfig(Record):
    __slots__ = __match_args__ = ("enabled_codes", "class_name_pattern", "property_name_pattern")

    def __init__(self, enabled_codes: frozenset[str] = ALL_CODES, class_name_pattern: str = DEFAULT_CLASS_PATTERN,
                 property_name_pattern: str = DEFAULT_PROPERTY_PATTERN):
        super().__init__(enabled_codes, class_name_pattern, property_name_pattern)


def _is_datatype_iri(iri: Iri) -> bool:
    return iri.value.startswith(XSD) or iri == RDF_LANG_STRING


def run_checks(graph: Graph, cfg: CheckConfig | None = None) -> list[Diagnostic]:
    """Run the catalog checks and return the sorted diagnostics of the enabled codes."""
    cfg = cfg or CheckConfig()
    out: list[Diagnostic] = []

    def report(code: str, subject: Iri, message: str, severity: Severity = Severity.ERROR) -> None:
        if code in cfg.enabled_codes:
            out.append(Diagnostic(code, severity, subject, message))

    view = extract_ontology(graph)
    labels = _objects_by_subject(graph, RDFS_LABEL)
    for code, what, decls, pattern in (
        ("NC001", "class", view.classes, cfg.class_name_pattern),
        ("NC002", "property", view.properties, cfg.property_name_pattern),
    ):
        name_re = re.compile(pattern)
        for iri in decls:
            if not name_re.search(iri.local_name()):
                report(code, iri, f"{what} local name '{iri.local_name()}' does not match pattern {pattern}")
            if _best_label(labels.get(iri, ())) is None:
                report("MD001", iri, f"{what} has no rdfs:label")

    asserted_edges = _asserted_subclass_edges(graph)
    succ: dict[Iri, set[Iri]] = {}
    for a, b in asserted_edges:
        succ.setdefault(a, set()).add(b)
    for a, b in asserted_edges:
        if a != b and _reachable_without(succ, a, b, excluded=(a, b)):
            report("CN001", a, f"subclass edge to <{b.value}> is redundant: "
                   "another asserted path already implies it")

    by_label: dict[str, set[Iri]] = {}
    for c in view.classes:
        for o in labels.get(c, ()):
            if isinstance(o, Literal):
                by_label.setdefault(o.lexical, set()).add(c)
    for label, classes in by_label.items():
        if len(classes) > 1:
            for c in classes:
                others = ", ".join(f"<{o.value}>" for o in sorted(classes - {c}, key=term_sort_key))
                report("CN002", c, f"label '{label}' is also used by {others}")

    # one pass over the id-triples instead of one read per individual
    used: set[Term] = {b for _, b in asserted_edges}
    for pred in (RDFS_DOMAIN, RDFS_RANGE, RDF_TYPE):
        used.update(t.object for t in graph.match(TriplePattern(None, pred, None)))
    individual_ids = {graph.term_id(ind) for ind in view.individuals}
    object_ids = {o for s, _, o in graph.match_ids(None, None, None) if s in individual_ids}
    used.update(map(graph.term, object_ids))
    for c in view.classes:
        if c not in used:
            report("CN003", c, "orphan class: no instances, no subclasses, not used in any domain, "
                   "range, or individual assertion")

    for p, decl in view.properties.items():
        for end, iris in (("domain", decl.domain), ("range", decl.range)):
            for c in iris:
                if c not in view.classes and not (end == "range" and _is_datatype_iri(c)):
                    report("RF001", p, f"{end} references undeclared class <{c.value}>")

    for c in view.classes:
        if c in view.individuals:
            report("MM001", c, "subject is declared both as a class and as an individual", Severity.WARNING)

    if cfg.enabled_codes & {"CS001", "CS002"}:  # the check copies and materializes the graph
        for finding in check_consistency(graph):
            names = [f"<{m.value}>" for m in finding.members]
            if finding.kind is InconsistencyKind.DISJOINTNESS_VIOLATION:
                individual = finding.witness.subject
                report("CS001", individual if isinstance(individual, Iri) else finding.members[0],
                       f"individual is typed by disjoint classes {names[0]} and {names[1]}")
            else:
                report("CS002", finding.members[0], "subclass cycle: " + ", ".join(names))

    # (code, subject, message) orders distinct diagnostics fully
    out.sort(key=lambda d: (d.code, term_sort_key(d.subject), d.message))
    return out


def _reachable_without(
    succ: dict[Iri, set[Iri]], start: Iri, goal: Iri, excluded: tuple[Iri, Iri]
) -> bool:
    """BFS from start to goal skipping the one excluded edge."""
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in succ.get(node, ()):
            if (node, nxt) == excluded:
                continue
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def render_text(diagnostics: list[Diagnostic]) -> str:
    """One line per finding: SEVERITY CODE <subject>: message."""
    return "".join(
        f"{d.severity.value.upper()} {d.code} <{d.subject.value}>: {d.message}\n"
        for d in diagnostics
    )


def render_json(diagnostics: list[Diagnostic]) -> str:
    """Findings as a JSON array, one object per diagnostic."""
    payload = [
        {
            "code": d.code,
            "severity": d.severity.value,
            "subject": d.subject.value,
            "message": d.message,
        }
        for d in diagnostics
    ]
    return json.dumps(payload, indent=2) + "\n"
