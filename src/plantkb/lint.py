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

Diagnostics are deterministic: same graph and config, same list, ordered by
code then subject IRI.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum

from .graph import Graph
from .ontology import _objects_by_subject, extract_ontology
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


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: str
    severity: Severity
    subject: Iri
    message: str


@dataclass(slots=True)
class CheckConfig:
    enabled_codes: frozenset[str] = ALL_CODES
    class_name_pattern: str = DEFAULT_CLASS_PATTERN
    property_name_pattern: str = DEFAULT_PROPERTY_PATTERN


def _is_datatype_iri(iri: Iri) -> bool:
    return iri.value.startswith(XSD) or iri == RDF_LANG_STRING


def run_checks(graph: Graph, cfg: CheckConfig | None = None) -> list[Diagnostic]:
    """Run every enabled catalog check and return the sorted diagnostics."""
    cfg = cfg or CheckConfig()
    enabled = cfg.enabled_codes
    class_re = re.compile(cfg.class_name_pattern)
    property_re = re.compile(cfg.property_name_pattern)

    view = extract_ontology(graph)
    labels = _objects_by_subject(graph, RDFS_LABEL)
    out: list[Diagnostic] = []

    if "NC001" in enabled:
        for c in view.classes:
            if not class_re.search(c.local_name()):
                out.append(Diagnostic(
                    "NC001", Severity.ERROR, c,
                    f"class local name '{c.local_name()}' does not match pattern {cfg.class_name_pattern}",
                ))

    if "NC002" in enabled:
        for p in view.properties:
            if not property_re.search(p.local_name()):
                out.append(Diagnostic(
                    "NC002", Severity.ERROR, p,
                    f"property local name '{p.local_name()}' does not match pattern {cfg.property_name_pattern}",
                ))

    if "MD001" in enabled:
        for c, decl in view.classes.items():
            if decl.label is None:
                out.append(Diagnostic("MD001", Severity.ERROR, c, "class has no rdfs:label"))
        for p in view.properties:
            if not any(isinstance(o, Literal) for o in labels.get(p, ())):
                out.append(Diagnostic("MD001", Severity.ERROR, p, "property has no rdfs:label"))

    asserted_edges = _asserted_subclass_edges(graph)  # used by CN001 and CN003

    if "CN001" in enabled:
        succ: dict[Iri, set[Iri]] = {}
        for a, b in asserted_edges:
            succ.setdefault(a, set()).add(b)
        for a, b in sorted(asserted_edges, key=lambda e: (term_sort_key(e[0]), term_sort_key(e[1]))):
            if a == b:
                continue
            if _reachable_without(succ, a, b, excluded=(a, b)):
                out.append(Diagnostic(
                    "CN001", Severity.ERROR, a,
                    f"subclass edge to <{b.value}> is redundant: another asserted path already implies it",
                ))

    if "CN002" in enabled:
        by_label: dict[str, list[Iri]] = {}
        for c in view.classes:
            for o in labels.get(c, ()):
                if isinstance(o, Literal):
                    by_label.setdefault(o.lexical, []).append(c)
        for label, classes in by_label.items():
            distinct = sorted(set(classes), key=term_sort_key)
            if len(distinct) > 1:
                for c in distinct:
                    others = ", ".join(f"<{o.value}>" for o in distinct if o != c)
                    out.append(Diagnostic(
                        "CN002", Severity.ERROR, c,
                        f"label '{label}' is also used by {others}",
                    ))

    if "CN003" in enabled:
        used_as_parent = {b for _, b in asserted_edges}
        used_in_axiom: set[Iri] = set()
        for pred in (RDFS_DOMAIN, RDFS_RANGE):
            for t in graph.match(TriplePattern(None, pred, None)):
                if isinstance(t.object, Iri):
                    used_in_axiom.add(t.object)
        # one pass over the store's id-triples instead of one read per individual
        individual_ids = {graph.term_id(ind) for ind in view.individuals}
        object_ids = {o for s, _, o in graph.match_ids(None, None, None) if s in individual_ids}
        mentioned_by_individual = {
            term for term in map(graph.term, object_ids) if isinstance(term, Iri)
        }
        typed = {t.object for t in graph.match(TriplePattern(None, RDF_TYPE, None))}
        for c in view.classes:
            if (
                c not in typed
                and c not in used_as_parent
                and c not in used_in_axiom
                and c not in mentioned_by_individual
            ):
                out.append(Diagnostic(
                    "CN003", Severity.ERROR, c,
                    "orphan class: no instances, no subclasses, not used in any domain, "
                    "range, or individual assertion",
                ))

    if "RF001" in enabled:
        for p, decl in view.properties.items():
            for d in sorted(decl.domain, key=term_sort_key):
                if d not in view.classes:
                    out.append(Diagnostic(
                        "RF001", Severity.ERROR, p,
                        f"domain references undeclared class <{d.value}>",
                    ))
            for r in sorted(decl.range, key=term_sort_key):
                if r not in view.classes and not _is_datatype_iri(r):
                    out.append(Diagnostic(
                        "RF001", Severity.ERROR, p,
                        f"range references undeclared class <{r.value}>",
                    ))

    if "MM001" in enabled:
        for c in view.classes:
            if c in view.individuals:
                out.append(Diagnostic(
                    "MM001", Severity.WARNING, c,
                    "subject is declared both as a class and as an individual",
                ))

    if "CS001" in enabled or "CS002" in enabled:
        for finding in check_consistency(graph):
            if finding.kind is InconsistencyKind.DISJOINTNESS_VIOLATION:
                if "CS001" not in enabled:
                    continue
                individual = finding.witness.subject
                subject = individual if isinstance(individual, Iri) else finding.members[0]
                a, b = finding.members
                out.append(Diagnostic(
                    "CS001", Severity.ERROR, subject,
                    f"individual is typed by disjoint classes <{a.value}> and <{b.value}>",
                ))
            else:
                if "CS002" not in enabled:
                    continue
                members = ", ".join(f"<{m.value}>" for m in finding.members)
                out.append(Diagnostic(
                    "CS002", Severity.ERROR, finding.members[0],
                    f"subclass cycle: {members}",
                ))

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
