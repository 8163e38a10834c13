"""Turtle reader and writer for the dialect used by the bundled ontologies.

Supported syntax: @prefix/@base and their SPARQL-style PREFIX/BASE forms,
absolute and base-resolved <IRI> references, prefixed names, the ``a``
keyword, predicate lists with ``;``, object lists with ``,``, labeled and
anonymous blank nodes (including ``[ pred obj ; ... ]`` property lists),
quoted strings with the standard single-line escapes, language tags,
``^^`` datatypes, bare integer / decimal / boolean literals, and ``#``
comments.

Out-of-scope constructs are rejected loudly rather than mis-read: RDF
collections ``( ... )``, triple-quoted strings, and numeric literals with
exponents all raise :class:`UnsupportedConstructError` naming the construct.
The lexical subset (IRIs, strings, escapes, names, numbers) is defined once,
in :mod:`plantkb.lexer`, and shared with the SPARQL parser.

The writer is deterministic: given equal graphs and prefix maps it emits
byte-identical documents, and any document it emits parses back to an equal
graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .graph import Graph, PrefixMap
from .lexer import Lexer, TokenParser
from .terms import (
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
    Triple,
    term_sort_key,
)

_BARE_DECIMAL = re.compile(r"[+-]?[0-9]*\.[0-9]+")

_LEXER = Lexer(
    punctuation={".": "dot", ";": "semi", ",": "comma", "[": "lbracket", "]": "rbracket"},
    keywords={"PREFIX": "sparql_prefix", "BASE": "sparql_base"},
    unsupported={"(": "RDF collection", ")": "RDF collection"},
    directives={"prefix": "prefix_directive", "base": "base_directive"},
)


@dataclass(slots=True)
class ParseOutcome:
    """A parsed document: the graph plus the base IRI in effect at the end."""

    graph: Graph
    base_iri: Iri | None

    @property
    def prefixes(self) -> PrefixMap:
        return self.graph.prefix_map


class _Parser(TokenParser):
    def __init__(self, text: str, base: Iri | None):
        self.graph = Graph()
        super().__init__(_LEXER, text, self.graph.prefix_map, base)
        self._used_labels: set[str] = {t.value for t in self.tokens if t.kind == "blank"}  # type: ignore[misc]
        self._anon_counter = 0

    def parse(self) -> ParseOutcome:
        while self._peek().kind != "eof":
            kind = self._peek().kind
            if kind == "prefix_directive":
                self._prefix_directive(dotted=True)
            elif kind == "base_directive":
                self._base_directive(dotted=True)
            elif kind == "sparql_prefix":
                self._prefix_directive(dotted=False)
            elif kind == "sparql_base":
                self._base_directive(dotted=False)
            else:
                self._triples_statement()
        return ParseOutcome(graph=self.graph, base_iri=self.base)

    def _prefix_directive(self, dotted: bool) -> None:
        self._prefix_declaration()
        if dotted:
            self._expect("dot", "'.' after @prefix directive")

    def _base_directive(self, dotted: bool) -> None:
        self._take()
        self.base = self._resolve(self._expect("iriref", "base IRI"))
        if dotted:
            self._expect("dot", "'.' after @base directive")

    # -- statements ----------------------------------------------------------

    def _triples_statement(self) -> None:
        tok = self._peek()
        if tok.kind == "lbracket":
            subject = self._bnode_property_list()
            if self._peek().kind != "dot":
                self._predicate_object_list(subject)
        else:
            subject = self._subject()
            self._predicate_object_list(subject)
        self._expect("dot", "'.' at end of statement")

    def _subject(self) -> Iri | BlankNode:
        tok = self._peek()
        if tok.kind in ("iriref", "pname"):
            return self._iri_term()
        if tok.kind == "blank":
            self._take()
            return BlankNode(tok.value)  # type: ignore[arg-type]
        raise self._error("subject expected (IRI or blank node)", tok)

    def _predicate_object_list(self, subject: Iri | BlankNode) -> None:
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self._peek().kind != "semi":
                return
            while self._peek().kind == "semi":
                self._take()
            if self._peek().kind in ("dot", "rbracket", "eof"):
                return

    def _verb(self) -> Iri:
        tok = self._peek()
        if tok.kind == "a":
            self._take()
            return RDF_TYPE
        if tok.kind in ("iriref", "pname"):
            return self._iri_term()
        raise self._error("predicate expected (IRI or 'a')", tok)

    def _object_list(self, subject: Iri | BlankNode, predicate: Iri) -> None:
        while True:
            obj = self._object()
            self.graph.insert(Triple(subject, predicate, obj))
            if self._peek().kind != "comma":
                return
            self._take()

    def _object(self) -> Term:
        tok = self._peek()
        if tok.kind in ("iriref", "pname"):
            return self._iri_term()
        if tok.kind == "blank":
            self._take()
            return BlankNode(tok.value)  # type: ignore[arg-type]
        if tok.kind == "lbracket":
            return self._bnode_property_list()
        if tok.kind in ("string", "integer", "decimal", "boolean"):
            return self._literal()
        raise self._error("object expected", tok)

    def _bnode_property_list(self) -> BlankNode:
        open_tok = self._expect("lbracket", "'['")
        node = self._fresh_bnode()
        if self._peek().kind == "rbracket":
            self._take()
            return node
        self._predicate_object_list(node)
        tok = self._peek()
        if tok.kind != "rbracket":
            raise self._error("']' expected to close blank node property list", open_tok, self._source(tok))
        self._take()
        return node

    def _fresh_bnode(self) -> BlankNode:
        while True:
            self._anon_counter += 1
            label = f"b{self._anon_counter}"
            if label not in self._used_labels:
                self._used_labels.add(label)
                return BlankNode(label)

def parse_turtle(text: str, base: Iri | str | None = None) -> ParseOutcome:
    """Parse a Turtle document into a fresh :class:`Graph`.

    ``base`` seeds relative-IRI resolution; an in-document @base overrides it.
    """
    if isinstance(base, str):
        base = Iri(base)
    return _Parser(text, base).parse()


# -- serialization ------------------------------------------------------------


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\b":
            out.append("\\b")
        elif ch == "\f":
            out.append("\\f")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def _render_iri(iri: Iri, pm: PrefixMap) -> str:
    compact = pm.compact(iri)
    if compact is not None:
        return compact
    return f"<{iri.value}>"


def _render_term(term: Term, pm: PrefixMap) -> str:
    if isinstance(term, Iri):
        return _render_iri(term, pm)
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    lit: Literal = term
    if lit.language is not None:
        return f'"{_escape_string(lit.lexical)}"@{lit.language}'
    if lit.datatype == XSD_INTEGER:
        return lit.lexical
    if lit.datatype == XSD_DECIMAL and _BARE_DECIMAL.fullmatch(lit.lexical):
        return lit.lexical
    if lit.datatype == XSD_BOOLEAN and lit.lexical in ("true", "false"):
        return lit.lexical
    quoted = f'"{_escape_string(lit.lexical)}"'
    if lit.datatype == XSD_STRING:
        return quoted
    return f"{quoted}^^{_render_iri(lit.datatype, pm)}"


def serialize_turtle(graph: Graph, prefix_map: PrefixMap | None = None) -> str:
    """Write the graph as Turtle: sorted prefixes, subject-grouped sorted triples."""
    pm = prefix_map if prefix_map is not None else graph.prefix_map
    lines = []
    for prefix, ns in pm.items():
        lines.append(f"@prefix {prefix}: <{ns.value}> .")

    # Each distinct term is keyed and rendered once.  Distinct terms have
    # distinct sort keys, so sorting triples of ranks gives the order of
    # sorting the triples by their terms' keys.
    stored = graph.match_ids(None, None, None)
    order = sorted({tid for ids in stored for tid in ids},
                   key=lambda tid: term_sort_key(graph.term(tid)))
    rank = {tid: r for r, tid in enumerate(order)}
    text = [_render_term(graph.term(tid), pm) for tid in order]
    type_rank = rank.get(graph.term_id(RDF_TYPE))
    triples = sorted((rank[s], rank[p], rank[o]) for s, p, o in stored)
    if lines and triples:
        lines.append("")

    for subject, group in groupby(triples, key=itemgetter(0)):
        parts = []
        for predicate, objs in groupby(group, key=itemgetter(1)):
            verb = "a" if predicate == type_rank else text[predicate]
            parts.append(f"{verb} {', '.join(text[o] for _, _, o in objs)}")
        if len(parts) == 1:
            lines.append(f"{text[subject]} {parts[0]} .")
        else:
            lines.append(f"{text[subject]} {parts[0]} ;")
            for part in parts[1:-1]:
                lines.append(f"    {part} ;")
            lines.append(f"    {parts[-1]} .")
    return "\n".join(lines) + "\n"
