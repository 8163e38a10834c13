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

The reader makes one pass over the lexer's token stream and works on term
ids.  Each distinct token (a prefixed name, an IRI reference, a blank node
label, a literal with its tag or datatype) is built into a term, checked and
interned once, where it first occurs; a repeat of the token reuses the
term's id.  So ids count up in the order terms first occur in the text: a
term's id is the order of the first token that spells it, and an anonymous
node's the order of its ``[``.
Rebinding a prefix or the base forgets the tokens seen so far, since it
changes what they mean.  No token list is built.  An anonymous node is
interned at its ``[`` under that token as a stand-in key; when the document
ends, each gets, in ``[`` order, the first label ``b1``, ``b2``, ... that no
``_:label`` in the document uses.  The document's id-triples are then added
to the graph as one batch through :meth:`Graph.add_ids`.

The writer is deterministic: given equal graphs and prefix maps it emits
byte-identical documents, and any document it emits parses back to an equal
graph.
"""

from __future__ import annotations

import re
from itertools import count, groupby
from operator import itemgetter

from ._record import Record
from .graph import Graph, PrefixMap
from .lexer import Lexer, Token, TokenParser
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
    term_sort_key,
)

_BARE_DECIMAL = re.compile(r"[+-]?[0-9]*\.[0-9]+")

_LEXER = Lexer(
    punctuation={".": "dot", ";": "semi", ",": "comma", "[": "lbracket", "]": "rbracket"},
    keywords={"PREFIX": "sparql_prefix", "BASE": "sparql_base"},
    unsupported={"(": "RDF collection", ")": "RDF collection"},
    directives={"prefix": "prefix_directive", "base": "base_directive"},
)


class ParseOutcome(Record):
    """A parsed document: the graph plus the base IRI in effect at the end."""

    __slots__ = __match_args__ = ("graph", "base_iri")

    def __init__(self, graph: Graph, base_iri: Iri | None):
        super().__init__(graph, base_iri)

    @property
    def prefixes(self) -> PrefixMap:
        return self.graph.prefix_map


# What the statement loop reads next: a subject, a verb, an object, or what
# follows an object.  For the first three, the kinds of the one-token terms
# there (a '[' may also open a subject or an object, and an object may be a
# string) and the error when the token starts no term.
_SUBJECT, _VERB, _OBJECT, _NEXT = range(4)
_TERM_KINDS = (
    frozenset({"iriref", "pname", "blank"}),
    frozenset({"iriref", "pname", "a"}),
    frozenset({"iriref", "pname", "blank", "integer", "decimal", "boolean"}),
)
_TERM_ERRORS = ("subject expected (IRI or blank node)", "predicate expected (IRI or 'a')", "object expected")
# the kinds after ';' that end a predicate-object list
_LIST_ENDS = frozenset({"dot", "rbracket", "eof"})
# directive token kind -> its '@' form, which a '.' must end, or None for PREFIX/BASE
_DIRECTIVES = {"prefix_directive": "@prefix", "base_directive": "@base", "sparql_prefix": None, "sparql_base": None}


class _Parser(TokenParser):
    def __init__(self, text: str, base: Iri | None):
        self.graph = Graph()
        super().__init__(_LEXER, text, self.graph.prefix_map, base)
        self._labels: set[str] = set()  # every blank label read so far
        self._anonymous: list[int] = []  # the id of each '[' node, in '[' order
        # token kind -> token key -> the term's id.  A string's key is its
        # text, with its language tag ("langtag") or its datatype token
        # ("dt") when it has one.
        self._memo: dict[str, dict] = {kind: {} for kind in (*_TERM_KINDS[_OBJECT], "a", "string", "langtag", "dt")}
        self._batch: list[tuple[int, int, int]] = []  # the document's id-triples

    def parse(self) -> ParseOutcome:
        return self._whole_text(self._document)

    def _document(self) -> ParseOutcome:
        while (kind := self.tok[0]) != "eof":
            if kind in _DIRECTIVES:
                self._directive(kind)
            else:
                self._triples_statement()
        self._label_anonymous_nodes()
        self.graph.add_ids(self._batch)
        return ParseOutcome(graph=self.graph, base_iri=self.base)

    def _directive(self, kind: str) -> None:
        """A prefix or base directive.  Rebinding either changes what a name
        means, so every token key read so far is dropped."""
        if "prefix" in kind:
            self._prefix_declaration()
        else:
            self._take()
            self.base = self._resolve(self._expect("iriref", "base IRI"))
        self._memo = {k: {} for k in self._memo}
        at_form = _DIRECTIVES[kind]
        if at_form is not None:
            self._expect("dot", f"'.' after {at_form} directive")

    # -- statements ----------------------------------------------------------

    def _triples_statement(self) -> None:
        """One statement, through its final '.'.

        Its triples are emitted in document order, the triples inside a
        ``[ ... ]`` list before the one that uses the list's node.  Each term
        is interned where its first token is read, an anonymous node at its
        ``[`` (it is labelled when the document ends).  ``tok`` is the token
        being read; the loop pulls the next one from the stream itself.
        """
        memo, emit, build = self._memo, self._batch.append, self._build
        # per open '[': the subject and predicate around it and its token; a
        # list that is the statement's subject has no predicate around it
        frames: list[tuple[int, int | None, Token]] = []
        subject = 0
        predicate: int | None = None
        next, tok, state = self._next, self.tok, _SUBJECT
        while True:
            kind, value, _ = tok
            if state == _NEXT:
                if kind == "comma":
                    tok, state = next(), _OBJECT
                    continue
                if kind == "semi":
                    tok = next()
                    while tok[0] == "semi":
                        tok = next()
                    if tok[0] not in _LIST_ENDS:
                        state = _VERB
                        continue
                # the predicate-object list ends at tok: close the '[' around it
                if not frames:
                    return self._end_statement(tok)
                outer_subject, outer_predicate, open_tok = frames.pop()
                if tok[0] != "rbracket":
                    raise self._error("']' expected to close blank node property list",
                                      open_tok, self._source(tok))
                tok = next()
                if outer_predicate is None:  # the list is the statement's subject
                    if tok[0] in _LIST_ENDS:  # and no predicate-object list follows it
                        return self._end_statement(tok)
                    state = _VERB
                    continue
                obj, subject, predicate = subject, outer_subject, outer_predicate
            else:
                if kind == "lbracket" and state != _VERB:
                    term = self.graph._intern(tok)
                    self._anonymous.append(term)
                    open_tok, tok = tok, next()
                    if tok[0] != "rbracket":
                        frames.append((subject, predicate, open_tok))
                        subject, state = term, _VERB
                        continue
                    tok = next()  # '[]' is one term, a node with no triples of its own
                else:
                    tail, after = (), None  # a string's @lang or ^^datatype tokens; the token after it, once read
                    if kind not in _TERM_KINDS[state]:
                        if kind != "string" or state != _OBJECT:
                            raise self._error(_TERM_ERRORS[state], tok)
                        after = next()  # the string's @lang or ^^datatype goes into the memo kind and key
                        if after[0] == "langtag":
                            kind, value, tail, after = "langtag", (value, after[1]), (after,), None
                        elif after[0] == "dt":
                            dt = next()
                            kind, value, tail, after = "dt", (value, dt[0], dt[1]), (after, dt), None
                    term = memo[kind].get(value)
                    if term is None:
                        term = memo[kind][value] = build(tok, *tail)
                    tok = next() if after is None else after
                if state == _VERB:
                    predicate, state = term, _OBJECT
                    continue
                if state == _SUBJECT:
                    subject, state = term, _VERB
                    continue
                obj = term
            emit((subject, predicate, obj))  # type: ignore[arg-type]
            state = _NEXT

    def _end_statement(self, tok: Token) -> None:
        self.tok = tok
        self._expect("dot", "'.' at end of statement")

    def _build(self, tok: Token, after: Token | None = None, dt: Token | None = None) -> int:
        """The id of the term that ``tok`` spells (a string with its language
        tag or ``^^`` token ``after`` and datatype token ``dt``), built,
        checked and interned there."""
        kind, value, _ = tok
        if kind == "a":
            term: Term = RDF_TYPE
        elif kind == "blank":
            term = BlankNode(value)  # type: ignore[arg-type]
            self._labels.add(value)  # type: ignore[arg-type]
        elif kind in ("iriref", "pname"):
            term = self._iri(tok)
        else:
            term = self._make_literal(tok, after, None if dt is None else self._iri(dt))
        return self.graph._intern(term)

    def _label_anonymous_nodes(self) -> None:
        """Give each ``[`` node, in ``[`` order, the first label ``b1``,
        ``b2``, ... that no ``_:label`` in the document uses."""
        terms, ids = self.graph._id_to_term, self.graph._term_to_id
        labels = (label for n in count(1) if (label := f"b{n}") not in self._labels)
        for tid, label in zip(self._anonymous, labels):
            del ids[terms[tid]]
            terms[tid] = BlankNode(label)
            ids[terms[tid]] = tid


def parse_turtle(text: str, base: Iri | str | None = None) -> ParseOutcome:
    """Parse a Turtle document into a fresh :class:`Graph`.

    ``base`` seeds relative-IRI resolution; an in-document @base overrides it.
    """
    if isinstance(base, str):
        base = Iri(base)
    return _Parser(text, base).parse()


# -- serialization ------------------------------------------------------------


# named escapes for the quote, the backslash and five controls; every other
# character below U+0020 is written as \uXXXX in upper-case hex
_STRING_ESCAPES = str.maketrans(
    {chr(i): f"\\u{i:04X}" for i in range(0x20)}
    | {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"}
)


def _escape_string(s: str) -> str:
    return s.translate(_STRING_ESCAPES)


# the characters IRIREF excludes that an Iri can still hold (a \u escape
# spells them), and the backslash, which would start an escape: each is
# written as \uXXXX in upper-case hex
_IRI_ESCAPES = str.maketrans({c: f"\\u{ord(c):04X}" for c in [*map(chr, range(0x21)), *"{}|^`\\"]})


def _iri_ref(iri: Iri) -> str:
    """``<...>`` text that reads back as ``iri``."""
    return "<" + iri.value.translate(_IRI_ESCAPES) + ">"


def _render_iri(iri: Iri, pm: PrefixMap) -> str:
    compact = pm.compact(iri)
    if compact is not None:
        return compact
    return _iri_ref(iri)


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
        lines.append(f"@prefix {prefix}: {_iri_ref(ns)} .")

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
