"""SPARQL subset: SELECT queries over one graph.

Grammar: PREFIX declarations, SELECT (DISTINCT) with explicit variables or
``*``, one WHERE block of dot-separated triple patterns, FILTER with
{=, !=, <, <=, >, >=, regex}, ORDER BY (ASC/DESC), LIMIT, OFFSET.
Constructs outside the subset (OPTIONAL, UNION, property paths, aggregates,
CONSTRUCT/ASK/DESCRIBE, ...) raise UnsupportedConstructError naming the
construct.  The lexical subset (IRIs, strings, escapes, names, numbers) is
defined once, in :mod:`plantkb.lexer`, and shared with the Turtle parser.

Evaluation is a natural join of the pattern matches, join order picked by
ascending estimated cardinality (index counts), re-estimated as variables
become bound.  Filters run on full rows; ordering sorts full rows under a
total term order (numeric literals by value, then other literals, then
IRIs, then blank nodes); projection, DISTINCT, and OFFSET/LIMIT follow in
that order.

Result serialization: W3C SPARQL 1.1 JSON results and RFC-4180 CSV.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import ParseError
from .graph import Graph, PrefixMap
from .lexer import Lexer, Token, TokenParser
from .terms import (
    RDF_TYPE,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
    TriplePattern,
    Var,
)

_LEXER = Lexer(
    punctuation={
        "{": "lbrace", "}": "rbrace", "(": "lparen", ")": "rparen", ".": "dot", ",": "comma",
        ";": "semi", "*": "star", "=": "op", "!=": "op", "<": "op", "<=": "op", ">": "op", ">=": "op",
    },
    keywords={k: "kw" for k in (
        "SELECT", "DISTINCT", "WHERE", "PREFIX", "FILTER", "ORDER", "BY",
        "ASC", "DESC", "LIMIT", "OFFSET", "REGEX",
    )},
    unsupported={w: w for w in (
        "OPTIONAL", "UNION", "GRAPH", "SERVICE", "MINUS", "BIND", "VALUES",
        "EXISTS", "CONSTRUCT", "ASK", "DESCRIBE", "INSERT", "DELETE", "GROUP",
        "HAVING", "BASE", "FROM", "NAMED", "REDUCED", "COUNT", "SUM", "AVG",
    )},
    variables=True,
    errors={"!": "'!' must be part of '!='"},
)
_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass(slots=True)
class FilterExpr:
    op: str  # one of =, !=, <, <=, >, >= or "regex"
    left: str  # variable name
    right: Term | str  # constant term, or the pattern text for regex


@dataclass(slots=True)
class Query:
    prefixes: PrefixMap
    select_vars: list[str] | str  # explicit names, or "*"
    patterns: list[TriplePattern]
    filters: list[FilterExpr] = field(default_factory=list)
    distinct: bool = False
    order_by: tuple[str, str] | None = None  # (variable, "asc"|"desc")
    limit: int | None = None
    offset: int | None = None


@dataclass(slots=True)
class ResultSet:
    vars: list[str]
    rows: list[dict[str, Term]]


class _QueryParser(TokenParser):
    def __init__(self, text: str):
        super().__init__(_LEXER, text, PrefixMap())

    def parse(self) -> Query:
        while self._peek().kind == "kw" and self._peek().value == "PREFIX":
            self._prefix_declaration()

        self._expect("kw", "SELECT", "SELECT")
        distinct = False
        if self._peek().kind == "kw" and self._peek().value == "DISTINCT":
            self._take()
            distinct = True

        select_vars: list[str] | str
        if self._peek().kind == "star":
            self._take()
            select_vars = "*"
        else:
            names = []
            while self._peek().kind == "var":
                names.append(self._take().value)
            if not names:
                raise self._error("expected projection variables or '*'", self._peek())
            select_vars = names  # type: ignore[assignment]

        if self._peek().kind == "kw" and self._peek().value == "WHERE":
            self._take()
        self._expect("lbrace", "'{' opening the WHERE block")

        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            t = self._peek()
            if t.kind == "rbrace":
                self._take()
                break
            if t.kind == "eof":
                raise self._error("unclosed WHERE block: expected '}'", t)
            if t.kind == "kw" and t.value == "FILTER":
                self._take()
                filters.append(self._filter())
            else:
                patterns.append(self._triple_pattern())
            if self._peek().kind == "dot":
                self._take()

        order_by = None
        limit = None
        offset = None
        while self._peek().kind == "kw":
            kw = self._take()
            if kw.value == "ORDER":
                self._expect("kw", "BY after ORDER", "BY")
                direction = "asc"
                t = self._peek()
                if t.kind == "kw" and t.value in ("ASC", "DESC"):
                    direction = self._take().value.lower()  # type: ignore[union-attr]
                    self._expect("lparen", "'(' after ASC/DESC")
                    var = self._expect("var", "ORDER BY variable")
                    self._expect("rparen", "')'")
                else:
                    var = self._expect("var", "ORDER BY variable")
                if order_by is not None:
                    raise self._error("ORDER BY given twice", kw)
                order_by = (var.value, direction)
            elif kw.value == "LIMIT":
                tok = self._expect("integer", "LIMIT count")
                limit = int(tok.value)  # type: ignore[arg-type]
                if limit < 0:
                    raise self._error("LIMIT must be non-negative", tok)
            elif kw.value == "OFFSET":
                tok = self._expect("integer", "OFFSET count")
                offset = int(tok.value)  # type: ignore[arg-type]
                if offset < 0:
                    raise self._error("OFFSET must be non-negative", tok)
            else:
                raise self._error(f"unexpected keyword {kw.value}", kw)

        t = self._peek()
        if t.kind != "eof":
            raise self._error("trailing content after query", t)

        query = Query(
            prefixes=self.prefixes,
            select_vars=select_vars,
            patterns=patterns,
            filters=filters,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )
        self._validate(query)
        return query

    def _validate(self, query: Query) -> None:
        pattern_vars = set()
        for p in query.patterns:
            pattern_vars.update(p.variables())
        if query.select_vars != "*":
            for name in query.select_vars:
                if name not in pattern_vars:
                    raise ParseError(
                        f"selected variable ?{name} does not appear in any pattern", 1, 1, f"?{name}"
                    )
        if query.order_by is not None and query.order_by[0] not in pattern_vars:
            raise ParseError(
                f"ORDER BY variable ?{query.order_by[0]} does not appear in any pattern",
                1, 1, f"?{query.order_by[0]}",
            )

    def _triple_pattern(self) -> TriplePattern:
        s = self._pattern_term(allow_literal=False)
        t = self._peek()
        if t.kind == "a":
            self._take()
            p: object = RDF_TYPE
        else:
            p = self._pattern_term(allow_literal=False)
        o = self._pattern_term(allow_literal=True)
        return TriplePattern(s, p, o)  # type: ignore[arg-type]

    def _pattern_term(self, allow_literal: bool):
        t = self._peek()
        if t.kind == "var":
            self._take()
            return Var(t.value)  # type: ignore[arg-type]
        if t.kind in ("iriref", "pname"):
            return self._iri_term()
        if t.kind == "blank":
            self._take()
            return BlankNode(t.value)  # type: ignore[arg-type]
        if allow_literal and t.kind in ("string", "integer", "decimal", "boolean"):
            return self._literal()
        raise self._error("triple pattern term expected", t)

    def _datatype(self, dt_tok: Token) -> Iri:
        dt_term = self._pattern_term(allow_literal=False)
        if not isinstance(dt_term, Iri):
            raise self._error("datatype must be an IRI", dt_tok)
        return dt_term

    def _filter(self) -> FilterExpr:
        # FILTER ( ?v op const ) | FILTER regex(?v, "pat") | FILTER ( regex(?v, "pat") )
        outer_paren = False
        if self._peek().kind == "lparen":
            self._take()
            outer_paren = True
        t = self._peek()
        if t.kind == "kw" and t.value == "REGEX":
            expr = self._regex_filter()
        else:
            if not outer_paren:
                raise self._error("expected '(' after FILTER", t)
            var = self._expect("var", "FILTER variable")
            op_tok = self._expect("op", "comparison operator")
            if op_tok.value not in _COMPARISON_OPS:
                raise self._error(f"unsupported operator {op_tok.value}", op_tok)
            const_tok = self._peek()
            if const_tok.kind == "var":
                raise self._error("FILTER right-hand side must be a constant", const_tok)
            const = self._pattern_term(allow_literal=True)
            if not isinstance(const, (Iri, Literal, BlankNode)):
                raise self._error("FILTER constant expected", const_tok)
            expr = FilterExpr(op=op_tok.value, left=var.value, right=const)  # type: ignore[arg-type]
        if outer_paren:
            self._expect("rparen", "')' closing FILTER")
        return expr

    def _regex_filter(self) -> FilterExpr:
        self._expect("kw", "regex", "REGEX")
        self._expect("lparen", "'(' after regex")
        var = self._expect("var", "regex variable")
        self._expect("comma", "',' between regex arguments")
        pat_tok = self._expect("string", "regex pattern string")
        self._expect("rparen", "')' closing regex")
        pattern: str = pat_tok.value  # type: ignore[assignment]
        try:
            re.compile(pattern)
        except (re.error, OverflowError) as exc:
            raise self._error(f"invalid regex: {exc}", pat_tok) from exc
        return FilterExpr(op="regex", left=var.value, right=pattern)  # type: ignore[arg-type]


def parse_query(text: str) -> Query:
    """Parse query text under the subset grammar."""
    return _QueryParser(text).parse()


# -- evaluation --------------------------------------------------------------


def _substitute(p: TriplePattern, row: dict[str, Term]) -> TriplePattern:
    slots = []
    for s in p.slots():
        if isinstance(s, Var) and s.name in row:
            slots.append(row[s.name])
        else:
            slots.append(s)
    return TriplePattern(*slots)


def _numeric(term: Term):
    if isinstance(term, Literal):
        return term.numeric_value()
    return None


def _passes(f: FilterExpr, row: dict[str, Term]) -> bool:
    value = row.get(f.left)
    if value is None:
        return False
    if f.op == "regex":
        if not isinstance(value, Literal):
            return False
        return re.search(f.right, value.lexical) is not None  # type: ignore[arg-type]
    const = f.right
    if f.op in ("=", "!="):
        ln, rn = _numeric(value), _numeric(const)  # type: ignore[arg-type]
        if ln is not None and rn is not None:
            equal = ln == rn
        else:
            equal = value == const
        return equal if f.op == "=" else not equal
    ln, rn = _numeric(value), _numeric(const)  # type: ignore[arg-type]
    if ln is None or rn is None:
        return False
    if f.op == "<":
        return ln < rn
    if f.op == "<=":
        return ln <= rn
    if f.op == ">":
        return ln > rn
    return ln >= rn


def _order_key(term: Term):
    if isinstance(term, Literal):
        n = term.numeric_value()
        if n is not None:
            # Decimal cannot be tuple-compared against int/float reliably; normalize
            return (0, float(n) if isinstance(n, Decimal) else n, "")
        return (1, term.lexical, term.datatype.value + "\x00" + (term.language or ""))
    if isinstance(term, Iri):
        return (2, term.value, "")
    return (3, term.label, "")


def evaluate(query: Query, graph: Graph) -> ResultSet:
    """Join, filter, order, project, deduplicate, and slice."""
    rows: list[dict[str, Term]] = [{}]
    remaining = list(enumerate(query.patterns))
    bound: set[str] = set()

    while remaining and rows:
        def estimate(item: tuple[int, TriplePattern]):
            idx, pat = item
            unbound = sum(1 for name in pat.variables() if name not in bound)
            return (unbound, graph.count_matching(pat), idx)

        remaining.sort(key=estimate)
        idx, pat = remaining.pop(0)
        names = pat.variables()
        new_rows: list[dict[str, Term]] = []
        for row in rows:
            concrete = _substitute(pat, row)
            for t in graph.match(concrete):
                ext = dict(row)
                for slot, value in zip(pat.slots(), (t.subject, t.predicate, t.object)):
                    if isinstance(slot, Var):
                        ext[slot.name] = value
                new_rows.append(ext)
        rows = new_rows
        bound.update(names)

    for f in query.filters:
        rows = [r for r in rows if _passes(f, r)]

    if query.order_by is not None:
        var, direction = query.order_by
        rows.sort(
            key=lambda r: _order_key(r[var]) if var in r else (4, "", ""),
            reverse=(direction == "desc"),
        )

    if query.select_vars == "*":
        out_vars: list[str] = []
        for p in query.patterns:
            for name in p.variables():
                if name not in out_vars:
                    out_vars.append(name)
    else:
        out_vars = list(query.select_vars)

    projected = [{name: r[name] for name in out_vars if name in r} for r in rows]

    if query.distinct:
        seen = set()
        deduped = []
        for r in projected:
            key = tuple((name, r.get(name)) for name in out_vars)
            if key not in seen:
                seen.add(key)
                deduped.append(r)
        projected = deduped

    start = query.offset or 0
    if start:
        projected = projected[start:]
    if query.limit is not None:
        projected = projected[: query.limit]

    return ResultSet(vars=out_vars, rows=projected)


# -- result serialization ----------------------------------------------------


def _json_term(term: Term) -> dict[str, str]:
    if isinstance(term, Iri):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    lit: Literal = term
    obj: dict[str, str] = {"type": "literal", "value": lit.lexical}
    if lit.language is not None:
        obj["xml:lang"] = lit.language
    elif lit.datatype != XSD_STRING:
        obj["datatype"] = lit.datatype.value
    return obj


def _csv_term(term: Term) -> str:
    if isinstance(term, Iri):
        return term.value
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    return term.lexical


def serialize_results(rs: ResultSet, format: str = "sparql-json") -> str:
    """Render a result set as W3C SPARQL JSON or RFC-4180 CSV."""
    if format == "sparql-json":
        payload = {
            "head": {"vars": list(rs.vars)},
            "results": {
                "bindings": [
                    {name: _json_term(row[name]) for name in rs.vars if name in row}
                    for row in rs.rows
                ]
            },
        }
        return json.dumps(payload, indent=2)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(rs.vars)
        for row in rs.rows:
            writer.writerow([_csv_term(row[name]) if name in row else "" for name in rs.vars])
        return buf.getvalue()
    raise ValueError(f"unknown result format: {format!r}")
