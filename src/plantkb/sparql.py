"""SPARQL subset: SELECT queries over one graph.

Grammar: PREFIX declarations, SELECT (DISTINCT) with explicit variables or
``*``, one WHERE block of dot-separated triple patterns, FILTER with
{=, !=, <, <=, >, >=, regex}, ORDER BY (ASC/DESC), LIMIT, OFFSET.
Constructs outside the subset (OPTIONAL, UNION, property paths, aggregates,
CONSTRUCT/ASK/DESCRIBE, ...) raise UnsupportedConstructError naming the
construct.  The lexical subset (IRIs, strings, escapes, names, numbers) is
defined once, in :mod:`plantkb.lexer`, and shared with the Turtle parser.

Evaluation is a natural join of the pattern matches over term ids.  The
plan is fixed before the first row: patterns are joined greedily, fewest
unbound variables first, then smallest index count (a count of the
pattern's constants alone, so it never depends on the rows), then query
order; each variable gets a row slot and each constant is looked up once.  A
row is a tuple of ids, and each step is a generator that reads one id range
of the store per row it pulls from the step before.  Each FILTER runs at the
step that first binds its variable, memoized per term id.  Two numbers
compare by value, under the operator ``_COMPARE`` gives (SPARQL 1.1 section
17.3); otherwise ``=`` and ``!=`` compare terms, NaN equals nothing, itself
included, and an ordering is false.  ORDER BY collects every row and sorts
them stably under a total term order (numeric literals by value, then other
literals, then IRIs, then blank nodes), with one key per distinct id.
Projection, DISTINCT (first occurrences of the projected ids) and
OFFSET/LIMIT follow in that order and stream, so rows are pulled only as far
as the answer needs, and only the rows that survive are decoded into terms.

Result serialization: W3C SPARQL 1.1 JSON results and RFC-4180 CSV.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import eq, ge, gt, itemgetter, le, lt, ne

from ._record import Record
from .graph import Graph, PrefixMap
from .lexer import Lexer, Token, TokenParser
from .terms import (
    RDF_TYPE,
    XSD_DOUBLE,
    XSD_FLOAT,
    XSD_STRING,
    BlankNode,
    Iri,
    Literal,
    Term,
    TriplePattern,
    Var,
)

# SPARQL 1.1 section 17.3: the operator each FILTER comparison applies
_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
_LEXER = Lexer(
    punctuation={
        "{": "lbrace", "}": "rbrace", "(": "lparen", ")": "rparen", ".": "dot", ",": "comma",
        ";": "semi", "*": "star", **dict.fromkeys(_COMPARE, "op"),
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


class FilterExpr(Record):
    __slots__ = __match_args__ = ("op", "left", "right")

    def __init__(self, op: str,  # one of =, !=, <, <=, >, >= or "regex"
                 left: str,  # variable name
                 right: Term | str):  # constant term, or the pattern text for regex
        super().__init__(op, left, right)


class Query(Record):
    __slots__ = __match_args__ = ("prefixes", "select_vars", "patterns", "filters", "distinct", "order_by",
                                  "limit", "offset")

    def __init__(self, prefixes: PrefixMap, select_vars: list[str] | str,  # explicit names, or "*"
                 patterns: list[TriplePattern], filters: list[FilterExpr] | None = None, distinct: bool = False,
                 order_by: tuple[str, str] | None = None,  # (variable, "asc"|"desc")
                 limit: int | None = None, offset: int | None = None):
        super().__init__(prefixes, select_vars, patterns, [] if filters is None else filters, distinct, order_by,
                         limit, offset)


class ResultSet(Record):
    __slots__ = __match_args__ = ("vars", "rows")

    def __init__(self, vars: list[str], rows: list[dict[str, Term]]):
        super().__init__(vars, rows)


class _QueryParser(TokenParser):
    def __init__(self, text: str):
        super().__init__(_LEXER, text, PrefixMap())

    def parse(self) -> Query:
        return self._whole_text(self._query)

    def _query(self) -> Query:
        while self._at("kw", "PREFIX"):
            self._prefix_declaration()

        self._expect("kw", "SELECT", "SELECT")
        distinct = self._accept("kw", "DISTINCT")

        selected: list[Token] = []  # empty for '*'
        if not self._accept("star"):
            while self._at("var"):
                selected.append(self._take())
            if not selected:
                raise self._error("expected projection variables or '*'", self.tok)

        self._accept("kw", "WHERE")
        self._expect("lbrace", "'{' opening the WHERE block")

        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        while True:
            if self._accept("rbrace"):
                break
            if self._at("eof"):
                raise self._error("unclosed WHERE block: expected '}'", self.tok)
            if self._accept("kw", "FILTER"):
                filters.append(self._filter())
            else:
                patterns.append(self._triple_pattern())
            self._accept("dot")

        # variables that must occur in a pattern, checked once the whole query
        # has parsed so that a syntax error is reported first
        checked = [("selected", tok) for tok in selected]
        order_by = None
        counts: dict[str, int] = {}  # LIMIT and OFFSET
        while self._at("kw"):
            kw = self._take()
            word = kw[1]
            if word == "ORDER":
                self._expect("kw", "BY after ORDER", "BY")
                direction = "asc"
                if self._at("kw", "ASC") or self._at("kw", "DESC"):
                    direction = self._take()[1].lower()  # type: ignore[union-attr]
                    self._expect("lparen", "'(' after ASC/DESC")
                    var = self._expect("var", "ORDER BY variable")
                    self._expect("rparen", "')'")
                else:
                    var = self._expect("var", "ORDER BY variable")
                if order_by is not None:
                    raise self._error("ORDER BY given twice", kw)
                order_by = (var[1], direction)
                checked.append(("ORDER BY", var))
            elif word in ("LIMIT", "OFFSET"):
                if word in counts:
                    raise self._error(f"{word} given twice", kw)
                tok = self._expect("integer", f"{word} count")
                try:
                    counts[word] = int(tok[1])  # type: ignore[arg-type]
                except ValueError:  # more digits than int() reads
                    raise self._error(f"{word} count is too long", tok) from None
                if counts[word] < 0:
                    raise self._error(f"{word} must be non-negative", tok)
            else:
                raise self._error(f"unexpected keyword {word}", kw)

        if not self._at("eof"):
            raise self._error("trailing content after query", self.tok)

        pattern_vars = {name for p in patterns for name in p.variables()}
        for what, tok in checked:
            if tok[1] not in pattern_vars:
                raise self._error(f"{what} variable ?{tok[1]} does not appear in any pattern", tok)
        return Query(
            prefixes=self.prefixes,
            select_vars=[tok[1] for tok in selected] or "*",  # type: ignore[arg-type]
            patterns=patterns,
            filters=filters,
            distinct=distinct,
            order_by=order_by,
            limit=counts.get("LIMIT"),
            offset=counts.get("OFFSET"),
        )

    def _triple_pattern(self) -> TriplePattern:
        s = self._pattern_term(allow_literal=False)
        if self._accept("a"):
            p: object = RDF_TYPE
        else:
            p = self._pattern_term(allow_literal=False)
        o = self._pattern_term(allow_literal=True)
        return TriplePattern(s, p, o)  # type: ignore[arg-type]

    def _pattern_term(self, allow_literal: bool):
        kind, value, _ = self.tok
        if kind == "var":
            self._take()
            return Var(value)  # type: ignore[arg-type]
        if kind in ("iriref", "pname"):
            return self._iri(self._take())
        if kind == "blank":
            self._take()
            return BlankNode(value)  # type: ignore[arg-type]
        if allow_literal and kind in ("string", "integer", "decimal", "boolean"):
            return self._literal()
        raise self._error("triple pattern term expected", self.tok)

    def _literal(self) -> Literal:
        """A number, a boolean, or a quoted string with an optional @lang or ^^datatype."""
        tok = self._take()
        if tok[0] != "string" or not (self._at("langtag") or self._at("dt")):
            return self._make_literal(tok)
        after = self._take()
        if after[0] == "langtag":
            return self._make_literal(tok, after)
        datatype = self._pattern_term(allow_literal=False)
        if not isinstance(datatype, Iri):
            raise self._error("datatype must be an IRI", after)
        return self._make_literal(tok, after, datatype)

    def _filter(self) -> FilterExpr:
        # FILTER ( ?v op const ) | FILTER regex(?v, "pat") | FILTER ( regex(?v, "pat") )
        outer_paren = self._accept("lparen")
        if self._accept("kw", "REGEX"):
            self._expect("lparen", "'(' after regex")
            var = self._expect("var", "regex variable")
            self._expect("comma", "',' between regex arguments")
            pat_tok = self._expect("string", "regex pattern string")
            self._expect("rparen", "')' closing regex")
            try:
                re.compile(pat_tok[1])  # type: ignore[arg-type]
            except (re.error, OverflowError) as exc:
                raise self._error(f"invalid regex: {exc}", pat_tok) from exc
            expr = FilterExpr("regex", var[1], pat_tok[1])  # type: ignore[arg-type]
        elif not outer_paren:
            raise self._error("expected '(' after FILTER", self.tok)
        else:
            var = self._expect("var", "FILTER variable")
            op = self._expect("op", "comparison operator")[1]
            if self._at("var"):
                raise self._error("FILTER right-hand side must be a constant", self.tok)
            expr = FilterExpr(op, var[1], self._pattern_term(allow_literal=True))  # type: ignore[arg-type]
        if outer_paren:
            self._expect("rparen", "')' closing FILTER")
        return expr


def parse_query(text: str) -> Query:
    """Parse query text under the subset grammar."""
    return _QueryParser(text).parse()


# -- evaluation --------------------------------------------------------------


def _passes(f: FilterExpr, value: Term) -> bool:
    if f.op == "regex":
        return isinstance(value, Literal) and re.search(f.right, value.lexical) is not None  # type: ignore[arg-type]
    left = value.numeric_value() if isinstance(value, Literal) else None
    right = f.right.numeric_value() if isinstance(f.right, Literal) else None
    if left is None or right is None:  # not both numbers: terms are (un)equal, never ordered
        # but NaN, the one double or float with no value, equals nothing (op:numeric-equal)
        equal = value == f.right and not (isinstance(value, Literal) and value.datatype in (XSD_DOUBLE, XSD_FLOAT))
        return f.op in ("=", "!=") and equal == (f.op == "=")
    return _COMPARE[f.op](left, right)


def _order_key(term: Term):
    if isinstance(term, Literal):
        n = term.numeric_value()
        if n is not None:
            # a Decimal keys as a float, so integers past float range tie (docs/semantics.md)
            return (0, float(n) if isinstance(n, Decimal) else n, "")
        return (1, term.lexical, term.datatype.value + "\x00" + (term.language or ""))
    if isinstance(term, Iri):
        return (2, term.value, "")
    return (3, term.label, "")


def _take(positions: list[int]) -> Callable[[tuple], tuple]:
    """A function picking the items at ``positions`` out of a tuple, as a tuple."""
    if not positions:
        return lambda t: ()
    if len(positions) == 1:
        i = positions[0]
        return lambda t: (t[i],)
    return itemgetter(*positions)


def _filter_check(f: FilterExpr, position: int, term: Callable[[int], Term]):
    """Test of an id-triple's term at ``position``, memoized per term id."""
    memo: dict[int, bool] = {}

    def check(t: tuple[int, int, int]) -> bool:
        tid = t[position]
        ok = memo.get(tid)
        if ok is None:
            ok = memo[tid] = _passes(f, term(tid))
        return ok

    return check


def _step(match_ids: Callable, const: list[int | None], source: list[int],
          extend: Callable[[tuple], tuple], checks: list[Callable[[tuple], bool]]):
    """One pattern of the plan, as a generator of rows from rows: each row is
    extended by every id-triple that agrees with the pattern's constants
    (``const``, None where unbound) and the row's earlier bindings (``source``,
    the row slot per position, else -1) and passes every check (repeated
    variables, then filters); ``extend`` picks its newly bound ids."""
    cs, cp, co = const
    rs, rp, ro = source

    def step(rows: Iterable[tuple]) -> Iterator[tuple]:
        for row in rows:
            found = match_ids(row[rs] if rs >= 0 else cs,
                              row[rp] if rp >= 0 else cp,
                              row[ro] if ro >= 0 else co)
            for t in found:
                for check in checks:
                    if not check(t):
                        break
                else:
                    yield row + extend(t)

    return step


def _plan(query: Query, graph: Graph) -> tuple[list[Callable], dict[str, int]] | None:
    """The join steps and each variable's row slot, fixed before the first
    row; None when no row can survive (a constant the graph never interned,
    or a filter on a variable that no pattern binds)."""
    counts = [graph.count_matching(p) for p in query.patterns]
    names = [p.variables() for p in query.patterns]
    remaining = list(range(len(query.patterns)))
    bound: set[str] = set()
    order = []
    while remaining:
        best = min(remaining, key=lambda i: (
            sum(1 for n in names[i] if n not in bound), counts[i], i))
        remaining.remove(best)
        order.append(best)
        bound.update(names[best])
    if any(f.left not in bound for f in query.filters):
        return None

    slots: dict[str, int] = {}
    steps = []
    for i in order:
        const: list[int | None] = [None, None, None]
        source = [-1, -1, -1]
        new_positions: list[int] = []
        checks: list[Callable[[tuple], bool]] = []
        first_at: dict[str, int] = {}
        for pos, slot in enumerate(query.patterns[i].slots()):
            if isinstance(slot, Var):
                if slot.name in first_at:
                    a = first_at[slot.name]
                    checks.append(lambda t, a=a, b=pos: t[a] == t[b])
                elif slot.name in slots:
                    source[pos] = slots[slot.name]
                else:
                    first_at[slot.name] = pos
                    slots[slot.name] = len(slots)
                    new_positions.append(pos)
            elif slot is not None:
                const[pos] = graph.term_id(slot)
                if const[pos] is None:
                    return None
        checks += [_filter_check(f, first_at[f.left], graph.term) for f in query.filters if f.left in first_at]
        steps.append(_step(graph.match_ids, const, source, _take(new_positions), checks))
    return steps, slots


def evaluate(query: Query, graph: Graph) -> ResultSet:
    """Join, filter, order, project, deduplicate, and slice."""
    out_vars = (list(dict.fromkeys(name for p in query.patterns for name in p.variables()))
                if query.select_vars == "*" else list(query.select_vars))
    plan = _plan(query, graph)
    if plan is None:
        return ResultSet(vars=out_vars, rows=[])
    steps, slots = plan

    rows: Iterable[tuple] = [()]
    for step in steps:
        rows = step(rows)

    term = graph.term
    if query.order_by is not None and query.order_by[0] in slots:
        var, direction = query.order_by
        slot = slots[var]
        rows = list(rows)
        keys = {tid: _order_key(term(tid)) for tid in {row[slot] for row in rows}}
        rows.sort(key=lambda r: keys[r[slot]], reverse=(direction == "desc"))

    names = [name for name in out_vars if name in slots]
    rows = map(_take([slots[name] for name in names]), rows)
    if query.distinct:  # first occurrences, in order
        seen: set[tuple] = set()
        rows = (row for row in rows if not (row in seen or seen.add(row)))
    rows = islice(islice(rows, query.offset or 0, None), query.limit)
    return ResultSet(vars=out_vars, rows=[
        {name: term(tid) for name, tid in zip(names, row)} for row in rows
    ])


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


def _sparql_json(rs: ResultSet) -> str:
    """The text of ``json.dumps(payload, indent=2)`` for the SPARQL JSON
    payload, written directly (with ``indent`` set, the json module falls back
    to its pure-Python encoder); each distinct term is encoded once."""
    enc = encode_basestring_ascii
    keys = [(name, enc(name) + ": ") for name in rs.vars]
    chunks: dict[Term, str] = {}
    rows = []
    for row in rs.rows:
        fields = []
        for name, key in keys:
            term = row.get(name)
            if term is None:
                continue
            chunk = chunks.get(term)
            if chunk is None:
                members = ",\n          ".join(
                    f"{enc(k)}: {enc(v)}" for k, v in _json_term(term).items())
                chunk = chunks[term] = "{\n          " + members + "\n        }"
            fields.append(key + chunk)
        rows.append("{\n        " + ",\n        ".join(fields) + "\n      }" if fields else "{}")
    head = ",\n      ".join(enc(name) for name in rs.vars)
    vars_text = "[\n      " + head + "\n    ]" if rs.vars else "[]"
    bindings = "[\n      " + ",\n      ".join(rows) + "\n    ]" if rows else "[]"
    return ('{\n  "head": {\n    "vars": ' + vars_text + '\n  },\n'
            '  "results": {\n    "bindings": ' + bindings + "\n  }\n}")


def serialize_results(rs: ResultSet, format: str = "sparql-json") -> str:
    """Render a result set as W3C SPARQL JSON or RFC-4180 CSV."""
    if format == "sparql-json":
        return _sparql_json(rs)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(rs.vars)
        for row in rs.rows:
            writer.writerow([_csv_term(row[name]) if name in row else "" for name in rs.vars])
        return buf.getvalue()
    raise ValueError(f"unknown result format: {format!r}")
