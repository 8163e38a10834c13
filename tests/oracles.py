"""Independent oracles and random-input generators for the test suite.

Everything in this module is deliberately written the slow, obvious way:
linear scans, full assignment enumeration, set-comprehension fixpoints,
reachability by BFS.  None of it touches the indexed store, the join
planner, or the reasoner's sweep machinery, so agreement between the
library and these functions is real evidence and not the same code run
twice.  Treat this file as frozen; fix the library, not the oracle.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter, defaultdict
from decimal import Decimal

from plantkb.terms import BlankNode, Iri, Literal, Triple, Var

# Vocabulary spelled out from scratch rather than imported from the library.
_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
_OWL = "http://www.w3.org/2002/07/owl#"
_XSD = "http://www.w3.org/2001/XMLSchema#"

TYPE = Iri(_RDF + "type")
SUBCLASS = Iri(_RDFS + "subClassOf")
SUBPROP = Iri(_RDFS + "subPropertyOf")
DOMAIN = Iri(_RDFS + "domain")
RANGE = Iri(_RDFS + "range")
LABEL = Iri(_RDFS + "label")
CLASS = Iri(_OWL + "Class")
THING = Iri(_OWL + "Thing")
OBJECT_PROPERTY = Iri(_OWL + "ObjectProperty")
DATATYPE_PROPERTY = Iri(_OWL + "DatatypeProperty")
TRANSITIVE = Iri(_OWL + "TransitiveProperty")
SYMMETRIC = Iri(_OWL + "SymmetricProperty")
INVERSE = Iri(_OWL + "inverseOf")
DISJOINT = Iri(_OWL + "disjointWith")
STRING = Iri(_XSD + "string")
INTEGER = Iri(_XSD + "integer")
DECIMAL = Iri(_XSD + "decimal")
BOOLEAN = Iri(_XSD + "boolean")
DOUBLE = Iri(_XSD + "double")
LANG_STRING = Iri(_RDF + "langString")


# -- pattern matching by linear scan ------------------------------------------


def scan_match(triples, pattern):
    """Check every triple against the pattern, one by one.

    Slots may be concrete terms, Var objects (repeated names must agree),
    or None wildcards.  Returns matches in the iteration order of `triples`.
    """
    out = []
    for t in triples:
        env = {}
        ok = True
        for slot, value in zip(pattern.slots(), (t.subject, t.predicate, t.object)):
            if slot is None:
                continue
            if isinstance(slot, Var):
                if env.setdefault(slot.name, value) != value:
                    ok = False
                    break
            elif slot != value:
                ok = False
                break
        if ok:
            out.append(t)
    return out


# -- rule closure by brute re-derivation ---------------------------------------


def _derive_once(ts: set[Triple]) -> set[Triple]:
    derived: set[Triple] = set()

    sup: dict = defaultdict(set)
    typed: list[tuple] = []
    for t in ts:
        if t.predicate == SUBCLASS:
            sup[t.subject].add(t.object)
        elif t.predicate == TYPE:
            typed.append((t.subject, t.object))
    declared = {s for s, o in typed if o == CLASS}
    transitive_props = {s for s, o in typed if o == TRANSITIVE and isinstance(s, Iri)}
    symmetric_props = {s for s, o in typed if o == SYMMETRIC and isinstance(s, Iri)}

    # subclass transitivity, never producing a reflexive edge
    for a, bs in sup.items():
        for b in bs:
            if isinstance(b, Literal):
                continue
            for c in sup.get(b, ()):
                if c != a:
                    derived.add(Triple(a, SUBCLASS, c))

    # type inheritance up the subclass relation
    for x, a in typed:
        if isinstance(a, Literal):
            continue
        for b in sup.get(a, ()):
            derived.add(Triple(x, TYPE, b))

    # domain: any use of p types its subject
    for t in ts:
        if t.predicate == DOMAIN and isinstance(t.subject, Iri):
            for u in ts:
                if u.predicate == t.subject:
                    derived.add(Triple(u.subject, TYPE, t.object))

    # range: types the object, only for declared classes and non-literal objects
    for t in ts:
        if t.predicate == RANGE and isinstance(t.subject, Iri) and t.object in declared:
            for u in ts:
                if u.predicate == t.subject and not isinstance(u.object, Literal):
                    derived.add(Triple(u.object, TYPE, t.object))

    # subproperty: every p edge is also a q edge
    for t in ts:
        if t.predicate == SUBPROP and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            for u in ts:
                if u.predicate == t.subject:
                    derived.add(Triple(u.subject, t.object, u.object))

    # transitive property chains
    for p in transitive_props:
        hop: dict = defaultdict(set)
        for u in ts:
            if u.predicate == p:
                hop[u.subject].add(u.object)
        for x, ys in hop.items():
            for y in ys:
                if isinstance(y, Literal):
                    continue
                for z in hop.get(y, ()):
                    derived.add(Triple(x, p, z))

    # inverse fires only in the asserted direction
    for t in ts:
        if t.predicate == INVERSE and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            for u in ts:
                if u.predicate == t.subject and not isinstance(u.object, Literal):
                    derived.add(Triple(u.object, t.object, u.subject))

    # symmetric properties
    for p in symmetric_props:
        for u in ts:
            if u.predicate == p and not isinstance(u.object, Literal):
                derived.add(Triple(u.object, p, u.subject))

    # every declared class sits under the root
    for s in declared:
        if s != THING:
            derived.add(Triple(s, SUBCLASS, THING))

    return derived


def closure(triples) -> set[Triple]:
    """Least fixpoint of the nine inference rules, by brute re-derivation."""
    ts = set(triples)
    while True:
        new = _derive_once(ts) - ts
        if not new:
            return ts
        ts |= new


# -- query answering by assignment enumeration ---------------------------------


def _integer(lexical: str) -> int:
    """The exact value of an xsd:integer lexical form of any length.

    W3C XML Schema Part 2 §3.3.13 gives xsd:integer an unbounded value
    space, but ``int(str)`` refuses more than 4,300 digits, so the digits are
    read in short runs and accumulated: value = value * 10**len(run) + run.
    """
    sign = -1 if lexical.startswith("-") else 1
    digits = lexical[1:] if lexical[:1] in ("+", "-") else lexical
    value = 0
    for start in range(0, len(digits), 1000):
        run = digits[start:start + 1000]
        value = value * 10 ** len(run) + int(run)
    return sign * value


def _num(term):
    if not isinstance(term, Literal):
        return None
    dt = term.datatype.value
    if dt == _XSD + "integer":
        return _integer(term.lexical)
    if dt == _XSD + "decimal":
        return Decimal(term.lexical)
    if dt in (_XSD + "double", _XSD + "float"):
        v = float(term.lexical)
        return None if v != v else v
    return None


def filter_passes(op: str, value, rhs) -> bool:
    """Filter semantics: numeric-aware (in)equality, numeric-only ordering,
    regex against plain literal text."""
    if op == "regex":
        return isinstance(value, Literal) and re.search(rhs, value.lexical) is not None
    lv, rv = _num(value), _num(rhs)
    if op in ("=", "!="):
        equal = (lv == rv) if (lv is not None and rv is not None) else (value == rhs)
        return equal if op == "=" else not equal
    if lv is None or rv is None:
        return False
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


def enumerate_select(triples, patterns, filters=(), select=None) -> Counter:
    """Try every assignment of graph terms to variables.

    `patterns` are (s, p, o) tuples whose slots are terms or variable-name
    strings.  `filters` are (op, var, rhs) tuples.  Returns the multiset of
    projected rows (tuples in `select` order) with no dedup, order, or slice
    applied.  Exponential in the variable count by design; keep inputs small.
    """
    facts = {(t.subject, t.predicate, t.object) for t in triples}
    names: list[str] = []
    for pat in patterns:
        for slot in pat:
            if isinstance(slot, str) and slot not in names:
                names.append(slot)
    if select is None:
        select = list(names)
    pool = {x for f in facts for x in f}
    rows: Counter = Counter()
    for combo in itertools.product(pool, repeat=len(names)):
        env = dict(zip(names, combo))
        ok = True
        for pat in patterns:
            fact = tuple(env[s] if isinstance(s, str) else s for s in pat)
            if fact not in facts:
                ok = False
                break
        if ok and all(filter_passes(op, env[v], rhs) for op, v, rhs in filters):
            rows[tuple(env[v] for v in select)] += 1
    return rows


# -- graph reachability ---------------------------------------------------------


def bfs_reachable(edges, start) -> set:
    """Everything reachable from start, start included."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in edges.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def naive_sccs(edges) -> list[set]:
    """Mutual-reachability partition via one BFS per node."""
    nodes = set(edges)
    for targets in edges.values():
        nodes.update(targets)
    reach = {n: bfs_reachable(edges, n) for n in nodes}
    seen: set = set()
    out = []
    for n in nodes:
        if n in seen:
            continue
        comp = {m for m in nodes if m in reach[n] and n in reach[m]}
        seen.update(comp)
        out.append(comp)
    return out


# -- DOT well-formedness ---------------------------------------------------------

_DOT_HEADER = re.compile(r"^digraph ([A-Za-z_][A-Za-z0-9_]*) \{$")
_QUOTED = r'"((?:[^"\\\n]|\\.)*)"'
_DOT_NODE = re.compile(rf"^    {_QUOTED} \[label={_QUOTED}\];$")
_DOT_EDGE = re.compile(rf"^    {_QUOTED} -> {_QUOTED}(?: \[label={_QUOTED}\])?;$")


def parse_dot(text: str):
    """Validate the restricted DOT shape; return (name, node ids, edges).

    Accepts exactly: a digraph header, an optional rankdir line, node
    statements with quoted ids and label attributes, edge statements with an
    optional label, and a closing brace.  Every edge endpoint must name a
    declared node and node ids must be unique.
    """
    assert text.endswith("\n"), "missing trailing newline"
    body = text.split("\n")[:-1]
    header = _DOT_HEADER.match(body[0])
    assert header, f"bad DOT header: {body[0]!r}"
    assert body[-1] == "}", f"bad DOT closer: {body[-1]!r}"
    nodes: list[str] = []
    edges = []
    for line in body[1:-1]:
        if line == "    rankdir=BT;":
            continue
        nm = _DOT_NODE.match(line)
        if nm:
            nodes.append(nm.group(1))
            continue
        em = _DOT_EDGE.match(line)
        assert em, f"unrecognized DOT line: {line!r}"
        edges.append((em.group(1), em.group(2), em.group(3)))
    assert len(nodes) == len(set(nodes)), "duplicate node statement"
    declared = set(nodes)
    for a, b, _ in edges:
        assert a in declared and b in declared, f"edge endpoint not declared: {a!r} -> {b!r}"
    return header.group(1), nodes, edges


# -- statement counting for the hand-written fixtures ----------------------------


def count_statements(text: str) -> int:
    """Count triples in fixture-style Turtle without parsing it.

    Relies on the formatting conventions of the bundled fixtures: one
    predicate-object pair per line, no commas or semicolons inside literals,
    no multi-line strings, full-line comments only.
    """
    n = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("@prefix"):
            continue
        n += line.count(",")
        if line.endswith(";") or line.endswith("."):
            n += 1
    return n


# -- random input generators -----------------------------------------------------


def random_ontology(rng, max_classes: int = 30, max_individuals: int = 50) -> set[Triple]:
    """A random ontology-shaped graph whose subclass relation is a DAG.

    Subclass and subproperty edges only point from a higher index to a lower
    one, so cycles are impossible by construction.
    """
    ns = "http://example.test/gen#"
    n_cls = rng.randint(2, max_classes)
    classes = [Iri(f"{ns}C{i}") for i in range(n_cls)]
    triples: set[Triple] = set()
    for c in classes:
        triples.add(Triple(c, TYPE, CLASS))
    for j in range(1, n_cls):
        for i in range(j):
            if rng.random() < 1.5 / j:
                triples.add(Triple(classes[j], SUBCLASS, classes[i]))

    props = [Iri(f"{ns}p{i}") for i in range(rng.randint(0, 6))]
    for k, p in enumerate(props):
        if rng.random() < 0.35:
            triples.add(Triple(p, TYPE, TRANSITIVE))
        if rng.random() < 0.30:
            triples.add(Triple(p, TYPE, SYMMETRIC))
        if rng.random() < 0.50:
            triples.add(Triple(p, DOMAIN, rng.choice(classes)))
        if rng.random() < 0.50:
            triples.add(Triple(p, RANGE, rng.choice(classes)))
        if k and rng.random() < 0.30:
            triples.add(Triple(p, SUBPROP, props[rng.randrange(k)]))
        if k and rng.random() < 0.25:
            triples.add(Triple(p, INVERSE, props[rng.randrange(k)]))

    individuals = [Iri(f"{ns}i{i}") for i in range(rng.randint(0, max_individuals))]
    for x in individuals:
        if rng.random() < 0.8:
            triples.add(Triple(x, TYPE, rng.choice(classes)))
    if props and individuals:
        for _ in range(rng.randint(0, len(individuals))):
            triples.add(Triple(rng.choice(individuals), rng.choice(props), rng.choice(individuals)))
        for _ in range(rng.randint(0, 4)):
            triples.add(
                Triple(rng.choice(individuals), rng.choice(props), Literal(str(rng.randint(0, 99)), INTEGER))
            )
    return triples


_WORDS = ["alpha", "beta", "gamma", "delta", "rosette", "stem", "leaf", "root"]
_TRICKY = ['say "hi"', "back\\slash", "tab\there", "line\nbreak", "naïve coördinate"]


def random_literal(rng) -> Literal:
    kind = rng.randrange(6)
    if kind == 0:
        return Literal(str(rng.randint(-500, 500)), INTEGER)
    if kind == 1:
        return Literal(f"{rng.randint(-40, 40)}.{rng.randint(0, 99):02d}", DECIMAL)
    if kind == 2:
        return Literal(rng.choice(["true", "false"]), BOOLEAN)
    if kind == 3:
        return Literal(f"{rng.randint(1, 9)}.{rng.randint(0, 9)}e{rng.randint(-3, 3)}", DOUBLE)
    if kind == 4:
        return Literal(rng.choice(_WORDS), LANG_STRING, language=rng.choice(["en", "de", "en-GB"]))
    return Literal(rng.choice(_WORDS + _TRICKY))


def random_document_triples(rng, max_triples: int = 200) -> set[Triple]:
    """Blank-node-free triples with mixed IRI and literal objects (all of
    string/integer/decimal/boolean/double/language-tagged appear over the
    generator's run)."""
    ns = rng.choice(["http://example.test/doc#", "http://example.test/doc/", "urn:doc:"])
    subjects = [Iri(f"{ns}s{i}") for i in range(rng.randint(1, 12))]
    predicates = [Iri(f"{ns}p{i}") for i in range(rng.randint(1, 6))]
    objects = subjects + [Iri(f"{ns}o{i}") for i in range(rng.randint(0, 6))]
    triples: set[Triple] = set()
    for _ in range(rng.randint(1, max_triples)):
        o = random_literal(rng) if rng.random() < 0.5 else rng.choice(objects)
        triples.add(Triple(rng.choice(subjects), rng.choice(predicates), o))
    return triples


def _query_term_text(term) -> str:
    """Render a term the way the query grammar spells it."""
    if isinstance(term, str):
        return f"?{term}"
    if isinstance(term, Iri):
        return f"<{term.value}>"
    lit: Literal = term
    if lit.datatype == INTEGER or lit.datatype == DECIMAL:
        return lit.lexical
    if lit.datatype == BOOLEAN:
        return lit.lexical
    if lit.language is not None:
        return f'"{lit.lexical}"@{lit.language}'
    if lit.datatype == STRING:
        return f'"{lit.lexical}"'
    return f'"{lit.lexical}"^^<{lit.datatype.value}>'


def random_query_case(rng):
    """A random small graph plus a random 1-3 pattern query over it.

    Returns (triples, query text, patterns, filters, select names) where
    patterns/filters/select use the tuple convention of enumerate_select.
    Query literals avoid characters the text rendering would need to escape.
    """
    ns = "http://example.test/q#"
    iris = [Iri(f"{ns}r{i}") for i in range(rng.randint(4, 9))]
    literals = [
        Literal(str(rng.randint(0, 30)), INTEGER),
        Literal(f"{rng.randint(0, 9)}.{rng.randint(0, 9)}", DECIMAL),
        Literal(rng.choice(_WORDS)),
    ]
    predicates = iris[: rng.randint(1, 3)]
    triples: set[Triple] = set()
    for _ in range(rng.randint(2, 100)):
        o = rng.choice(literals) if rng.random() < 0.4 else rng.choice(iris)
        triples.add(Triple(rng.choice(iris), rng.choice(predicates), o))

    var_names = ["x", "y", "z"][: rng.randint(1, 3)]

    def pick_slot(position: str):
        if rng.random() < 0.55:
            return rng.choice(var_names)
        if position == "s":
            return rng.choice(iris)
        if position == "p":
            return rng.choice(predicates)
        return rng.choice(literals) if rng.random() < 0.35 else rng.choice(iris)

    patterns = []
    for _ in range(rng.randint(1, 3)):
        patterns.append((pick_slot("s"), pick_slot("p"), pick_slot("o")))
    used = [s for pat in patterns for s in pat if isinstance(s, str)]
    if not used:
        s, p, o = patterns[0]
        patterns[0] = (rng.choice(var_names), p, o)
        used = [patterns[0][0]]
    used_unique = list(dict.fromkeys(used))

    filters = []
    if rng.random() < 0.45:
        fvar = rng.choice(used_unique)
        if rng.random() < 0.3:
            filters.append(("regex", fvar, rng.choice(["^a", "a", "e", "t.a", "ta$"])))
        else:
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            rhs = rng.choice(literals) if rng.random() < 0.8 else rng.choice(iris)
            filters.append((op, fvar, rhs))

    if rng.random() < 0.25:
        select = list(used_unique)
        select_clause = "*"
    else:
        select = rng.sample(used_unique, rng.randint(1, len(used_unique)))
        select_clause = " ".join(f"?{v}" for v in select)

    parts = []
    for s, p, o in patterns:
        parts.append(f"{_query_term_text(s)} {_query_term_text(p)} {_query_term_text(o)}")
    for op, v, rhs in filters:
        if op == "regex":
            parts.append(f'FILTER regex(?{v}, "{rhs}")')
        else:
            parts.append(f"FILTER(?{v} {op} {_query_term_text(rhs)})")
    text = f"SELECT {select_clause} WHERE {{ {' . '.join(parts)} }}"
    return triples, text, patterns, filters, select
