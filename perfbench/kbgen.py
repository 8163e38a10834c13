"""Seeded input generators for the plantkb benchmark.

Everything here is a pure function of its seed: the same seed gives the same
Turtle text and the same request list, byte for byte.  The program under test
only ever sees the generated Turtle files and HTTP requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from urllib.parse import quote, urlencode

NS = "http://bench.plantkb.example/kb#"

PREFIXES = (
    f"@prefix ex: <{NS}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)

QUERY_PREFIXES = (
    f"PREFIX ex: <{NS}>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
)


@dataclass(frozen=True)
class KbShape:
    """Sizes of one synthetic knowledge base.

    ``levels`` is the number of classes on each level of the class tree; a
    class picks its parent at random on the level above, so every class has
    a fixed depth and the closure size varies little between seeds.
    ``tiers`` splits the individuals into partOf tiers: each individual of
    tier k > 0 is partOf one random individual of tier k - 1.
    """

    levels: tuple[int, ...]
    tiers: tuple[int, ...]
    adjacent_edges: int
    regulates_edges: int
    disjoint_pairs: int


# About 13.7k asserted triples and 41k after closure.
LARGE = KbShape(levels=(1, 4, 16, 64, 215), tiers=(250, 500, 900, 1350),
                adjacent_edges=500, regulates_edges=500, disjoint_pairs=20)
# The knowledge base the serve workloads load: small enough that a query
# costs a few milliseconds, so per-request overhead is not hidden.
MEDIUM = KbShape(levels=(1, 3, 9, 27), tiers=(40, 80, 120, 160),
                 adjacent_edges=60, regulates_edges=60, disjoint_pairs=4)


def class_name(i: int) -> str:
    return f"C{i:04d}"


def individual_name(i: int) -> str:
    return f"I{i:05d}"


def synthetic_kb(seed: int, shape: KbShape = LARGE) -> str:
    """A lint-clean ontology with a random class tree and typed individuals."""
    rng = random.Random(f"kb:{seed}")
    lines = [PREFIXES]

    by_level: list[list[int]] = []
    parent: dict[int, int] = {}
    n = 0
    for size in shape.levels:
        level = list(range(n, n + size))
        if by_level:
            for c in level:
                parent[c] = rng.choice(by_level[-1])
        by_level.append(level)
        n += size
    n_classes = n
    has_child = set(parent.values())
    leaves = [c for c in range(n_classes) if c not in has_child]

    for c in range(n_classes):
        decl = f'ex:{class_name(c)} a owl:Class ;\n    rdfs:label "class {c}"'
        if c in parent:
            decl += f" ;\n    rdfs:subClassOf ex:{class_name(parent[c])}"
        lines.append(decl + " .")

    deepest = by_level[-1]
    for _ in range(shape.disjoint_pairs):
        a, b = rng.sample(deepest, 2)
        lines.append(f"ex:{class_name(a)} owl:disjointWith ex:{class_name(b)} .")

    # The structural properties have the root class as domain and range, as
    # upper ontologies do: every edge re-derives a type the tree already gives.
    top = by_level[1]
    root = f"ex:{class_name(0)}"
    lines.append(
        'ex:partOf a owl:ObjectProperty, owl:TransitiveProperty ;\n    rdfs:label "part of" ;\n'
        f'    owl:inverseOf ex:hasPart ;\n    rdfs:domain {root} ;\n    rdfs:range {root} .\n'
        'ex:hasPart a owl:ObjectProperty ;\n    rdfs:label "has part" ;\n'
        f'    rdfs:domain {root} ;\n    rdfs:range {root} .\n'
        'ex:adjacentTo a owl:ObjectProperty, owl:SymmetricProperty ;\n    rdfs:label "adjacent to" ;\n'
        f'    rdfs:domain {root} ;\n    rdfs:range {root} .\n'
        'ex:interactsWith a owl:ObjectProperty ;\n    rdfs:label "interacts with" .\n'
        'ex:regulates a owl:ObjectProperty ;\n    rdfs:label "regulates" ;\n'
        '    rdfs:subPropertyOf ex:interactsWith ;\n'
        f"    rdfs:domain ex:{class_name(top[0])} ;\n    rdfs:range ex:{class_name(top[-1])} .\n"
        'ex:score a owl:DatatypeProperty ;\n    rdfs:label "score" ;\n    rdfs:range xsd:integer .'
    )

    # Every leaf class gets an instance (no orphan classes); the rest of the
    # individuals are typed by random classes of the two deepest levels.
    n_ind = sum(shape.tiers)
    typing_pool = by_level[-1] + by_level[-2]
    ind_class = [leaves[i] if i < len(leaves) else rng.choice(typing_pool) for i in range(n_ind)]
    rng.shuffle(ind_class)
    for i in range(n_ind):
        lines.append(
            f"ex:{individual_name(i)} a ex:{class_name(ind_class[i])} ;\n"
            f'    rdfs:label "individual {i}" ;\n    ex:score {rng.randrange(100)} .'
        )

    start = 0
    prev: list[int] = []
    for size in shape.tiers:
        tier = list(range(start, start + size))
        for i in tier if prev else ():
            lines.append(f"ex:{individual_name(i)} ex:partOf ex:{individual_name(rng.choice(prev))} .")
        prev = tier
        start += size
    for prop, count in (("adjacentTo", shape.adjacent_edges), ("regulates", shape.regulates_edges)):
        for _ in range(count):
            a, b = rng.sample(range(n_ind), 2)
            lines.append(f"ex:{individual_name(a)} ex:{prop} ex:{individual_name(b)} .")
    return "\n".join(lines) + "\n"


LARGE_QUERIES = (
    # class scan with ORDER BY ... LIMIT
    QUERY_PREFIXES + "SELECT ?x ?l WHERE { ?x a ex:C0005 . ?x rdfs:label ?l } ORDER BY ?l LIMIT 25\n",
    # 2-pattern join with a numeric FILTER, over transitive and inverse edges
    QUERY_PREFIXES + "SELECT ?x ?y ?s WHERE { ?x ex:hasPart ?y . ?y ex:score ?s FILTER(?s >= 95) }\n",
    # subject lookup
    QUERY_PREFIXES + "SELECT ?p ?o WHERE { ex:I00042 ?p ?o }\n",
)


def small_ontology(rng: random.Random, index: int) -> str:
    """A small random ontology; some carry lint findings, none is malformed."""
    ns = f"http://bench.plantkb.example/small{index}#"
    lines = [f"@prefix s: <{ns}> .", PREFIXES]
    n_cls = rng.randint(3, 25)
    for c in range(n_cls):
        decl = f"s:K{c} a owl:Class"
        if rng.random() < 0.9:
            decl += f' ;\n    rdfs:label "kind {c}"'
        supers = {rng.randrange(c) for _ in range(rng.randint(0, 2))} if c else set()
        for p in sorted(supers):
            decl += f" ;\n    rdfs:subClassOf s:K{p}"
        lines.append(decl + " .")
    n_props = rng.randint(0, 5)
    for k in range(n_props):
        decl = f's:p{k} a owl:ObjectProperty ;\n    rdfs:label "relation {k}"'
        if rng.random() < 0.35:
            decl += " ;\n    a owl:TransitiveProperty"
        if rng.random() < 0.3:
            decl += " ;\n    a owl:SymmetricProperty"
        if rng.random() < 0.5:
            decl += f" ;\n    rdfs:domain s:K{rng.randrange(n_cls)}"
        if rng.random() < 0.5:
            decl += f" ;\n    rdfs:range s:K{rng.randrange(n_cls)}"
        if k and rng.random() < 0.3:
            decl += f" ;\n    rdfs:subPropertyOf s:p{rng.randrange(k)}"
        if k and rng.random() < 0.25:
            decl += f" ;\n    owl:inverseOf s:p{rng.randrange(k)}"
        lines.append(decl + " .")
    n_ind = rng.randint(0, 40)
    for i in range(n_ind):
        lines.append(f's:x{i} a s:K{rng.randrange(n_cls)} ;\n    rdfs:label "thing {i}" .')
    if n_props and n_ind > 1:
        for _ in range(rng.randint(0, 2 * n_ind)):
            a, b = rng.sample(range(n_ind), 2)
            lines.append(f"s:x{a} s:p{rng.randrange(n_props)} s:x{b} .")
    return "\n".join(lines) + "\n"


def small_corpus(seed: int, count: int) -> list[str]:
    rng = random.Random(f"small:{seed}")
    return [small_ontology(rng, i) for i in range(count)]


SMALL_QUERY = (
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "SELECT ?x ?c WHERE { ?x a ?c . ?c rdfs:label ?l } ORDER BY ?x LIMIT 50\n"
)


@dataclass(frozen=True)
class Request:
    """One HTTP request of the serve mix.

    ``query`` and ``fmt`` describe what the body must equal; ``status`` is the
    expected response status (400 for the deliberately invalid queries).
    """

    method: str
    target: str
    headers: tuple[tuple[str, str], ...]
    body: bytes
    query: str
    fmt: str
    status: int


_ACCEPT = {"sparql-json": "application/sparql-results+json", "csv": "text/csv"}


def serve_queries(rng: random.Random, shape: KbShape = MEDIUM) -> list[str]:
    """The distinct query texts of one request mix.

    The number of queries of each kind, and the property of each join, are
    the same for every seed, so the cost mix varies little between seeds.
    """
    n_classes = sum(shape.levels)
    n_ind = sum(shape.tiers)
    deep = range(n_classes - shape.levels[-1] - shape.levels[-2], n_classes)
    out = []
    for _ in range(12):
        out.append(QUERY_PREFIXES + f"SELECT ?p ?o WHERE {{ ex:{individual_name(rng.randrange(n_ind))} ?p ?o }}")
    for order in ("?l", "DESC(?l)", "?x") * 3:
        c = class_name(rng.choice(deep))
        out.append(
            QUERY_PREFIXES
            + f"SELECT ?x ?l WHERE {{ ?x a ex:{c} . ?x rdfs:label ?l }} ORDER BY {order} LIMIT 10"
        )
    for prop in ("partOf", "hasPart", "adjacentTo", "interactsWith") * 2:
        out.append(
            QUERY_PREFIXES
            + f"SELECT ?x ?y ?s WHERE {{ ?x ex:{prop} ?y . ?y ex:score ?s FILTER(?s > {rng.randrange(80, 100)}) }}"
        )
    return out


INVALID_QUERIES = (
    "SELECT ?x WHERE { ?x ?p }",
    "SELECT ?x WHERE { ?x a ex:C0001 }",
    "SELECT ?x WHERE { ?x ?p ?o } LIMIT many",
)


def _spread_evenly(rng: random.Random, items: list, count: int) -> list:
    """``count`` items drawn round-robin from ``items``, in a seeded order."""
    out = [items[i % len(items)] for i in range(count)]
    rng.shuffle(out)
    return out


def request_mix(seed: int, count: int, shape: KbShape = MEDIUM) -> list[Request]:
    """``count`` requests mixing queries, result formats, methods and 4 % invalid queries.

    Every query, format and method occurs in fixed proportions; the seed
    picks the query constants and the order.
    """
    rng = random.Random(f"mix:{seed}")
    queries = serve_queries(rng, shape)
    n_invalid = max(1, count // 25)
    texts = ([(q, 200) for q in _spread_evenly(rng, queries, count - n_invalid)]
             + [(q, 400) for q in _spread_evenly(rng, list(INVALID_QUERIES), n_invalid)])
    rng.shuffle(texts)
    formats = _spread_evenly(rng, ["sparql-json"] * 7 + ["csv"] * 3, count)
    methods = _spread_evenly(rng, ["GET"] * 5 + ["FORM"] * 3 + ["RAW"] * 2, count)
    out = []
    for (query, status), fmt, method in zip(texts, formats, methods):
        headers = [("Accept", _ACCEPT[fmt])]
        if method == "GET":
            out.append(Request("GET", "/sparql?" + urlencode({"query": query}, quote_via=quote),
                               tuple(headers), b"", query, fmt, status))
            continue
        if method == "FORM":
            body = urlencode({"query": query}).encode("utf-8")
            headers.append(("Content-Type", "application/x-www-form-urlencoded"))
        else:
            body = query.encode("utf-8")
            headers.append(("Content-Type", "application/sparql-query"))
        out.append(Request("POST", "/sparql", tuple(headers), body, query, fmt, status))
    return out
