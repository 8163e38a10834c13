"""HTTP SPARQL service hosting one read-only dataset.

Routes:
    GET/POST /sparql   query via ?query=, application/sparql-query body, or
                       application/x-www-form-urlencoded body; responds with
                       SPARQL JSON results (or CSV when Accept prefers text/csv);
                       an Accept naming only types it cannot produce (TSV,
                       XML) gets JSON with 200, not 406 (RFC 9110 §12.5.1
                       allows either); no query, or more than one, gets 400
                       (SPARQL 1.1 Protocol, section 2.1)
    GET /health        200 "ok"
    GET /stats         {"triples": n, "classes": n, "properties": n, "individuals": n}

The dataset is parsed (and optionally materialized) once at startup into an
immutable snapshot, so /stats never drifts and a query's answer depends on
nothing but its text and the result format.  GET and POST of the same query
produce byte-identical bodies.  The bind address comes from the --bind flag,
then the PLANTKB_BIND environment variable, then 127.0.0.1:3030.

A repeated query is answered from a per-server least-recently-used cache
bounded by ANSWER_CACHE_BYTES; :class:`plantkb._http.AnswerCache` states
what it keeps and how.

Every request's body is read before its method runs, whatever the method and
path, so a body is never taken as the next request on the connection.  A body
sent with Transfer-Encoding (411: chunked bodies are not decoded), with a
Content-Length that is not a non-negative integer (400), or over
MAX_BODY_BYTES, 1 MiB (413), is never read: the answer carries Connection:
close, the connection is half-closed, and what the client still sends is
dropped for up to LINGER_S, so that the client can read it first.

A connection that sends nothing for REQUEST_TIMEOUT_S (30 s) is closed; if it
stalls inside a request body, it first gets 408 with Connection: close.

Connections are served on at most SERVER_THREADS (32) reused worker threads,
and wait for one in a queue of at most ACCEPT_QUEUE (64); while that is full
the server accepts nothing and the kernel's listen backlog holds what comes.
A keep-alive connection keeps its worker, an idle one up to REQUEST_TIMEOUT_S.

The refusals the stdlib makes before a do_* method runs (a bad request line,
414, 431, 501, 505) are plain text with an HTTP/1.1 status line and
Connection: close, like every other refusal.  One empty line before a
request line is ignored.

A HEAD request gets headers only.  Each response logs one INFO line: method,
path (both "-" when the request line could not be read), status, and ms from
reading the request line to writing the body.

This module imports no HTTP module and not ``logging``, so the commands that
import it for its configuration load neither.  The request handler and the
``plantkb.endpoint`` logger live in :mod:`plantkb._http`, which imports
``http.server``, ``socket``, ``queue`` and ``logging``;
:func:`make_server` imports it, and ``plantkb.endpoint._Handler`` names the
same class, loaded on first use.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ._record import Record
from .graph import Graph
from .ontology import extract_ontology
from .reasoner import materialize
from .turtle import parse_turtle

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

DEFAULT_BIND = "127.0.0.1:3030"
BIND_ENV_VAR = "PLANTKB_BIND"
# a request body declared larger than this gets 413 and is never read
MAX_BODY_BYTES = 1 << 20
# the most worker threads, and queued connections, a server has
SERVER_THREADS = 32
ACCEPT_QUEUE = 64
# memory one server's answer cache may take (plantkb._http.AnswerCache), so
# the most a server fed only distinct queries grows by
ANSWER_CACHE_BYTES = 2 << 20
# how long a connection closed with an unread body drops what still arrives
LINGER_S = 2.0
# how long a handler waits on a silent client (request line, headers or body)
REQUEST_TIMEOUT_S = 30.0


class DatasetConfig(Record):
    __slots__ = __match_args__ = ("source_path", "materialize_on_load", "bind_address")

    def __init__(self, source_path: str, materialize_on_load: bool = False, bind_address: str = DEFAULT_BIND):
        super().__init__(source_path, materialize_on_load, bind_address)


def resolve_bind(flag: str | None = None) -> tuple[str, int]:
    """Bind address precedence: CLI flag, then PLANTKB_BIND, then the default."""
    text = flag or os.environ.get(BIND_ENV_VAR) or DEFAULT_BIND
    host, sep, port_text = text.rpartition(":")
    if not (sep and port_text.isascii() and port_text.isdigit() and int(port_text) <= 65535):
        raise ValueError(f"bind address must be HOST:PORT, got {text!r}")
    return host, int(port_text)


def load_dataset(cfg: DatasetConfig) -> tuple[Graph, dict[str, int]]:
    """Parse (and optionally materialize) the source file into a frozen snapshot."""
    with open(cfg.source_path, encoding="utf-8") as fh:
        text = fh.read()
    graph = parse_turtle(text).graph
    if cfg.materialize_on_load:
        materialize(graph)
    snapshot = graph.snapshot()
    view = extract_ontology(snapshot)
    stats = {
        "triples": len(snapshot),
        "classes": len(view.classes),
        "properties": len(view.properties),
        "individuals": len(view.individuals),
    }
    return snapshot, stats


def make_server(cfg: DatasetConfig) -> ThreadingHTTPServer:
    """Load the dataset and return a ready-to-run server (not yet serving).

    Parse and bind failures raise before any listener accepts traffic.
    """
    from ._http import AnswerCache, PooledHTTPServer, _Handler

    snapshot, stats = load_dataset(cfg)
    handler = type("BoundHandler", (_Handler,), {"dataset": snapshot, "dataset_stats": stats,
                                                 "answer_cache": AnswerCache(ANSWER_CACHE_BYTES)})
    host, port = resolve_bind(cfg.bind_address)
    return PooledHTTPServer((host, port), handler, SERVER_THREADS, ACCEPT_QUEUE)


def serve(cfg: DatasetConfig) -> None:
    """Run the service until interrupted."""
    from ._http import log

    server = make_server(cfg)
    host, port = server.server_address[:2]
    log.info("serving %s on %s:%d", cfg.source_path, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def __getattr__(name: str) -> object:
    """``_Handler``, the request handler class, imported on first use (PEP 562).

    Two readers import it from here: ``tests/test_endpoint.py``, and
    ``install()`` in ``perfbench/spans.py``, which wraps its do_GET and do_POST.
    """
    if name == "_Handler":
        from ._http import _Handler

        return _Handler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
