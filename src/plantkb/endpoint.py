"""HTTP SPARQL service hosting one read-only dataset.

Routes:
    GET/POST /sparql   query via ?query=, application/sparql-query body, or
                       application/x-www-form-urlencoded body; responds with
                       SPARQL JSON results (or CSV when Accept prefers text/csv)
    GET /health        200 "ok"
    GET /stats         {"triples": n, "classes": n, "properties": n, "individuals": n}

The dataset is parsed (and optionally materialized) once at startup into an
immutable snapshot; request handlers never take locks.  GET and POST of the
same query produce byte-identical bodies.  The bind address comes from the
--bind flag, then the PLANTKB_BIND environment variable, then 127.0.0.1:3030.

Every request's body is read before its method runs, whatever the method and
path, so a body is never taken as the next request on the connection.  A body
sent with Transfer-Encoding (411: chunked bodies are not decoded), with a
Content-Length that is not a non-negative integer (400), or over
MAX_BODY_BYTES, 1 MiB (413), is never read: the answer carries Connection:
close, the connection is half-closed, and what the client still sends is
dropped for up to LINGER_S, so that the client can read it first.

A connection that sends nothing for REQUEST_TIMEOUT_S (30 s) is closed; if it
stalls inside a request body, it first gets 408 with Connection: close.

The refusals the stdlib makes before a do_* method runs (a bad request line,
414, 431, 501, 505) are plain text with an HTTP/1.1 status line and
Connection: close, like every other refusal.  One empty line before a
request line is ignored.

A HEAD request gets headers only.  Each response logs one INFO line: method,
path (both "-" when the request line could not be read), status, and ms from
reading the request line to writing the body.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .errors import ParseError, UnknownPrefixError
from .graph import Graph
from .ontology import extract_ontology
from .reasoner import materialize
from .sparql import evaluate, parse_query, serialize_results
from .turtle import parse_turtle

DEFAULT_BIND = "127.0.0.1:3030"
BIND_ENV_VAR = "PLANTKB_BIND"
# a request body declared larger than this gets 413 and is never read
MAX_BODY_BYTES = 1 << 20
# how long a connection closed with an unread body drops what still arrives
LINGER_S = 2.0
# how long a handler waits on a silent client (request line, headers or body)
REQUEST_TIMEOUT_S = 30.0

log = logging.getLogger("plantkb.endpoint")


@dataclass(slots=True)
class DatasetConfig:
    source_path: str
    materialize_on_load: bool = False
    bind_address: str = DEFAULT_BIND


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


def _prefers_csv(accept: str | None) -> bool:
    if not accept:
        return False
    csv_q = 0.0
    json_q = 0.0
    for part in accept.split(","):
        fields = part.strip().split(";")
        mtype = fields[0].strip().lower()
        q = 1.0
        for f in fields[1:]:
            f = f.strip()
            if f.startswith("q="):
                try:
                    q = float(f[2:])
                except ValueError:
                    q = 0.0
        if mtype == "text/csv":
            csv_q = max(csv_q, q)
        elif mtype in ("application/sparql-results+json", "application/json"):
            json_q = max(json_q, q)
    return csv_q > json_q


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # a read or write that waits longer raises TimeoutError; the stdlib then
    # closes the connection (parse_request answers a stalled body with 408 first)
    timeout = REQUEST_TIMEOUT_S
    dataset: Graph
    dataset_stats: dict[str, int]

    # one structured line per request instead of the default stderr format
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def parse_request(self) -> bool:
        """Read the request line, headers and body before any do_* method runs;
        after a refusal, none runs.

        One empty line before the request line is skipped (RFC 9112, section
        2.2); a second one closes the connection without an answer.
        """
        self._started = time.monotonic()
        if self.raw_requestline in (b"\r\n", b"\n"):
            self.command = self.requestline = ""  # a refusal logs "- -", not the previous request
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:  # the stdlib's bound on the first line
                self.send_error(414)
                return False
        if not super().parse_request():
            return False
        # Transfer-Encoding overrides Content-Length (RFC 9112, section 6.3)
        if "Transfer-Encoding" in self.headers:
            self._refuse(411, b"Transfer-Encoding is not supported; send Content-Length")
            return False
        length = self.headers.get("Content-Length") or "0"
        if not (length.isascii() and length.isdigit()):
            # unknown body framing: the connection cannot be reused (RFC 9112, section 6.3)
            self._refuse(400, b"Content-Length must be a non-negative integer")
            return False
        if int(length) > MAX_BODY_BYTES:
            self._refuse(413, f"request body exceeds {MAX_BODY_BYTES} bytes".encode("ascii"))
            return False
        try:
            self._body = self.rfile.read(int(length))
        except TimeoutError:
            # RFC 9110, section 15.5.9; what the client sends later is dropped
            self._refuse(408, f"request body not received within {self.timeout:g} s".encode("ascii"))
            return False
        return True

    def _finish(self, status: int, body: bytes, content_type: str = "text/plain; charset=utf-8",
                headers: dict[str, str] | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":  # RFC 9110, section 9.3.2
            self.wfile.write(body)
        log.info("%s %s %d %.1fms", self.command, self.path, status,
                 (time.monotonic() - self._started) * 1000.0)

    def _refuse(self, status: int, body: bytes) -> None:
        """Answer without reading the request body, then end the connection.

        Closing a socket with unread bytes resets the connection, and the
        reset can destroy the response before the client reads it.  So the
        write side is shut down (the client sees the end of the response) and
        whatever the client still sends is dropped for at most LINGER_S.
        """
        self._finish(status, body, headers={"Connection": "close"})
        deadline = time.monotonic() + LINGER_S
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not self.connection.recv(65536):
                    break
        except OSError:
            pass

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Answer the refusals the stdlib makes itself through _refuse: 400 or
        505 for a bad request line, 414 for one over 64 KiB, 431 for bad
        headers, 501 for a method with no do_* method.

        The stdlib sends a 414 before parse_request runs, and a bad request
        line before parse_request sets the method and path; at a bad line it
        leaves the version at HTTP/0.9, for which no status line is written.
        """
        if not self.command:  # no method or path was parsed
            self.command = self.path = "-"
            self._started = time.monotonic()
        self.request_version = "HTTP/1.1"
        self._refuse(code, (message or self.responses[code][0]).encode("utf-8"))

    def _run_query(self, values: list[str] | None, missing: bytes) -> None:
        """Answer the first of ``values``, or 400 with ``missing`` if there is none."""
        if not values:
            self._finish(400, missing)
            return
        try:
            results = evaluate(parse_query(values[0]), self.dataset)
        except (ParseError, UnknownPrefixError) as exc:
            self._finish(400, str(exc).encode("utf-8"))
            return
        if _prefers_csv(self.headers.get("Accept")):
            body = serialize_results(results, "csv").encode("utf-8")
            self._finish(200, body, "text/csv; charset=utf-8")
        else:
            body = serialize_results(results, "sparql-json").encode("utf-8")
            self._finish(200, body, "application/sparql-results+json")

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        if parts.path == "/sparql":
            self._run_query(parse_qs(parts.query).get("query"), b"missing query parameter")
        elif parts.path == "/health":
            self._finish(200, b"ok")
        elif parts.path == "/stats":
            self._finish(200, json.dumps(self.dataset_stats).encode("utf-8"), "application/json")
        else:
            self._finish(404, b"not found")

    def do_POST(self) -> None:
        if urlsplit(self.path).path != "/sparql":
            self._finish(404, b"not found")
            return
        try:
            text = self._body.decode("utf-8")
        except UnicodeDecodeError:
            self._finish(400, b"body is not valid UTF-8")
            return
        values: list[str] | None = [text]  # a raw body is the query, even when empty
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip().lower()
        if content_type == "application/x-www-form-urlencoded":
            values = parse_qs(text).get("query")
        self._run_query(values, b"missing query form field")

    def _method_not_allowed(self) -> None:
        if urlsplit(self.path).path == "/sparql":
            self._finish(405, b"method not allowed", headers={"Allow": "GET, POST"})
        else:
            self._finish(404, b"not found")

    do_PUT = _method_not_allowed
    do_DELETE = _method_not_allowed
    do_PATCH = _method_not_allowed
    do_HEAD = _method_not_allowed


def make_server(cfg: DatasetConfig) -> ThreadingHTTPServer:
    """Load the dataset and return a ready-to-run server (not yet serving).

    Parse and bind failures raise before any listener accepts traffic.
    """
    snapshot, stats = load_dataset(cfg)
    handler = type("BoundHandler", (_Handler,), {"dataset": snapshot, "dataset_stats": stats})
    host, port = resolve_bind(cfg.bind_address)
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(cfg: DatasetConfig) -> None:
    """Run the service until interrupted."""
    server = make_server(cfg)
    host, port = server.server_address[:2]
    log.info("serving %s on %s:%d", cfg.source_path, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
