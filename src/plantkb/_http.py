"""The endpoint's request handler, in a module of its own so that only a
server loads the HTTP stack.

Importing this module imports ``http.server``, ``socket`` and ``logging``,
and with them ``socketserver``, ``http.client``, ``email`` and ``ssl``.
:func:`plantkb.endpoint.make_server` imports it, and so does the first read of
``plantkb.endpoint._Handler``, which names the same class.
:mod:`plantkb.endpoint` describes the routes and the rules every response
follows.
"""

from __future__ import annotations

import json
import logging
import socket
import time
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, urlsplit

# read at each request, so a wrapper put on plantkb.sparql's functions at any
# time (perfbench/spans.py) is the one called
from . import sparql
from .endpoint import LINGER_S, MAX_BODY_BYTES, REQUEST_TIMEOUT_S
from .errors import ParseError, UnknownPrefixError
from .graph import Graph

log = logging.getLogger("plantkb.endpoint")


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
            results = sparql.evaluate(sparql.parse_query(values[0]), self.dataset)
        except (ParseError, UnknownPrefixError) as exc:
            self._finish(400, str(exc).encode("utf-8"))
            return
        if _prefers_csv(self.headers.get("Accept")):
            body = sparql.serialize_results(results, "csv").encode("utf-8")
            self._finish(200, body, "text/csv; charset=utf-8")
        else:
            body = sparql.serialize_results(results, "sparql-json").encode("utf-8")
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
