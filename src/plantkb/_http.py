"""The endpoint's request handler, in a module of its own so that only a
server loads the HTTP stack.

Importing this module imports ``http.server``, ``socket``, ``queue`` and
``logging``, and with them ``socketserver``, ``http.client``, ``email`` and
``ssl``.
:func:`plantkb.endpoint.make_server` imports it, and so does the first read of
``plantkb.endpoint._Handler``, which names the same class.
:mod:`plantkb.endpoint` describes the routes and the rules every response
follows.  :class:`AnswerCache` is the per-server cache of query answers that
:func:`plantkb.endpoint.make_server` puts on the handler class beside the
snapshot, and :class:`PooledHTTPServer` the server class it builds.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import sys
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

# read at each request, so a wrapper put on plantkb.sparql's functions at any
# time (perfbench/spans.py) is the one called
from . import sparql
from .endpoint import LINGER_S, MAX_BODY_BYTES, REQUEST_TIMEOUT_S
from .errors import ParseError
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


# what a query request is answered with: status, body, content type
Answer = tuple[int, bytes, str]
_CONTENT_TYPES = {"csv": "text/csv; charset=utf-8", "sparql-json": "application/sparql-results+json"}
# the memory one entry takes beyond its query text and body objects: the key,
# answer and entry tuples, the cost int and the OrderedDict's slot and link
# (at most ~380 bytes under tracemalloc on CPython 3.11-3.13, with churn)
ENTRY_OVERHEAD_BYTES = 512


class AnswerCache:
    """Least-recently-used map from (query text, format) to the answer sent.

    The handler stores the 200s and the 400s for a query that does not parse
    or names an unknown prefix: over an immutable snapshot these depend on
    nothing but the query text and the format, so an entry never goes stale.
    Nothing that depends on time is stored.  GET, form POST and raw POST of
    one query share an entry; each format has its own.  A hit is answered
    with the stored bytes and runs no parse, evaluate or serialize stage, so
    it has no stage to time.

    An entry costs the memory of its query text and body objects plus
    ``ENTRY_OVERHEAD_BYTES``, and the entries together never cost more than
    ``budget``: storing one evicts the least recently used until it fits,
    and an answer that alone costs more is sent but not stored.  The lock is
    held for the dict operations only, never while a query runs, so two
    requests that miss on one key both evaluate it and store the same bytes.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.entries: OrderedDict[tuple[str, str], tuple[Answer, int]] = OrderedDict()
        self.size = 0
        self._lock = threading.Lock()

    def get(self, key: tuple[str, str]) -> Answer | None:
        with self._lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple[str, str], answer: Answer) -> None:
        cost = sys.getsizeof(key[0]) + sys.getsizeof(answer[1]) + ENTRY_OVERHEAD_BYTES
        if cost > self.budget:
            return
        with self._lock:
            if key in self.entries:  # a concurrent miss stored the same answer
                return
            while self.size + cost > self.budget:
                self.size -= self.entries.popitem(last=False)[1][1]
            self.entries[key] = (answer, cost)
            self.size += cost


class PooledHTTPServer(ThreadingHTTPServer):
    """Serves each connection on one of at most ``threads`` reused daemon
    threads; ``process_request`` waits while ``queue_size`` connections are
    queued, and ``server_close`` closes those and stops the idle workers."""

    def __init__(self, address: tuple[str, int], handler: type, threads: int, queue_size: int) -> None:
        # set before binding, since a failed bind calls server_close
        self._connections: queue.Queue = queue.Queue(queue_size)
        self._pool_size, self._started = threads, 0  # ThreadingMixIn names its own _threads
        # a permit per connection a worker finished; a connection finding none starts a worker
        self._free = threading.Semaphore(0)
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        if not self._free.acquire(blocking=False) and self._started < self._pool_size:
            self._started += 1
            threading.Thread(target=self._work, name=f"plantkb-worker-{self._started}", daemon=True).start()
        self._connections.put((request, client_address))

    def _work(self) -> None:
        # the steps of socketserver.ThreadingMixIn.process_request_thread
        while (item := self._connections.get()) is not None:
            try:
                self.finish_request(*item)
            except Exception:
                self.handle_error(*item)
            finally:
                self.shutdown_request(item[0])
            self._free.release()
        self._connections.put(None)  # pass the stop on to the next worker

    def server_close(self) -> None:
        super().server_close()
        try:
            while True:
                if item := self._connections.get_nowait():
                    self.shutdown_request(item[0])
        except queue.Empty:
            self._connections.put(None)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # a read or write that waits longer raises TimeoutError; the stdlib then
    # closes the connection (parse_request answers a stalled body with 408 first)
    timeout = REQUEST_TIMEOUT_S
    dataset: Graph
    dataset_stats: dict[str, int]
    answer_cache: AnswerCache

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

    def _run_query(self, values: list[str] | None, field: str) -> None:
        """Answer the one query in ``values``, or 400 naming ``field`` if there
        is none or more than one (SPARQL 1.1 Protocol, section 2.1: a query
        operation carries exactly one query string)."""
        if not values or len(values) > 1:
            reason = "missing" if not values else "more than one"
            self._finish(400, f"{reason} {field}".encode("ascii"))
            return
        fmt = "csv" if _prefers_csv(self.headers.get("Accept")) else "sparql-json"
        key = (values[0], fmt)
        answer = self.answer_cache.get(key)
        if answer is None:
            answer = self._answer(*key)
            self.answer_cache.put(key, answer)
        self._finish(*answer)

    def _answer(self, query: str, fmt: str) -> Answer:
        """Run ``query`` over the snapshot and encode the result in ``fmt``.

        The answer depends on nothing but the snapshot, the query text and
        the format, so it can be cached; any other failure raises.
        """
        try:
            results = sparql.evaluate(sparql.parse_query(query), self.dataset)
        except ParseError as exc:
            return 400, str(exc).encode("utf-8"), "text/plain; charset=utf-8"
        return 200, sparql.serialize_results(results, fmt).encode("utf-8"), _CONTENT_TYPES[fmt]

    def do_GET(self) -> None:
        parts = urlsplit(self.path)
        if parts.path == "/sparql":
            self._run_query(parse_qs(parts.query).get("query"), "query parameter")
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
        self._run_query(values, "query form field")

    def _method_not_allowed(self) -> None:
        if urlsplit(self.path).path == "/sparql":
            self._finish(405, b"method not allowed", headers={"Allow": "GET, POST"})
        else:
            self._finish(404, b"not found")

    do_PUT = _method_not_allowed
    do_DELETE = _method_not_allowed
    do_PATCH = _method_not_allowed
    do_HEAD = _method_not_allowed
