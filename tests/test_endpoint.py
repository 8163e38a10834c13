"""HTTP service: bind resolution, dataset loading, routes, content negotiation."""

import http.client
import json
import logging
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import quote, urlencode

import pytest

import plantkb
import plantkb.fixtures
from plantkb.endpoint import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_S,
    DatasetConfig,
    _Handler,
    load_dataset,
    make_server,
    resolve_bind,
)
from plantkb.errors import FrozenGraphError
from plantkb.sparql import evaluate, parse_query, serialize_results
from plantkb.terms import Iri, Triple

FIXTURE_DIR = Path(plantkb.fixtures.__file__).resolve().parent
CLEAN = str(FIXTURE_DIR / "arabidopsis.ttl")

SUBCLASS_QUERY = (
    "PREFIX plant: <http://plantkb.example/arabidopsis#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "SELECT ?x WHERE { ?x rdfs:subClassOf plant:BiologicalProperty } ORDER BY ?x"
)


# -- configuration ---------------------------------------------------------------


def test_resolve_bind_precedence(monkeypatch):
    monkeypatch.delenv("PLANTKB_BIND", raising=False)
    assert resolve_bind() == ("127.0.0.1", 3030)
    monkeypatch.setenv("PLANTKB_BIND", "0.0.0.0:8000")
    assert resolve_bind() == ("0.0.0.0", 8000)
    assert resolve_bind("10.1.2.3:9999") == ("10.1.2.3", 9999)


def test_resolve_bind_splits_on_last_colon():
    assert resolve_bind("::1:8080") == ("::1", 8080)


def test_resolve_bind_rejects_bad_addresses(monkeypatch):
    monkeypatch.delenv("PLANTKB_BIND", raising=False)
    for bad in ("8080", "host:", "host:http", "host:80x", "host:65536", "host:70000", "host:\u00b2"):
        with pytest.raises(ValueError):
            resolve_bind(bad)


def test_load_dataset_stats_and_freezing():
    snapshot, stats = load_dataset(DatasetConfig(source_path=CLEAN))
    assert stats == {"triples": 87, "classes": 17, "properties": 4, "individuals": 14}
    assert list(stats) == ["triples", "classes", "properties", "individuals"]
    with pytest.raises(FrozenGraphError):
        snapshot.insert(Triple(Iri("http://x.test/a"), Iri("http://x.test/b"), Iri("http://x.test/c")))


def test_load_dataset_materializes_when_asked():
    _, stats = load_dataset(DatasetConfig(source_path=CLEAN, materialize_on_load=True))
    assert stats["triples"] == 133
    assert stats["classes"] == 17


# -- the HTTP stack loads with a server --------------------------------------------

HTTP_STACK = ("http.server", "socketserver", "http.client", "email", "ssl", "socket")
# what building records as dataclasses, logging and the bundled-file reader load
CODEGEN_LOGGING_RESOURCES = ("dataclasses", "inspect", "ast", "dis", "logging", "traceback",
                             "importlib.resources", "pathlib", "zipfile", "tempfile", "shutil")


def _loaded_by_importing_the_cli(modules, *flags):
    src = str(Path(plantkb.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import plantkb.cli; "
            f"print(*[m for m in {modules!r} if m in sys.modules and m not in before])")
    done = subprocess.run([sys.executable, *flags, "-c", code, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_importing_the_cli_loads_no_http_stack():
    assert _loaded_by_importing_the_cli(HTTP_STACK) == []


def test_importing_the_cli_loads_no_code_generation_logging_or_resources():
    # -S: no site hook loads any of them first
    assert _loaded_by_importing_the_cli(CODEGEN_LOGGING_RESOURCES, "-S") == []


def test_every_public_name_resolves():
    assert [name for name in plantkb.__all__ if not hasattr(plantkb, name)] == []


def test_handler_name_is_the_base_of_the_served_handler():
    server = make_server(DatasetConfig(source_path=CLEAN, bind_address="127.0.0.1:0"))
    try:
        assert server.RequestHandlerClass.__bases__ == (_Handler,)
    finally:
        server.server_close()


TRACED_REQUEST = """
import sys, threading, urllib.request
from urllib.parse import quote
sys.path[:0] = sys.argv[1:3]
import spans
recorder = spans.Recorder()
spans.install(recorder)
from plantkb.endpoint import DatasetConfig, make_server
server = make_server(DatasetConfig(source_path=sys.argv[3], bind_address="127.0.0.1:0"))
threading.Thread(target=server.serve_forever, daemon=True).start()
url = f"http://127.0.0.1:{server.server_address[1]}/sparql?query={quote(sys.argv[4])}"
with urllib.request.urlopen(url, timeout=30) as response:
    response.read()
server.shutdown()
server.server_close()
names = {sid: name for sid, parent, name, start, end, rid in recorder.spans}
print(*sorted({(names.get(parent, "-"), name) for sid, parent, name, start, end, rid in recorder.spans}), sep="\\n")
"""


def test_traced_server_records_its_query_calls_inside_the_request():
    # perfbench/spans.py wraps plantkb.sparql's functions before the handler's
    # module is first imported; the handler must still call the wrapped ones
    repo = Path(__file__).resolve().parent.parent
    src = str(Path(plantkb.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", TRACED_REQUEST, str(repo / "perfbench"), src, CLEAN,
                           SUBCLASS_QUERY], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    edges = set(done.stdout.splitlines())
    for name in ("sparql.parse_query", "sparql.evaluate", "sparql.serialize_results"):
        assert str(("endpoint.do_GET", name)) in edges, done.stdout


# -- live server -----------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    cfg = DatasetConfig(source_path=CLEAN, materialize_on_load=True,
                        bind_address="127.0.0.1:0")
    srv = make_server(cfg)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield host, port
    srv.shutdown()
    srv.server_close()


def request(server, method, path, body=None, headers=None):
    host, port = server
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def expected_json_body(query):
    snapshot, _ = load_dataset(
        DatasetConfig(source_path=CLEAN, materialize_on_load=True))
    rs = evaluate(parse_query(query), snapshot)
    return serialize_results(rs, "sparql-json").encode("utf-8")


def test_health(server):
    status, headers, body = request(server, "GET", "/health")
    assert (status, body) == (200, b"ok")
    assert headers["Content-Type"].startswith("text/plain")
    assert headers["Content-Length"] == "2"


def test_stats_route(server):
    status, _, body = request(server, "GET", "/stats")
    assert status == 200
    payload = json.loads(body)
    assert payload == {"triples": 133, "classes": 17, "properties": 4, "individuals": 14}
    assert list(payload) == ["triples", "classes", "properties", "individuals"]


def test_get_query_matches_library_output(server):
    status, headers, body = request(
        server, "GET", "/sparql?query=" + quote(SUBCLASS_QUERY))
    assert status == 200
    assert headers["Content-Type"] == "application/sparql-results+json"
    assert body == expected_json_body(SUBCLASS_QUERY)
    names = [b["x"]["value"].rsplit("#", 1)[1]
             for b in json.loads(body)["results"]["bindings"]]
    assert names == ["GeneticResistance", "RegenerativeAbility",
                     "SeedCompatibility", "Tolerance", "Viability"]


def test_get_and_both_post_encodings_agree(server):
    _, _, via_get = request(server, "GET", "/sparql?query=" + quote(SUBCLASS_QUERY))
    _, _, via_form = request(
        server, "POST", "/sparql", body=urlencode({"query": SUBCLASS_QUERY}),
        headers={"Content-Type": "application/x-www-form-urlencoded"})
    _, _, via_raw = request(
        server, "POST", "/sparql", body=SUBCLASS_QUERY.encode("utf-8"),
        headers={"Content-Type": "application/sparql-query"})
    assert via_get == via_form == via_raw


def test_post_without_content_type_reads_raw_body(server):
    status, _, body = request(server, "POST", "/sparql",
                              body=SUBCLASS_QUERY.encode("utf-8"))
    assert status == 200
    assert body == expected_json_body(SUBCLASS_QUERY)


def test_accept_header_negotiates_csv(server):
    q = quote(SUBCLASS_QUERY)
    _, headers, body = request(server, "GET", f"/sparql?query={q}",
                               headers={"Accept": "text/csv"})
    assert headers["Content-Type"].startswith("text/csv")
    assert body.startswith(b"x\r\n")
    # lower q-value loses to json
    _, headers, _ = request(
        server, "GET", f"/sparql?query={q}",
        headers={"Accept": "text/csv;q=0.4, application/json;q=0.9"})
    assert headers["Content-Type"] == "application/sparql-results+json"
    _, headers, _ = request(
        server, "GET", f"/sparql?query={q}",
        headers={"Accept": "application/json;q=0.1, text/csv;q=0.8"})
    assert headers["Content-Type"].startswith("text/csv")


def test_missing_query_is_rejected(server):
    status, _, body = request(server, "GET", "/sparql")
    assert (status, body) == (400, b"missing query parameter")
    status, _, body = request(server, "GET", "/sparql?query=")
    assert (status, body) == (400, b"missing query parameter")
    status, _, body = request(server, "POST", "/sparql", body=b"",
                              headers={"Content-Type": "application/x-www-form-urlencoded"})
    assert (status, body) == (400, b"missing query form field")


def test_malformed_query_reports_position(server):
    bad = "SELECT ?s WHERE { ?s ?p"
    status, headers, body = request(server, "GET", "/sparql?query=" + quote(bad))
    assert status == 400
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert text.startswith("line 1, column ")
    status, _, body = request(server, "GET",
                              "/sparql?query=" + quote("SELECT ?s WHERE { ?s zz:p ?o }"))
    assert status == 400 and b"zz" in body


def test_malformed_term_gets_400_not_a_dropped_connection(server):
    # a blank node label with a trailing dot used to escape the parser as a
    # ValueError, which closed the connection without a response
    query = quote("SELECT ?x WHERE { _:b. ?p ?x }")
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(f"GET /sparql?query={query} HTTP/1.1\r\nHost: test\r\n"
                     "Connection: close\r\n\r\n".encode("ascii"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert body.startswith(b"line 1, column 22: ")


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_malformed_content_length_gets_400(server, length):
    # "abc" used to raise ValueError and drop the connection without a
    # response; "-1" used to read until the client hung up
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(f"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode("ascii"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Type: text/plain; charset=utf-8" in head
    assert b"Connection: close" in head
    assert body == b"Content-Length must be a non-negative integer"
    assert request(server, "GET", "/health")[0] == 200


def test_oversized_body_gets_413_without_being_read(server):
    # the body is never sent: a server that tried to read it would block
    # until the socket timed out
    with socket.create_connection(server, timeout=10) as sock:
        started = time.monotonic()
        sock.sendall(f"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                     f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode("ascii"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        elapsed = time.monotonic() - started
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"Content-Type: text/plain; charset=utf-8" in head
    assert b"Connection: close" in head
    assert body == f"request body exceeds {MAX_BODY_BYTES} bytes".encode("ascii")
    assert elapsed < 2.0
    assert request(server, "GET", "/health")[0] == 200


def test_oversized_body_sent_in_full_still_gets_413(server):
    # a client that sends the whole body before reading: closing with the
    # body unread would reset the connection and destroy the response
    body = b" " * (4 * MAX_BODY_BYTES)
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(f"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert reply.endswith(f"request body exceeds {MAX_BODY_BYTES} bytes".encode("ascii"))


def test_body_at_the_size_limit_is_read(server):
    query = SUBCLASS_QUERY.encode("utf-8")
    status, _, body = request(server, "POST", "/sparql",
                              body=query + b" " * (MAX_BODY_BYTES - len(query)))
    assert status == 200
    assert body == expected_json_body(SUBCLASS_QUERY)


def read_until_close(sock):
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    return reply


def test_stalled_body_gets_408_and_other_connections_still_answer(server, monkeypatch):
    # a client that declares 100 bytes and sends 6 used to hold its handler
    # thread forever, with no response
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    with socket.create_connection(server, timeout=5) as sock:
        started = time.monotonic()
        sock.sendall(b"POST /sparql HTTP/1.1\r\nHost: test\r\n"
                     b"Content-Length: 100\r\n\r\nSELECT")
        assert request(server, "GET", "/health")[:3:2] == (200, b"ok")
        reply = read_until_close(sock)
        elapsed = time.monotonic() - started
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 ")
    assert b"Content-Type: text/plain; charset=utf-8" in head
    assert b"Connection: close" in head
    assert body == b"request body not received within 0.3 s"
    assert elapsed < 2.0


@pytest.mark.parametrize("framing", ["", "Content-Length: 0\r\n"])
def test_transfer_encoding_gets_411_and_close(server, framing):
    # the chunk lines used to be read as the next request, and the pipelined
    # GET was never answered; with Content-Length: 0 this is the
    # request-smuggling shape (RFC 9112, section 6.3)
    query = b"SELECT ?x WHERE { ?x ?p ?o }"
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(f"POST /sparql HTTP/1.1\r\nHost: test\r\n{framing}"
                     "Transfer-Encoding: chunked\r\n\r\n".encode("ascii")
                     + b"%x\r\n%s\r\n0\r\n\r\n" % (len(query), query)
                     + b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
        reply = read_until_close(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 411 ")
    assert b"Connection: close" in head
    assert body == b"Transfer-Encoding is not supported; send Content-Length"
    assert request(server, "GET", "/health")[0] == 200


def test_idle_connection_is_closed(server, monkeypatch):
    # without a handler timeout, an idle connection held its thread forever
    assert _Handler.timeout == REQUEST_TIMEOUT_S == 30.0
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    with socket.create_connection(server, timeout=5) as sock:
        started = time.monotonic()
        assert read_until_close(sock) == b""
        assert time.monotonic() - started < 2.0
    assert request(server, "GET", "/health")[0] == 200


def test_invalid_utf8_body_is_rejected(server):
    status, _, body = request(server, "POST", "/sparql", body=b"\xff\xfe\x00")
    assert (status, body) == (400, b"body is not valid UTF-8")


def test_unknown_paths_are_404(server):
    for method, path in (("GET", "/nope"), ("POST", "/other"), ("PUT", "/health")):
        status, _, body = request(server, method, path)
        assert (status, body) == (404, b"not found")


def test_write_methods_are_405_with_allow(server):
    for method in ("PUT", "DELETE", "PATCH"):
        status, headers, body = request(server, method, "/sparql")
        assert (status, body) == (405, b"method not allowed")
        assert headers["Allow"] == "GET, POST"


def test_head_gets_headers_without_a_body(server):
    # the body used to follow the headers, so the next response on the
    # connection began "method not allowedHTTP/1.1 200 OK" (RFC 9110, section 9.3.2)
    sent = [("HEAD", "/sparql"), ("GET", "/health"), ("HEAD", "/nope"), ("GET", "/health")]
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(b"".join(f"{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("ascii")
                              for method, path in sent))
        sock.shutdown(socket.SHUT_WR)
        reply = read_until_close(sock)
    answers = []
    for method, _ in sent:
        head, _, reply = reply.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in lines)
        size = 0 if method == "HEAD" else int(fields["Content-Length"])
        answers.append((status_line.split(" ")[1], fields["Content-Length"],
                        fields.get("Allow"), reply[:size]))
        reply = reply[size:]
    assert answers == [("405", "18", "GET, POST", b""), ("200", "2", None, b"ok"),
                       ("404", "9", None, b""), ("200", "2", None, b"ok")]
    assert reply == b""


@pytest.mark.parametrize("method, path, status", [
    ("GET", "/health", "200"), ("POST", "/other", "404"), ("PUT", "/sparql", "405"),
    ("DELETE", "/x", "404"), ("PATCH", "/sparql", "405"), ("HEAD", "/health", "404"),
])
def test_every_request_body_is_read_before_the_next_request(server, method, path, status):
    # a body the method did not use stayed on the connection and was parsed
    # as the next request, so a /stats answer followed (RFC 9112, section 6.3)
    hidden = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                     f"Content-Length: {len(hidden)}\r\n\r\n".encode("ascii") + hidden
                     + b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
        sock.shutdown(socket.SHUT_WR)
        reply = read_until_close(sock)
    answers = []
    for sent in (method, "GET"):
        head, _, reply = reply.partition(b"\r\n\r\n")
        fields = dict(line.split(": ", 1) for line in head.decode("latin-1").split("\r\n")[1:])
        size = 0 if sent == "HEAD" else int(fields["Content-Length"])
        answers.append((head.split(b" ")[1].decode("ascii"), fields.get("Connection")))
        body, reply = reply[:size], reply[size:]
    assert answers == [(status, None), ("200", None)]
    assert body == b"ok" and reply == b""


def test_transfer_encoding_on_get_gets_411_and_close(server):
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(b"GET /health HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n"
                     b"0\r\n\r\nGET /health HTTP/1.1\r\nHost: test\r\n\r\n")
        reply = read_until_close(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 411 ")
    assert b"Connection: close" in head
    assert body == b"Transfer-Encoding is not supported; send Content-Length"


@pytest.mark.parametrize("line, status", [
    (b"GET", 400),  # a request line with no target
    (b"GET /" + b"x" * 70_000 + b" HTTP/1.1", 414),
    (b"GET / HTTP/3.0", 505),
    (b"\r\nGET /" + b"x" * 70_000 + b" HTTP/1.1", 414),  # the line after one empty line
], ids=["no-target", "overlong-line", "http-3", "empty-then-overlong-line"])
def test_stdlib_refusals_have_a_status_line_and_plain_text(server, line, status):
    # the stdlib refuses these before parse_request sets the version, and
    # writes no status line for the HTTP/0.9 it leaves there
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(line + b"\r\nHost: test\r\n\r\n")
        reply = read_until_close(sock)
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
    assert b"Content-Type: text/plain; charset=utf-8" in head
    assert b"Connection: close" in head
    assert body and b"<" not in body
    assert request(server, "GET", "/health")[0] == 200


def test_one_empty_line_before_a_request_line_is_ignored(server):
    # RFC 9112, section 2.2
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(b"\r\nGET /health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        reply = read_until_close(sock)
    assert reply.startswith(b"HTTP/1.1 200 ") and reply.endswith(b"\r\n\r\nok")


def test_an_empty_line_between_pipelined_requests_is_ignored(server, caplog):
    caplog.set_level(logging.INFO, logger="plantkb.endpoint")
    get = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(get + b"\r\n" + get + b"\n" + b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n")
        reply = read_until_close(sock)
    assert reply.count(b"HTTP/1.1 200 ") == 2
    assert reply.count(b"HTTP/1.1 414 ") == 1
    # the 414 is not logged under the method and path of the request before it
    deadline = time.monotonic() + 1.0
    while time.monotonic() < deadline:
        refused = [r.args[:3] for r in caplog.records if r.name == "plantkb.endpoint" and r.args[2] == 414]
        if refused:
            break
        time.sleep(0.01)
    assert refused == [("-", "-", 414)]


def test_each_request_logs_one_line(server, caplog):
    caplog.set_level(logging.INFO, logger="plantkb.endpoint")
    sent = [("GET", "/health?log=1", 200), ("GET", "/sparql?log=2", 400),
            ("GET", "/nope?log=3", 404), ("PUT", "/sparql?log=4", 405),
            ("HEAD", "/sparql?log=6", 405), ("OPTIONS", "/sparql?log=7", 501)]
    for method, path, status in sent:
        assert request(server, method, path)[0] == status
    with socket.create_connection(server, timeout=10) as sock:
        sock.sendall(f"POST /sparql?log=5 HTTP/1.1\r\nHost: test\r\n"
                     f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode("ascii"))
        assert read_until_close(sock).startswith(b"HTTP/1.1 413 ")
    sent.append(("POST", "/sparql?log=5", 413))

    def logged():
        return [r for r in caplog.records
                if r.name == "plantkb.endpoint" and "log=" in str(r.args[1])]

    # the line is logged after the body is written, so it may trail the reply
    deadline = time.monotonic() + 1.0
    while len(logged()) < len(sent) and time.monotonic() < deadline:
        time.sleep(0.01)
    records = logged()
    assert sorted(r.args[:3] for r in records) == sorted(sent)
    assert all(r.levelno == logging.INFO and r.args[3] >= 0.0 for r in records)


def test_connection_keep_alive(server):
    host, port = server
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for _ in range(3):
            conn.request("GET", "/health")
            resp = conn.getresponse()
            assert resp.status == 200 and resp.read() == b"ok"
    finally:
        conn.close()


def test_concurrent_identical_requests(server):
    path = "/sparql?query=" + quote(SUBCLASS_QUERY)

    def fire(_):
        return request(server, "GET", path)

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(fire, range(8)))
    bodies = {body for _, _, body in outcomes}
    assert all(status == 200 for status, _, _ in outcomes)
    assert len(bodies) == 1


def test_stats_constant_across_queries(server):
    _, _, before = request(server, "GET", "/stats")
    for _ in range(10):
        request(server, "GET", "/sparql?query=" + quote(SUBCLASS_QUERY))
    _, _, after = request(server, "GET", "/stats")
    assert before == after


def test_make_server_rejects_bad_bind():
    cfg = DatasetConfig(source_path=CLEAN, bind_address="nowhere")
    with pytest.raises(ValueError):
        make_server(cfg)


def test_integer_of_any_length_is_compared_and_an_overlong_limit_refused(tmp_path):
    long = "1" * 5000  # past the digits int() reads from text
    path = tmp_path / "long.ttl"
    path.write_text(f"@prefix ex: <http://example.test/long#> .\nex:a ex:v {long} .\nex:b ex:v 0 .\n")
    srv = make_server(DatasetConfig(source_path=str(path), bind_address="127.0.0.1:0"))
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    served = srv.server_address[:2]
    try:
        prefix = "PREFIX ex: <http://example.test/long#> SELECT ?s WHERE { ?s ex:v ?v "
        for where, subjects in (("FILTER(?v > 1) }", ["a"]), ("} ORDER BY DESC(?v)", ["a", "b"])):
            status, _, body = request(served, "GET", "/sparql?query=" + quote(prefix + where))
            assert status == 200, body
            got = [b["s"]["value"] for b in json.loads(body)["results"]["bindings"]]
            assert got == [f"http://example.test/long#{s}" for s in subjects]
        status, _, body = request(served, "GET", "/sparql?query=" + quote(prefix + "} LIMIT " + long))
        assert status == 400 and b"LIMIT count" in body
        assert request(served, "GET", "/health")[::2] == (200, b"ok")
    finally:
        srv.shutdown()
        srv.server_close()
