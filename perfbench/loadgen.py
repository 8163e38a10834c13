"""HTTP load for the serve workloads: one process, at most ``nproc`` threads.

Every request carries an ``X-Request-Id`` header so the traced run can match
the client's timing to the server's spans for the same request.
"""

from __future__ import annotations

import http.client
import itertools
import os
import threading
import time
from dataclasses import dataclass

from kbgen import Request
from measure import due_time

HOST = "127.0.0.1"
TIMEOUT_S = 30.0


def client_threads() -> int:
    """Two clients, never more than the CPUs this process may run on."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


@dataclass
class Sample:
    request: Request
    rid: str
    status: int
    body: bytes
    due: float
    sent: float
    done: float
    connect_s: float | None


def _exchange(conn: http.client.HTTPConnection, req: Request, rid: str) -> tuple[int, bytes]:
    headers = dict(req.headers)
    headers["X-Request-Id"] = rid
    conn.request(req.method, req.target, body=req.body or None, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


def _connect(port: int) -> tuple[http.client.HTTPConnection, float]:
    conn = http.client.HTTPConnection(HOST, port, timeout=TIMEOUT_S)
    start = time.perf_counter()
    conn.connect()
    return conn, time.perf_counter() - start


def get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class RequestIds:
    def __init__(self, prefix: str) -> None:
        self._prefix = prefix
        self._next = itertools.count()

    def __call__(self) -> str:
        return f"{self._prefix}{next(self._next)}"


def closed_loop(port: int, batch: list[Request], deadline: float,
                ids: RequestIds) -> tuple[list[list[Sample]], list[float]]:
    """Replay ``batch`` over one persistent connection per client until ``deadline``.

    Each client sends its next request only after the previous answer is
    read.  At least one batch runs; a new one starts only before the
    deadline.  Returns the samples of each batch and the connect times.
    """
    conns = []
    connects = []
    for _ in range(client_threads()):
        conn, took = _connect(port)
        conns.append(conn)
        connects.append(took)
    batches: list[list[Sample]] = []
    try:
        while True:
            samples: list[Sample] = []
            queue = iter(batch)
            lock = threading.Lock()

            def client(k: int) -> None:
                while True:
                    with lock:
                        req = next(queue, None)
                    if req is None:
                        return
                    rid = ids()
                    sent = time.perf_counter()
                    try:
                        status, body = _exchange(conns[k], req, rid)
                    except (OSError, http.client.HTTPException):
                        conns[k].close()
                        conns[k], took = _connect(port)
                        connects.append(took)
                        status, body = 0, b""
                    done = time.perf_counter()
                    with lock:
                        samples.append(Sample(req, rid, status, body, sent, sent, done, None))

            threads = [threading.Thread(target=client, args=(k,)) for k in range(len(conns))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            batches.append(samples)
            if time.perf_counter() >= deadline:
                return batches, connects
    finally:
        for conn in conns:
            conn.close()


def open_loop(port: int, requests: list[Request], rate: float, count: int,
              ids: RequestIds) -> list[Sample]:
    """Send ``count`` requests on a fixed schedule, each on a new connection.

    Request i is due at start + i / rate whether or not earlier ones have
    been answered; a request that waits for a free client thread leaves late
    and is timed from its due time.
    """
    start = time.perf_counter() + 0.05
    indices = iter(range(count))
    lock = threading.Lock()
    samples: list[Sample] = []

    def worker() -> None:
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            req = requests[i % len(requests)]
            due = due_time(start, rate, i)
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            rid = ids()
            sent = time.perf_counter()
            connect_s = None
            try:
                conn, connect_s = _connect(port)
                try:
                    status, body = _exchange(conn, req, rid)
                finally:
                    conn.close()
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
            done = time.perf_counter()
            with lock:
                samples.append(Sample(req, rid, status, body, due, sent, done, connect_s))

    threads = [threading.Thread(target=worker) for _ in range(client_threads())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    samples.sort(key=lambda s: s.due)
    return samples
