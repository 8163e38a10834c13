"""perfbench's serve-fresh workload with no repeated query text.

    python3 tools/serve_distinct.py --seed 1 --seconds 15

Run from the repository root.  It runs ``perfbench/run.py --workload
serve-fresh --trace 0`` in this process, changed in one way: every request
the load generator sends starts with its own SPARQL comment line
(``#<n>``), so no two requests of a run carry the same query text and a
server-side answer cache never hits.  The queries, formats, methods, rates
and checks are otherwise serve-fresh's, and each answer is checked against
the in-process result for its own text.  The output has serve-fresh's
format; the last line is the JSON result.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path
from urllib.parse import quote, urlencode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import loadgen  # noqa: E402
import run  # noqa: E402


def distinct(req, n: int):
    """``req`` with ``#<n>`` and a newline put before its query text."""
    query = f"#{n}\n{req.query}"
    if req.method == "GET":
        return dataclasses.replace(req, query=query,
                                   target="/sparql?" + urlencode({"query": query}, quote_via=quote))
    if ("Content-Type", "application/x-www-form-urlencoded") in req.headers:
        return dataclasses.replace(req, query=query, body=urlencode({"query": query}).encode("utf-8"))
    return dataclasses.replace(req, query=query, body=query.encode("utf-8"))


def main() -> int:
    numbers = itertools.count()
    open_loop = loadgen.open_loop
    reference_bodies = run.reference_bodies
    check_responses = run.check_responses
    kb_text = []

    def distinct_open_loop(port, requests, rate, count, ids):
        sent = [distinct(requests[i % len(requests)], next(numbers)) for i in range(count)]
        return open_loop(port, sent, rate, count, ids)

    def remembering_reference_bodies(text, requests):
        kb_text.append(text)
        return reference_bodies(text, requests)

    def distinct_check_responses(outcome, samples, expected):
        expected = {**expected, **reference_bodies(kb_text[-1], [s.request for s in samples])[0]}
        check_responses(outcome, samples, expected)

    loadgen.open_loop = distinct_open_loop
    run.reference_bodies = remembering_reference_bodies
    run.check_responses = distinct_check_responses
    sys.argv = [str(PERFBENCH / "run.py"), "--workload", "serve-fresh", "--trace", "0", *sys.argv[1:]]
    return run.main()


if __name__ == "__main__":
    sys.exit(main())
