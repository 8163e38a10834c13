"""plantkb benchmark: four workloads over the CLI and the SPARQL endpoint.

    python3 perfbench/run.py --workload curate-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the repository root.  Inputs are generated from ``--seed``; the
program runs from ``src/`` in fresh interpreters and a server subprocess and
sees only the generated Turtle files and HTTP requests.  Every output is
checked.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import kbgen  # noqa: E402
import loadgen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

CONSOLE = "import sys; from plantkb.cli import entry_point; sys.exit(entry_point())"
COMMAND_TIMEOUT_S = 150.0
SETUP_REPEATS = 5
SERVER_STARTS = 3
SMALL_CORPUS = 10
MIX_SIZE = 200
LADDER_RPS = (50, 100, 200)
LATENCY_LIMIT_MS = 50.0
BACKLOG_SLACK_S = 0.005
DIGESTS = HERE / "digests.json"

END_TO_END = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.validate_s": "s", "cli.infer_s": "s", "cli.query_s": "s",
    "turtle.parse_s": "s", "turtle.parse_mb_per_s": "MB/s", "turtle.serialize_s": "s",
    "reasoner.materialize_s": "s", "reasoner.iterations": "count",
    "reasoner.insert_attempts": "count", "reasoner.useful_ratio": "ratio",
    "reasoner.consistency_s": "s", "ontology.extract_s": "s",
    "graph.match_calls": "count", "graph.match_s": "s", "graph.entries_visited_per_row": "ratio",
    "graph.copy_s": "s", "sparql.parse_query_s": "s", "sparql.evaluate_s": "s",
    "sparql.serialize_s": "s", "sparql.rows_out": "count",
    "endpoint.overhead_ms": "ms", "endpoint.connect_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "loadgen.lag_ms": "ms", "loadgen.rate_at_limit_rps": "1/s", "trace.overhead_pct": "%",
}


# -- running the program --------------------------------------------------------


@dataclass
class Run:
    """One finished subprocess: wall time, peak RSS, exit code and output."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    spans_path: Path | None


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``) and return (exit code, peak RSS in MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Program:
    """Starts plantkb commands in fresh interpreters, traced or not."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._n = 0

    def _argv(self, args: list[str], spans_path: Path | None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-c", CONSOLE, *args]
        return [sys.executable, str(HERE / "launch.py"), str(spans_path), *args]

    def _files(self, tag: str) -> tuple[Path, Path, Path]:
        self._n += 1
        base = self.workdir / f"{self._n:05d}-{tag}"
        return base.with_suffix(".out"), base.with_suffix(".err"), base.with_suffix(".spans.json")

    def cli(self, args: list[str], traced: bool = False) -> Run:
        out, err, span_file = self._files(args[0])
        span_file = span_file if traced else None
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(self._argv(args, span_file), stdout=fo, stderr=fe,
                                    env=self.env, cwd=self.workdir)
            code, rss = _reap(proc, COMMAND_TIMEOUT_S)
            wall = time.perf_counter() - start
        return Run(wall, rss, code, out.read_bytes(), span_file)

    def import_time(self) -> float:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import plantkb.cli"], env=self.env,
                                cwd=self.workdir)
        code, _ = _reap(proc, COMMAND_TIMEOUT_S)
        if code != 0:
            raise RuntimeError("plantkb.cli does not import")
        return time.perf_counter() - start

    def start_server(self, kb: Path, traced: bool = False) -> "Server":
        out, err, span_file = self._files("serve")
        span_file = span_file if traced else None
        args = ["serve", str(kb), "--bind", "127.0.0.1:0", "--materialize"]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(self._argv(args, span_file), stdout=fo, stderr=fe,
                                    env=self.env, cwd=self.workdir)
        server = Server(proc, err, span_file)
        try:
            server.wait_ready(start)
        except BaseException:
            server.stop()
            raise
        return server


class Server:
    """A ``plantkb serve`` subprocess on an ephemeral 127.0.0.1 port."""

    def __init__(self, proc: subprocess.Popen, log: Path, spans_path: Path | None) -> None:
        self.proc = proc
        self.log = log
        self.spans_path = spans_path
        self.port = 0
        self.setup_s = 0.0
        self.rss_mb = 0.0

    def wait_ready(self, started: float) -> None:
        deadline = started + COMMAND_TIMEOUT_S
        while not self.port:
            match = re.search(rb"serving .* on 127\.0\.0\.1:(\d+)", self.log.read_bytes())
            if match:
                self.port = int(match.group(1))
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.log.read_text(errors='replace')}")
            else:
                time.sleep(0.002)
        while True:
            try:
                if loadgen.get(self.port, "/health")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /health")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        _, self.rss_mb = _reap(self.proc, 30.0)


# -- reference outputs ------------------------------------------------------------


def _plantkb():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import plantkb

    return plantkb


def reference_curation(text: str, queries: list[str]) -> list[bytes]:
    """In-process outputs of validate, infer (stdout and closure file) and each query."""
    pk = _plantkb()
    graph = pk.parse_turtle(text).graph
    diagnostics = pk.run_checks(graph)
    code = 1 if any(d.severity is pk.Severity.ERROR for d in diagnostics) else 0
    result = pk.materialize(graph)
    closure = pk.serialize_turtle(graph)
    reparsed = pk.parse_turtle(closure).graph
    outs = [pk.render_json(diagnostics).encode(), str(code).encode(),
            f"added {len(result.added)} triples in {result.iterations} iterations\n".encode(),
            closure.encode()]
    for q in queries:
        outs.append(pk.serialize_results(pk.evaluate(pk.parse_query(q), reparsed), "csv").encode())
    return outs


def reference_bodies(text: str, requests: list[kbgen.Request]) -> tuple[dict, int]:
    """Expected (status, body) per (query, format), as the endpoint computes them, and the triple count."""
    pk = _plantkb()
    graph = pk.parse_turtle(text).graph
    pk.materialize(graph)
    snapshot = graph.snapshot()
    out = {}
    for req in requests:
        key = (req.query, req.fmt)
        if key in out:
            continue
        try:
            rs = pk.evaluate(pk.parse_query(req.query), snapshot)
        except pk.PlantKbError as exc:
            out[key] = (400, str(exc).encode())
        else:
            out[key] = (200, pk.serialize_results(rs, req.fmt).encode())
    return out, len(snapshot)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def bodies_digest(expected: dict) -> str:
    return digest(b"%d" % status + body for _, (status, body) in sorted(expected.items()))


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


# -- results ----------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def latency_metrics(latencies_s: list[float]) -> tuple[float, float, str]:
    p50 = measure.median(latencies_s) * 1000.0
    tail = measure.tail(latencies_s) * 1000.0
    note = f"latency_tail_ms is p{measure.tail_percentile(len(latencies_s)):.1f} of n={len(latencies_s)}"
    return p50, tail, note


# -- per-layer metrics from spans ---------------------------------------------------


class Trace:
    """Spans and counters of the traced processes of one run."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.request_lib_s: dict[str, float] = {}

    def add(self, path: Path | None) -> None:
        if path is None or not path.exists():
            return
        data = json.loads(path.read_text())
        recorded = data["spans"]
        for target, values in ((self.counters, data["counters"]),
                               (self.inclusive, spans.inclusive_times(recorded)),
                               (self.self_s, spans.self_times(recorded)),
                               (self.request_lib_s, spans.request_library_times(recorded))):
            for k, v in values.items():
                target[k] = target.get(k, 0.0) + v

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; those the run's workload does not exercise read 0."""
        c, t = self.counters, self.inclusive
        parse_s = t.get("turtle.parse_turtle", 0.0)
        attempts = c.get(spans.INSERT_IN_MATERIALIZE, 0.0)
        calls = c.get("reasoner.materialize_calls", 0.0)
        rows = c.get("graph.match_rows", 0.0)
        out = dict.fromkeys(PER_LAYER, 0.0)
        out.update({
            "turtle.parse_s": parse_s,
            "turtle.parse_mb_per_s": c.get("turtle.parse_bytes", 0.0) / 1e6 / parse_s if parse_s else 0.0,
            "turtle.serialize_s": t.get("turtle.serialize_turtle", 0.0),
            "reasoner.materialize_s": t.get("reasoner.materialize", 0.0),
            "reasoner.iterations": c.get("reasoner.iterations", 0.0) / calls if calls else 0.0,
            "reasoner.insert_attempts": attempts,
            "reasoner.useful_ratio": c.get(spans.INSERT_NEW_IN_MATERIALIZE, 0.0) / attempts if attempts else 0.0,
            "reasoner.consistency_s": t.get("reasoner.check_consistency", 0.0),
            "ontology.extract_s": t.get("ontology.extract_ontology", 0.0),
            "graph.match_calls": c.get("graph.match_calls", 0.0),
            "graph.match_s": t.get("graph.Graph.match_with_stats", 0.0),
            "graph.entries_visited_per_row": c.get("graph.entries_visited", 0.0) / rows if rows else 0.0,
            "graph.copy_s": t.get("graph.Graph.copy", 0.0),
            "sparql.parse_query_s": t.get("sparql.parse_query", 0.0),
            "sparql.evaluate_s": t.get("sparql.evaluate", 0.0),
            "sparql.serialize_s": t.get("sparql.serialize_results", 0.0),
            "sparql.rows_out": c.get("sparql.rows_out", 0.0),
        })
        for layer in spans.LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        return out


# -- curate workloads ---------------------------------------------------------------


@dataclass
class CurationFile:
    name: str
    path: Path
    text: str
    queries: list[str]
    expected_codes: frozenset[str] | None = None  # lint error codes a bundled fixture must give


@dataclass
class Pass:
    wall_s: float
    kind_s: dict[str, float]
    latencies_s: list[float]
    outputs: list[list[bytes]]
    runs: list[Run]


def curation_pass(program: Program, files: list[CurationFile], traced: bool) -> Pass:
    kind_s = {"validate": 0.0, "infer": 0.0, "query": 0.0}
    latencies, runs, outputs = [], [], []
    start = time.perf_counter()
    for f in files:
        closure = program.workdir / f"{f.name}.closure.ttl"
        v = program.cli(["validate", "--format", "json", str(f.path)], traced)
        i = program.cli(["infer", str(f.path), "--out", str(closure)], traced)
        closure_bytes = closure.read_bytes() if closure.exists() else b""
        qs = [program.cli(["query", str(closure), "--format", "csv", "--query", q], traced)
              for q in f.queries]
        outputs.append([v.stdout, str(v.code).encode(), i.stdout, closure_bytes]
                       + [q.stdout for q in qs])
        for kind, group in (("validate", [v]), ("infer", [i]), ("query", qs)):
            for r in group:
                kind_s[kind] += r.wall_s
                latencies.append(r.wall_s)
                runs.append(r)
    wall = time.perf_counter() - start
    return Pass(wall, kind_s, latencies, outputs, runs)


def check_curation(outcome: Outcome, workload: str, seed: int, files: list[CurationFile],
                   passes: list[Pass]) -> None:
    first = passes[0]
    for p in passes[1:]:
        outcome.check(p.outputs == first.outputs, "outputs differ between passes")
    for p in passes:
        outcome.check(all(r.code in (0, 1) for r in p.runs), "a command exited with another code than 0 or 1")
    for f, outs in zip(files, first.outputs):
        if f.expected_codes is not None:
            codes = {d["code"] for d in json.loads(outs[0]) if d["severity"] == "error"}
            outcome.check(codes == f.expected_codes,
                          f"{f.name}: lint codes {sorted(codes)} != manifest {sorted(f.expected_codes)}")
    want = recorded_digest(workload, seed)
    got = digest(part for outs in first.outputs for part in outs)
    if want is not None:
        outcome.check(got == want, f"output digest {got[:12]} != recorded {want[:12]}")
        return
    for f, outs in zip(files, first.outputs):
        outcome.check(outs == reference_curation(f.text, f.queries),
                      f"{f.name}: CLI output differs from the in-process result")


def curate_files(workload: str, seed: int, workdir: Path) -> list[CurationFile]:
    files = []
    if workload == "curate-large":
        text = kbgen.synthetic_kb(seed)
        files.append(CurationFile("kb", workdir / "kb.ttl", text, list(kbgen.LARGE_QUERIES)))
    else:
        manifest = json.loads((SRC / "plantkb" / "fixtures" / "manifest.json").read_text())
        for entry in manifest:
            path = SRC / "plantkb" / "fixtures" / entry["path"]
            files.append(CurationFile(entry["name"], path, path.read_text(encoding="utf-8"),
                                      [kbgen.SMALL_QUERY], frozenset(entry["expected_error_codes"])))
        for k, text in enumerate(kbgen.small_corpus(seed, SMALL_CORPUS)):
            files.append(CurationFile(f"small{k:03d}", workdir / f"small{k:03d}.ttl", text,
                                      [kbgen.SMALL_QUERY]))
    for f in files:
        if f.path.parent == workdir:
            f.path.write_text(f.text, encoding="utf-8")
    return files


def run_curate(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    program = Program(workdir)
    files = curate_files(workload, seed, workdir)
    outcome = Outcome()
    if trace:
        plain = curation_pass(program, files, traced=False)
        traced = curation_pass(program, files, traced=True)
        check_curation(outcome, workload, seed, files, [plain, traced])
        tr = Trace()
        for r in traced.runs:
            tr.add(r.spans_path)
        outcome.metrics = tr.layer_metrics()
        for kind, wall_s in plain.kind_s.items():
            outcome.metrics[f"cli.{kind}_s"] = wall_s
        outcome.metrics["trace.overhead_pct"] = 100.0 * (traced.wall_s / plain.wall_s - 1.0)
        return outcome

    setup = measure.median([program.import_time() for _ in range(SETUP_REPEATS)])
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(curation_pass(program, files, traced=False))
    check_curation(outcome, workload, seed, files, passes)
    latencies = [x for p in passes for x in p.latencies_s]
    p50, tail, note = latency_metrics(latencies)
    outcome.notes.append(note + f" commands over {len(passes)} pass(es)")
    outcome.metrics = {
        "setup_s": setup,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": measure.median([r.rss_mb for p in passes for r in p.runs]),
    }
    return outcome


# -- serve workloads ----------------------------------------------------------------


def check_responses(outcome: Outcome, samples: list[loadgen.Sample], expected: dict) -> None:
    by_key: dict[tuple, set[bytes]] = {}
    for s in samples:
        status, body = expected[(s.request.query, s.request.fmt)]
        outcome.check(s.status == status and s.body == body,
                      f"{s.request.method} {s.request.target[:60]}: status {s.status}, "
                      f"{len(s.body)} bytes, expected {status}, {len(body)} bytes")
        by_key.setdefault((s.request.query, s.request.fmt), set()).add(s.body)
    for (query, fmt), bodies in by_key.items():
        outcome.check(len(bodies) == 1, f"GET and POST bodies differ for {query[:60]!r} ({fmt})")


def ladder_summary(steps) -> tuple[float, float]:
    """(highest rate meeting the latency limit with no growing backlog, median lag in ms)."""
    best = 0.0
    lags = []
    for rate, samples in steps:
        timings = [measure.open_loop_timing(s.due, s.sent, s.done) for s in samples]
        latency = [t[0] for t in timings]
        lag = [t[1] for t in timings]
        lags.extend(lag)
        ok = all(s.status for s in samples)
        if (ok and measure.tail(latency) * 1000.0 <= LATENCY_LIMIT_MS
                and not measure.backlog_grows(lag, BACKLOG_SLACK_S)):
            best = float(rate)
    return best, measure.median(lags) * 1000.0


@dataclass
class Load:
    samples: list[loadgen.Sample]
    latency_sets: list[list[float]]  # seconds, one list per batch
    ops_per_s: float
    connects_s: list[float]
    steps: list[tuple[int, list[loadgen.Sample]]]  # open loop only: (rate, samples) per rung


def serve_load(workload: str, port: int, mix: list[kbgen.Request], seconds: float,
               ids: loadgen.RequestIds) -> Load:
    if workload == "serve-keepalive":
        batches, connects = loadgen.closed_loop(port, mix, time.perf_counter() + seconds, ids)
        samples = [s for b in batches for s in b]
        busy = sum(max(s.done for s in b) - min(s.sent for s in b) for b in batches)
        return Load(samples, [[s.done - s.sent for s in b] for b in batches],
                    sum(1 for s in samples if s.status) / busy, connects, [])
    # Latency is read at the lowest rate, which gets about 80 % of the time,
    # in batches of one whole mix each: every batch has the same queries, and
    # a short stall of the shared machine spoils one batch, not the run.  The
    # higher rungs send one mix each.
    base = LADDER_RPS[0]
    batches = max(1, int(0.8 * seconds * base / len(mix)))
    steps = [(rate, loadgen.open_loop(port, mix, rate, len(mix) * (batches if rate == base else 1), ids))
             for rate in LADDER_RPS]
    samples = [s for _, st in steps for s in st]
    first = [measure.open_loop_timing(s.due, s.sent, s.done)[0] for s in steps[0][1]]
    span = max(s.done for s in samples) - min(s.due for s in samples)
    return Load(samples, [first[i:i + len(mix)] for i in range(0, len(first), len(mix))],
                sum(1 for s in samples if s.status) / span,
                [s.connect_s for s in samples if s.connect_s is not None], steps)


def run_serve(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    program = Program(workdir)
    outcome = Outcome()
    text = kbgen.synthetic_kb(seed, kbgen.MEDIUM)
    kb = workdir / "kb.ttl"
    kb.write_text(text, encoding="utf-8")
    mix = kbgen.request_mix(seed, MIX_SIZE)
    expected, n_triples = reference_bodies(text, mix)

    want = recorded_digest(workload, seed)
    if want is not None:
        got = bodies_digest(expected)
        outcome.check(got == want, f"reference digest {got[:12]} != recorded {want[:12]}")

    def serve_checked(traced: bool, load_seconds: float, ids: loadgen.RequestIds):
        server = program.start_server(kb, traced)
        try:
            status, body = loadgen.get(server.port, "/stats")
            outcome.check(status == 200 and json.loads(body)["triples"] == n_triples,
                          f"/stats reports {body!r}, expected {n_triples} triples")
            load = serve_load(workload, server.port, mix, load_seconds, ids)
        finally:
            server.stop()
        check_responses(outcome, load.samples, expected)
        return server, load

    if trace:
        _, plain = serve_checked(False, seconds / 2, loadgen.RequestIds("u"))
        server, traced = serve_checked(True, seconds / 2, loadgen.RequestIds("t"))
        tr = Trace()
        tr.add(server.spans_path)
        outcome.metrics = tr.layer_metrics()
        overhead = [(s.done - s.sent) - tr.request_lib_s[s.rid]
                    for s in traced.samples if s.rid in tr.request_lib_s]
        outcome.metrics["endpoint.overhead_ms"] = measure.median(overhead) * 1000.0
        outcome.metrics["endpoint.connect_ms"] = measure.median(traced.connects_s) * 1000.0
        if plain.steps:
            rate, lag = ladder_summary(plain.steps)
            outcome.metrics["loadgen.rate_at_limit_rps"] = rate
            outcome.metrics["loadgen.lag_ms"] = lag
        plain_p50 = measure.median([x for ls in plain.latency_sets for x in ls])
        traced_p50 = measure.median([x for ls in traced.latency_sets for x in ls])
        outcome.metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
        return outcome

    setups = []
    for _ in range(SERVER_STARTS - 1):
        server = program.start_server(kb)
        setups.append(server.setup_s)
        server.stop()
    server, load = serve_checked(False, seconds, loadgen.RequestIds("r"))
    setups.append(server.setup_s)
    p50s, tails = [], []
    for ls in load.latency_sets:
        p50, tail, note = latency_metrics(ls)
        p50s.append(p50)
        tails.append(tail)
    outcome.notes.append(note + f", median over {len(load.latency_sets)} batch(es)")
    if load.steps:
        rate, lag = ladder_summary(load.steps)
        outcome.notes.append(f"ladder {LADDER_RPS} req/s: highest rate within "
                             f"{LATENCY_LIMIT_MS:g} ms tail = {rate:g}; median generator lag {lag:.3f} ms")
    outcome.metrics = {
        "setup_s": measure.median(setups),
        "latency_p50_ms": measure.median(p50s),
        "latency_tail_ms": measure.median(tails),
        "ops_per_s": load.ops_per_s,
        "peak_rss_mb": server.rss_mb,
    }
    return outcome


WORKLOADS = {
    "curate-large": run_curate,
    "curate-small": run_curate,
    "serve-keepalive": run_serve,
    "serve-fresh": run_serve,
}


# -- entry point --------------------------------------------------------------------


def report(outcome: Outcome, units: dict[str, str]) -> bool:
    for note in outcome.notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return correct


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        print(f"## {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "plantkb" / "cli.py").is_file():
        print(f"error: {SRC / 'plantkb'} not found; run from a plantkb checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        outcome = WORKLOADS[args.workload](args.workload, args.seed, args.seconds,
                                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if report(outcome, PER_LAYER if args.trace else END_TO_END) else 1


if __name__ == "__main__":
    sys.exit(main())
