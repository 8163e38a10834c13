"""Tests of the benchmark's own code: generators, span arithmetic, statistics, wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kbgen
import measure
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _digest_in_fresh_interpreter(hash_seed: str) -> str:
    code = (
        "import hashlib, kbgen\n"
        "h = hashlib.sha256()\n"
        "h.update(kbgen.synthetic_kb(11, kbgen.MEDIUM).encode())\n"
        "for text in kbgen.small_corpus(11, 5): h.update(text.encode())\n"
        "for r in kbgen.request_mix(11, 50): h.update(repr(r).encode())\n"
        "print(h.hexdigest())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(HERE), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_generators_are_byte_identical_for_a_seed_across_processes():
    assert _digest_in_fresh_interpreter("1") == _digest_in_fresh_interpreter("2")


def test_generators_depend_on_the_seed():
    assert kbgen.synthetic_kb(3, kbgen.MEDIUM) == kbgen.synthetic_kb(3, kbgen.MEDIUM)
    assert kbgen.synthetic_kb(3, kbgen.MEDIUM) != kbgen.synthetic_kb(4, kbgen.MEDIUM)
    assert kbgen.small_corpus(3, 4) != kbgen.small_corpus(4, 4)
    assert kbgen.request_mix(3, 40) == kbgen.request_mix(3, 40)
    assert kbgen.request_mix(3, 40) != kbgen.request_mix(4, 40)


def test_generated_inputs_parse_and_the_large_kb_has_its_stated_size():
    from plantkb import parse_turtle

    assert len(parse_turtle(kbgen.synthetic_kb(5)).graph) == pytest.approx(13_700, rel=0.05)
    for text in kbgen.small_corpus(5, 10):
        parse_turtle(text)


def test_request_mix_covers_methods_formats_and_invalid_queries():
    mix = kbgen.request_mix(2, 400)
    assert {r.method for r in mix} == {"GET", "POST"}
    assert {dict(r.headers).get("Content-Type") for r in mix} == {
        None, "application/x-www-form-urlencoded", "application/sparql-query"}
    assert {r.fmt for r in mix} == {"csv", "sparql-json"}
    assert 0 < sum(r.status == 400 for r in mix) < 40


def test_self_time_subtracts_the_union_of_children():
    # root 0-100 with children 10-40 and 30-60 (overlap covered once), one grandchild
    recorded = [
        (1, 0, "cli.main", 0, 100, None),
        (2, 1, "turtle.parse_turtle", 10, 40, None),
        (3, 1, "reasoner.materialize", 30, 60, None),
        (4, 3, "graph.Graph.match_with_stats", 35, 45, None),
    ]
    got = spans.self_times(recorded)
    assert got["cli"] == pytest.approx(50e-9)  # 100 - |[10, 60]|
    assert got["turtle"] == pytest.approx(30e-9)
    assert got["reasoner"] == pytest.approx(20e-9)
    assert got["graph"] == pytest.approx(10e-9)


def test_inclusive_time_counts_nested_spans_of_one_name_once():
    recorded = [
        (1, 0, "reasoner.materialize", 0, 100, None),
        (2, 1, "reasoner.materialize", 10, 20, None),
        (3, 0, "reasoner.materialize", 200, 250, None),
    ]
    assert spans.inclusive_times(recorded)["reasoner.materialize"] == pytest.approx(150e-9)


def test_request_library_time_sums_the_sparql_spans_of_each_request():
    recorded = [
        (1, 0, "endpoint.do_GET", 0, 50_000_000, "r1"),
        (2, 1, "sparql.parse_query", 0, 1_000_000, "r1"),
        (3, 1, "sparql.evaluate", 1_000_000, 3_000_000, "r1"),
        (4, 3, "graph.Graph.match_with_stats", 1_000_000, 2_000_000, "r1"),
        (5, 0, "sparql.parse_query", 0, 1_000_000, "r2"),
    ]
    assert spans.request_library_times(recorded) == pytest.approx({"r1": 0.003, "r2": 0.001})


@pytest.mark.parametrize("n, rank, pct", [(200, 190, 95.0), (1000, 990, 99.0), (11, 1, 100 / 11),
                                          (10, 10, 100.0), (1, 1, 100.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, rank, pct):
    assert measure.tail_rank(n) == rank
    assert measure.tail_percentile(n) == pytest.approx(pct)


def test_tail_value_is_the_sample_at_the_tail_rank():
    values = [float(v) for v in range(1, 201)]
    assert measure.tail(values[::-1]) == 190.0
    assert measure.tail([3.0, 1.0, 2.0]) == 3.0


def test_open_loop_latency_runs_from_the_due_time():
    due = measure.due_time(10.0, 50.0, 5)  # the sixth request at 50/s
    assert due == pytest.approx(10.1)
    latency, lag = measure.open_loop_timing(due, sent=10.3, done=10.35)
    assert latency == pytest.approx(0.25)  # not the 0.05 s the request spent in flight
    assert lag == pytest.approx(0.2)


def test_backlog_growth_compares_first_and_last_quarter_lags():
    assert not measure.backlog_grows([0.001] * 40, slack=0.005)
    assert measure.backlog_grows([0.001 * i for i in range(40)], slack=0.005)


def test_wrappers_patch_every_binding_and_record_nested_spans(tmp_path):
    fixture = SRC / "plantkb" / "fixtures" / "arabidopsis.ttl"
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    code = (
        "import sys, spans, plantkb.cli, plantkb.lint, plantkb.reasoner\n"
        "spans.install(spans.Recorder())\n"
        "assert plantkb.cli.materialize is plantkb.reasoner.materialize\n"
        "assert plantkb.lint.check_consistency is plantkb.reasoner.check_consistency\n"
        "assert plantkb.materialize is plantkb.reasoner.materialize\n"
        "assert plantkb.reasoner.materialize.__wrapped__.__module__ == 'plantkb.reasoner'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    subprocess.run([sys.executable, str(HERE / "launch.py"), str(out), "validate", str(fixture)],
                   env=env, check=True, timeout=60, capture_output=True)
    data = json.loads(out.read_text())
    by_id = {s[0]: s for s in data["spans"]}
    names = {s[2] for s in data["spans"]}
    assert {"cli.main", "turtle.parse_turtle", "lint.run_checks", "ontology.extract_ontology",
            "reasoner.check_consistency", "graph.Graph.copy"} <= names
    parents = {by_id[s[1]][2] for s in data["spans"] if s[2] == "reasoner.materialize"}
    assert parents == {"reasoner.check_consistency"}
    counters = data["counters"]
    assert 0 < counters["reasoner.insert_new"] < counters["reasoner.insert_attempts"]
    assert counters["graph.match_calls"] > 0
    assert spans.self_times(data["spans"])["lint"] > 0
