"""Command line behavior: exit codes, output bytes, flag handling."""

import gc
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import plantkb
import plantkb.cli
import plantkb.fixtures
from plantkb.cli import main
from plantkb.fixtures import fixture_graph
from plantkb.ontology import to_dot
from plantkb.reasoner import materialize
from plantkb.sparql import evaluate, parse_query, serialize_results
from plantkb.turtle import parse_turtle

FIXTURE_DIR = Path(plantkb.fixtures.__file__).resolve().parent
CLEAN = str(FIXTURE_DIR / "arabidopsis.ttl")

SUBCLASS_QUERY = (
    "PREFIX plant: <http://plantkb.example/arabidopsis#> "
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> "
    "SELECT ?x WHERE { ?x rdfs:subClassOf plant:BiologicalProperty } ORDER BY ?x"
)


# -- validate --------------------------------------------------------------------


def test_validate_clean_fixture_passes(capsys):
    assert main(["validate", CLEAN]) == 0
    assert capsys.readouterr().out == ""


def test_validate_defect_fixture_fails(capsys):
    assert main(["validate", str(FIXTURE_DIR / "defects" / "nc001.ttl")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ERROR NC001 <") and out.endswith("\n")


def test_validate_json_format(capsys):
    assert main(["validate", str(FIXTURE_DIR / "defects" / "md001.ttl"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [d["code"] for d in payload] == ["MD001"]


def test_validate_missing_file(capsys):
    assert main(["validate", str(FIXTURE_DIR / "absent.ttl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_bad_turtle(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("@prefix ex: <http://e.test/> .\nex:a ex:b\n")
    assert main(["validate", str(bad)]) == 2
    assert "line " in capsys.readouterr().err


def test_validate_unknown_prefix(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("@prefix ex: <http://e.test/> .\nex:a zz:b ex:c .\n")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == "error: unknown prefix 'zz' at line 2, column 6\n"


def test_validate_no_labels_check_silences_md001(capsys):
    path = str(FIXTURE_DIR / "defects" / "md001.ttl")
    assert main(["validate", path, "--no-labels-check"]) == 0
    assert capsys.readouterr().out == ""


def test_validate_custom_class_pattern(capsys):
    # under a permissive pattern the naming defect disappears
    path = str(FIXTURE_DIR / "defects" / "nc001.ttl")
    assert main(["validate", path, "--class-pattern", "^.*$"]) == 0


@pytest.mark.parametrize("flag", ["--class-pattern", "--property-pattern"])
def test_validate_bad_naming_pattern_exits_2_without_traceback(flag, capsys):
    # run_checks compiles the pattern, and would raise re.error
    with pytest.raises(SystemExit) as exc:
        main(["validate", CLEAN, flag, "("])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not a regular expression: " in err
    assert "Traceback" not in err


# -- infer -----------------------------------------------------------------------


def test_infer_writes_materialized_file(tmp_path, capsys):
    out = tmp_path / "closure.ttl"
    assert main(["infer", CLEAN, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "added 46 triples in 3 iterations\n"
    expected = fixture_graph("arabidopsis")
    materialize(expected)
    assert parse_turtle(out.read_text()).graph == expected


def test_infer_unwritable_output(capsys):
    assert main(["infer", CLEAN, "--out", "/nonexistent-dir/x.ttl"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- query -----------------------------------------------------------------------


def expected_serialized(query, fmt, infer=False):
    g = fixture_graph("arabidopsis")
    if infer:
        materialize(g)
    return serialize_results(evaluate(parse_query(query), g), fmt)


def test_query_json_matches_library_bytes(capsys):
    assert main(["query", CLEAN, "--query", SUBCLASS_QUERY]) == 0
    assert capsys.readouterr().out == expected_serialized(SUBCLASS_QUERY, "sparql-json")


def test_query_csv_format(capsys):
    assert main(["query", CLEAN, "--query", SUBCLASS_QUERY, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == expected_serialized(SUBCLASS_QUERY, "csv")
    assert "\r\n" in out


def test_query_with_infer_flag(capsys):
    q = ("PREFIX owl: <http://www.w3.org/2002/07/owl#> "
         "SELECT ?x WHERE { ?x a owl:Thing }")
    assert main(["query", CLEAN, "--query", q, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "x\r\n"  # nothing typed owl:Thing before closure
    assert main(["query", CLEAN, "--query", q, "--infer", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 15  # header plus 14 members


def test_query_table_format(tmp_path, capsys):
    doc = tmp_path / "tiny.ttl"
    doc.write_text('@prefix ex: <http://e.test/> .\nex:a ex:p "x" .\n')
    q = "PREFIX ex: <http://e.test/> SELECT ?s ?o WHERE { ?s ex:p ?o }"
    assert main(["query", str(doc), "--query", q, "--format", "table"]) == 0
    assert capsys.readouterr().out == (
        "s                o\n"
        "---------------  -\n"
        "http://e.test/a  x\n"
    )


def test_query_from_file(tmp_path, capsys):
    qf = tmp_path / "q.rq"
    qf.write_text(SUBCLASS_QUERY)
    assert main(["query", CLEAN, "--query-file", str(qf)]) == 0
    assert capsys.readouterr().out == expected_serialized(SUBCLASS_QUERY, "sparql-json")


def test_query_missing_query_file(capsys):
    assert main(["query", CLEAN, "--query-file", "/no/such.rq"]) == 2


def test_query_syntax_error(capsys):
    assert main(["query", CLEAN, "--query", "SELECT ?s WHERE { ?s ?p"]) == 2
    assert "line 1, column" in capsys.readouterr().err


def test_query_malformed_number_exits_2_without_traceback(capsys):
    assert main(["query", CLEAN, "--query", "SELECT ?x WHERE { ?x ?p ?o } LIMIT +."]) == 2
    err = capsys.readouterr().err
    assert "line 1, column 36: digits expected in numeric literal" in err
    assert "Traceback" not in err


LONG_INTEGER = "1" * 5000  # past the digits int() reads from text
LONG_PREFIX = "PREFIX ex: <http://example.test/long#> "


def long_integer_file(tmp_path):
    path = tmp_path / "long.ttl"
    path.write_text(f"@prefix ex: <http://example.test/long#> .\nex:a ex:v {LONG_INTEGER} .\nex:b ex:v 0 .\n")
    return str(path)


@pytest.mark.parametrize("where, subjects", [
    ("{ ?s ex:v ?v FILTER(?v > 1) }", ["a"]),
    (f"{{ ?s ex:v ?v FILTER(?v = {LONG_INTEGER}) }}", ["a"]),
    (f"{{ ?s ex:v ?v FILTER(?v < {LONG_INTEGER}) }}", ["b"]),
    ("{ ?s ex:v ?v } ORDER BY ?v", ["b", "a"]),
    ("{ ?s ex:v ?v } ORDER BY DESC(?v)", ["a", "b"]),
], ids=["above-one", "equal-to-it", "below-it", "ascending", "descending"])
def test_query_compares_an_integer_of_any_length(where, subjects, tmp_path, capsys):
    path = long_integer_file(tmp_path)
    assert main(["query", path, "--query", f"{LONG_PREFIX}SELECT ?s WHERE {where}", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.split("\r\n")
    assert rows == ["s", *(f"http://example.test/long#{s}" for s in subjects), ""]


@pytest.mark.parametrize("word", ["LIMIT", "OFFSET"])
def test_query_with_an_overlong_count_exits_2_without_traceback(word, tmp_path, capsys):
    path = long_integer_file(tmp_path)
    assert main(["query", path, "--query", f"SELECT ?s WHERE {{ ?s ?p ?v }} {word} {LONG_INTEGER}"]) == 2
    err = capsys.readouterr().err
    assert f"line 1, column {len('SELECT ?s WHERE { ?s ?p ?v } ') + len(word) + 2}: {word} count" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["validate", "TTL"],
    ["infer", "TTL", "--out", "OUT"],
    ["query", "TTL", "--query", "SELECT ?s WHERE { ?s ?p ?o }"],
    ["query", CLEAN, "--query-file", "RQ"],
    ["export", "TTL", "--mode", "classes"],
    ["serve", "TTL", "--bind", "127.0.0.1:0"],
])
def test_input_that_is_not_utf8_exits_2_without_traceback(args, tmp_path, capsys):
    # Latin-1 bytes: 0xe9 ('é') is not a UTF-8 continuation of what precedes it
    ttl = tmp_path / "latin1.ttl"
    ttl.write_bytes('<http://e.test/s> <http://e.test/p> "caf\u00e9" .\n'.encode("latin-1"))
    rq = tmp_path / "latin1.rq"
    rq.write_bytes('SELECT ?s WHERE { ?s ?p "caf\u00e9" }'.encode("latin-1"))
    paths = {"TTL": str(ttl), "RQ": str(rq), "OUT": str(tmp_path / "out.ttl")}
    assert main([paths.get(a, a) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text: ")
    assert "Traceback" not in err


def test_query_flags_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["query", CLEAN, "--query", "x", "--query-file", "y"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["query", CLEAN])
    assert exc.value.code == 2


# -- serve -----------------------------------------------------------------------


def test_serve_rejects_bad_bind(capsys):
    assert main(["serve", CLEAN, "--bind", "nope"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_serve_rejects_out_of_range_port(capsys):
    # used to end in OverflowError from socket.bind
    assert main(["serve", CLEAN, "--bind", "127.0.0.1:70000"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err


def test_serve_reports_occupied_port(capsys):
    blocker = socket.socket()
    try:
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        assert main(["serve", CLEAN, "--bind", f"127.0.0.1:{port}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    finally:
        blocker.close()


def test_serve_rejects_bad_source(capsys):
    assert main(["serve", str(FIXTURE_DIR / "absent.ttl"), "--bind", "127.0.0.1:0"]) == 2


# -- the cyclic collector --------------------------------------------------------


@pytest.fixture
def collector():
    """Yields a setter for the collector's state and restores the state it found."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("args, code", [
    (["validate", CLEAN], 0),
    (["infer", CLEAN, "--out", "OUT"], 0),
    (["query", CLEAN, "--query", SUBCLASS_QUERY], 0),
    (["export", CLEAN, "--mode", "classes"], 0),
    (["validate", str(FIXTURE_DIR / "absent.ttl")], 2),
])
def test_one_shot_command_runs_without_the_collector_and_restores_it(
        args, code, enabled, collector, monkeypatch, tmp_path, capsys):
    seen = []
    load = plantkb.cli._load_graph

    def recording_load(path):
        seen.append(gc.isenabled())
        return load(path)

    monkeypatch.setattr(plantkb.cli, "_load_graph", recording_load)
    collector(enabled)
    assert main([str(tmp_path / "out.ttl") if a == "OUT" else a for a in args]) == code
    assert seen == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_serve_runs_with_the_collector_as_the_caller_left_it(enabled, collector, monkeypatch):
    seen = []
    monkeypatch.setattr(plantkb.cli, "serve", lambda cfg: seen.append(gc.isenabled()))
    collector(enabled)
    assert main(["serve", CLEAN, "--bind", "127.0.0.1:0"]) == 0
    assert seen == [enabled]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("args, codes", [
    (["validate"], (0, 1)),  # the ten copies share labels (CN002)
    (["infer", "--out", "OUT"], (0, 0)),
    (["query", "--query", SUBCLASS_QUERY], (0, 0)),
    (["export", "--mode", "classes"], (0, 0)),
])
def test_one_shot_command_leaves_no_more_cyclic_garbage_on_a_larger_input(
        args, codes, tmp_path, collector, capsys):
    # one-shot commands run without the collector, so what they leave in
    # cycles must not grow with the input
    text = (FIXTURE_DIR / "arabidopsis.ttl").read_text()
    larger = tmp_path / "tenfold.ttl"
    larger.write_text("".join(text.replace("arabidopsis#", f"arabidopsis{i}#") for i in range(10)))
    argv = [str(tmp_path / "out.ttl") if a == "OUT" else a for a in args]
    collector(False)
    left = []
    for path, code in zip((CLEAN, str(larger)), codes):
        gc.collect()
        assert main([argv[0], path, *argv[1:]]) == code
        capsys.readouterr()
        left.append(gc.collect())
    assert left[1] <= left[0] + 20, left


# -- export ----------------------------------------------------------------------


def test_export_classes_matches_library(capsys):
    assert main(["export", CLEAN, "--mode", "classes"]) == 0
    assert capsys.readouterr().out == to_dot(fixture_graph("arabidopsis"), "classes")


def test_export_properties_matches_library(capsys):
    assert main(["export", CLEAN, "--mode", "properties"]) == 0
    assert capsys.readouterr().out == to_dot(fixture_graph("arabidopsis"), "properties")


def test_export_cycle_is_an_error(capsys):
    assert main(["export", str(FIXTURE_DIR / "defects" / "cs002.ttl"), "--mode", "classes"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: subclass cycle through: ")


def test_export_properties_ignores_class_cycle(capsys):
    assert main(["export", str(FIXTURE_DIR / "defects" / "cs002.ttl"), "--mode", "properties"]) == 0


def test_export_mode_is_required():
    with pytest.raises(SystemExit) as exc:
        main(["export", CLEAN])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- hash-seed independence --------------------------------------------------------


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # a writer that iterated a set of terms in hash order would give
    # different bytes under different PYTHONHASHSEED values
    fixture = str(FIXTURE_DIR / "defects" / "cn002.ttl")
    src = str(Path(plantkb.__file__).resolve().parent.parent)
    commands = [
        ["validate", fixture, "--format", "json"],
        ["infer", fixture, "--out", "OUT"],
        ["query", fixture, "--query", "SELECT * WHERE { ?s ?p ?o }", "--format", "csv"],
        ["export", fixture, "--mode", "classes"],
    ]
    outputs = []
    for seed in ("1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = tmp_path / f"inferred-{seed}.ttl"
        seen = []
        for args in commands:
            argv = [str(out) if a == "OUT" else a for a in args]
            done = subprocess.run([sys.executable, "-m", "plantkb.cli", *argv],
                                  capture_output=True, env=env, timeout=60)
            assert done.returncode in (0, 1), done.stderr
            seen.append((done.returncode, done.stdout))
        seen.append(out.read_bytes())
        outputs.append(seen)
    assert outputs[0] == outputs[1]
    assert all(stdout for _, stdout in outputs[0][:4])
