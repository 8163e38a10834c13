"""plantkb command line: validate, infer, query, serve, export.

Exit codes: 0 success; 1 error-severity findings or an inconsistency;
2 usage errors, unreadable or non-UTF-8 files, or Turtle/query syntax errors.

The one-shot commands (validate, infer, query, export) run with the cyclic
garbage collector off; ``main`` turns it back on when it returns, if the
caller had it on.  ``serve`` runs with the collector as the caller left it,
and it alone loads the HTTP stack.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys

from .endpoint import DatasetConfig, resolve_bind, serve
from .errors import ParseError, SubclassCycleError
from .graph import Graph
from .lint import (
    ALL_CODES,
    DEFAULT_CLASS_PATTERN,
    DEFAULT_PROPERTY_PATTERN,
    CheckConfig,
    Severity,
    render_json,
    render_text,
    run_checks,
)
from .ontology import to_dot
from .reasoner import materialize
from .sparql import _csv_term, evaluate, parse_query, serialize_results
from .turtle import parse_turtle, serialize_turtle


def _load_graph(path: str) -> Graph:
    """Parse a Turtle file; raises OSError or ParseError, which ``main`` maps to 2."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_turtle(text).graph


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _pattern(text: str) -> str:
    """An argparse type: the text itself, once it compiles as a regular expression."""
    try:
        re.compile(text)
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"not a regular expression: {exc}") from None
    return text


def cmd_validate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    cfg = CheckConfig(
        enabled_codes=ALL_CODES - {"MD001"} if args.no_labels_check else ALL_CODES,
        class_name_pattern=args.class_pattern,
        property_name_pattern=args.property_pattern,
    )
    diagnostics = run_checks(graph, cfg)
    sys.stdout.write((render_json if args.format == "json" else render_text)(diagnostics))
    return 1 if any(d.severity is Severity.ERROR for d in diagnostics) else 0


def cmd_infer(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    result = materialize(graph)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_turtle(graph))
    print(f"added {len(result.added)} triples in {result.iterations} iterations")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    if args.query is not None:
        query_text = args.query
    else:
        with open(args.query_file, encoding="utf-8") as fh:
            query_text = fh.read()
    query = parse_query(query_text)
    if args.infer:
        materialize(graph)
    results = evaluate(query, graph)
    sys.stdout.write(_render_table(results) if args.format == "table" else
                     serialize_results(results, "csv" if args.format == "csv" else "sparql-json"))
    return 0


def _render_table(results) -> str:
    header = list(results.vars)
    body = [[_csv_term(row[v]) if v in row else "" for v in header] for row in results.rows]
    widths = [
        max([len(header[i])] + [len(r[i]) for r in body]) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_serve(args: argparse.Namespace) -> int:
    import logging

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    try:
        host, port = resolve_bind(args.bind)
    except ValueError as exc:
        return _fail(str(exc), 2)
    cfg = DatasetConfig(
        source_path=args.file,
        materialize_on_load=args.materialize,
        bind_address=f"{host}:{port}",
    )
    try:
        serve(cfg)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph = _load_graph(args.file)
    try:
        sys.stdout.write(to_dot(graph, args.mode))
    except SubclassCycleError as exc:
        return _fail(str(exc), 1)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantkb",
        description="Semantic knowledge-base toolkit: parse, validate, reason over, "
        "query, serve, and export OWL/RDF ontologies in Turtle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run lint and consistency checks")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--no-labels-check", action="store_true")
    p.add_argument("--class-pattern", type=_pattern, default=DEFAULT_CLASS_PATTERN)
    p.add_argument("--property-pattern", type=_pattern, default=DEFAULT_PROPERTY_PATTERN)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("infer", help="materialize inferences to a new Turtle file")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("query", help="evaluate a SPARQL query against a file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query")
    group.add_argument("--query-file")
    p.add_argument("--infer", action="store_true", help="materialize before querying")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("serve", help="serve the file over HTTP (SPARQL protocol subset)")
    p.add_argument("file")
    p.add_argument("--bind", default=None, metavar="HOST:PORT")
    p.add_argument("--materialize", action="store_true")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("export", help="emit the ontology as GraphViz DOT")
    p.add_argument("file")
    p.add_argument("--mode", choices=["classes", "properties"], required=True)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    # validate on a 13.7k-triple KB ran 378 collections (54 ms) that freed only argparse's cycles
    if args.command != "serve":
        gc.disable()
    try:
        return args.func(args)
    except (OSError, ParseError) as exc:
        return _fail(str(exc), 2)
    except UnicodeDecodeError as exc:
        return _fail(f"input is not UTF-8 text: {exc.reason} at byte {exc.start}", 2)
    finally:
        if collecting:
            gc.enable()


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
