"""Command surface: validate, report, render, corpus.

Exit code 0 means every internal assertion passed; any validation failure,
non-generic covector, or failed check exits 1 with a diagnostic (argparse
itself exits 2 on usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .corpus import corpus, corpus_names
from .errors import GkmError, ParseError, ValidationError
from .graph import GkmGraph, find_index_increasing_xi, orient
from .jsonio import graph_to_document, load_graph, parse_rational
from .lefschetz import hard_lefschetz_report
from .polynomial import Vector
from .render import render_svg


def _parse_xi_flag(text: str) -> Vector:
    parts = text.split(",")
    return Vector(tuple(parse_rational(p, f"--xi component {i}")
                        for i, p in enumerate(parts)))


def _choose_xi(graph: GkmGraph, file_xi: Optional[Vector],
               override: Optional[Vector]) -> tuple[Vector, str]:
    if override is not None:
        return override, "flag"
    if file_xi is not None:
        return file_xi, "document"
    found = find_index_increasing_xi(graph, count=1)
    if not found:
        raise GkmError("no generic index-increasing covector found in the search range")
    return found[0], "search"


def _cmd_validate(args) -> int:
    try:
        graph, _, validation = load_graph(args.file)
    except ValidationError as exc:
        print(str(exc.report))
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    print(validation)
    print(f"{len(graph.vertices)} vertices, {len(graph.edges)} edges: valid")
    return 0


def _cmd_report(args) -> int:
    try:
        graph, file_xi, validation = load_graph(args.file)
        override = _parse_xi_flag(args.xi) if args.xi is not None else None
        xi, source = _choose_xi(graph, file_xi, override)
        og = orient(graph, xi)
        report = hard_lefschetz_report(og)
    except ValidationError as exc:
        print(str(exc.report), file=sys.stderr)
        return 1
    except GkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "file": str(args.file),
        "validation": validation.to_jsonable(),
        "xi": [str(c) for c in xi],
        "xi_source": source,
        "report": report.to_jsonable(),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"validation: {'ok' if validation.ok else 'FAILED'}")
        print(f"xi = ({', '.join(str(c) for c in xi)})  [{source}]")
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    try:
        graph, file_xi, _ = load_graph(args.file)
        override = _parse_xi_flag(args.xi) if args.xi is not None else None
        try:
            xi, _ = _choose_xi(graph, file_xi, override)
            og = orient(graph, xi)
        except GkmError:
            og = None  # draw unoriented rather than fail
        svg = render_svg(graph, og, title=Path(args.file).stem)
    except GkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        Path(args.output).write_text(svg, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output}")
    return 0


def _cmd_corpus(args) -> int:
    if not args.name:
        print(f"{'name':<12} {'type':<5} {'vertices':<9} title")
        for name in corpus_names():
            inst = corpus(name)
            print(f"{name:<12} ({inst.expected_type})   "
                  f"{len(inst.graph.vertices):<9} {inst.title}")
        return 0
    try:
        inst = corpus(args.name)
    except GkmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = graph_to_document(inst.graph, inst.xi)
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="Exact hard-Lefschetz diagnostics for planar moment graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the GKM axioms of a graph document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="full verdict report for a graph document")
    p.add_argument("file")
    p.add_argument("--xi", help="covector override, e.g. 1/1,3/1 or 1,3")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("render", help="draw the moment image as SVG")
    p.add_argument("file")
    p.add_argument("-o", "--output", default="out.svg")
    p.add_argument("--xi", help="covector override for the arrowheads")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("corpus", help="list built-in instances or print one")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
