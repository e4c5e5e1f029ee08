"""JSON graph documents.

Rationals travel as strings ("a/b" or "a") so no floating point can leak
into the data path.  A document looks like::

    {
      "rank": 2,
      "valence": 3,
      "vertices": [{"id": "A", "mu": ["0", "0"]}, ...],
      "edges": [{"from": "A", "to": "B", "weight": ["1", "0"]}, ...],
      "xi": ["1", "3"]          // optional
    }

Edge weights are read from the "from" endpoint.  Loading validates the
graph; schema problems raise ParseError with the offending path, axiom
failures raise ValidationError carrying the full report.  An integer with
more digits than Python converts from text (``sys.get_int_max_str_digits``)
is a schema problem too, inside a rational string or as a bare JSON number.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Optional

from .errors import ParseError, PreconditionError, ValidationError
from .graph import Edge, GkmGraph, ValidationReport, Vertex
from .polynomial import Vector, ratio_vector

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class _LongInteger:
    """A JSON integer literal too long to convert; parse_rational reports it."""

    __slots__ = ("digits",)

    def __init__(self, digits: str):
        self.digits = digits


def _parse_json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInteger(text)


def _too_long(where: str, digits: str) -> ParseError:
    return ParseError(f"{where}: integer of {len(digits.lstrip('-'))} digits exceeds "
                      f"the conversion limit of {sys.get_int_max_str_digits()}")


def parse_rational(value, where: str) -> tuple[int, int]:
    """Parse "a/b" / "a" strings (or JSON integers) into int (numerator, denominator)."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational string, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, _LongInteger):
        raise _too_long(where, value.digits)
    if isinstance(value, float):
        raise ParseError(f"{where}: floating-point numbers are not accepted; use strings")
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a rational string, got {type(value).__name__}")
    match = _RATIONAL.match(value.strip())
    if not match:
        raise ParseError(f"{where}: malformed rational {value!r}")
    try:
        numerator = int(match.group(1))
        denominator = int(match.group(2)) if match.group(2) else 1
    except ValueError:
        raise _too_long(where, max(match.groups(""), key=len)) from None
    if denominator == 0:
        raise ParseError(f"{where}: zero denominator in {value!r}")
    return numerator, denominator


def parse_vector(value, where: str) -> Vector:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of rational strings")
    if len(value) != 2:
        raise ParseError(f"{where}: expected 2 components, got {len(value)}")
    return ratio_vector([parse_rational(v, f"{where}[{i}]") for i, v in enumerate(value)])


def document_to_graph(doc: dict) -> tuple[GkmGraph, Optional[Vector]]:
    """Parse a document dict; returns the graph and the optional covector.

    Does not validate the GKM axioms; see load_graph for the validating
    entry point.
    """
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    for key in ("rank", "valence", "vertices", "edges"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    rank = doc["rank"]
    valence = doc["valence"]
    if type(rank) is not int or rank != 2:
        raise ParseError("rank: expected 2 (a planar torus action)")
    if not isinstance(valence, int) or isinstance(valence, bool) or valence < 0:
        raise ParseError("valence: expected a non-negative integer")
    if not isinstance(doc["vertices"], list):
        raise ParseError("vertices: expected a list")
    if not isinstance(doc["edges"], list):
        raise ParseError("edges: expected a list")

    vertices = []
    for i, entry in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        if not isinstance(entry, dict) or "id" not in entry or "mu" not in entry:
            raise ParseError(f"{where}: expected an object with 'id' and 'mu'")
        vid = entry["id"]
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"{where}.id: expected a non-empty string")
        vertices.append(Vertex(vid, parse_vector(entry["mu"], f"{where}.mu")))

    edges = []
    for i, entry in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(entry, dict) or not {"from", "to", "weight"} <= set(entry):
            raise ParseError(f"{where}: expected an object with 'from', 'to', 'weight'")
        if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
            raise ParseError(f"{where}: endpoints must be strings")
        weight = parse_vector(entry["weight"], f"{where}.weight")
        edges.append(Edge(entry["from"], entry["to"], weight))

    xi = None
    if "xi" in doc and doc["xi"] is not None:
        xi = parse_vector(doc["xi"], "xi")

    try:
        graph = GkmGraph(rank, valence, vertices, edges)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None
    return graph, xi


def loads(text: str) -> tuple[GkmGraph, Optional[Vector], ValidationReport]:
    """Parse and validate a JSON document string.

    Returns the graph, the document's covector (None when absent) and the
    validation report, which passed: a failing one raises ValidationError.
    """
    try:
        doc = json.loads(text, parse_int=_parse_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    graph, xi = document_to_graph(doc)
    report = graph.validate()
    if not report.ok:
        raise ValidationError(report)
    return graph, xi, report


def load_graph(path) -> tuple[GkmGraph, Optional[Vector], ValidationReport]:
    """Load and validate a graph document from a file path, as :func:`loads`.

    A path that cannot be read as UTF-8 text is a ParseError naming it.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return loads(text)


def graph_to_document(graph: GkmGraph, xi: Optional[Vector] = None) -> dict:
    """Serialize back to the document shape (rationals as strings)."""
    doc = {
        "rank": graph.rank,
        "valence": graph.valence,
        "vertices": [
            {"id": v.id, "mu": [str(c) for c in v.mu]} for v in graph.vertices
        ],
        "edges": [
            {"from": e.first, "to": e.second, "weight": [str(c) for c in e.weight]}
            for e in graph.edges
        ],
    }
    if xi is not None:
        doc["xi"] = [str(c) for c in xi]
    return doc


def dumps(graph: GkmGraph, xi: Optional[Vector] = None) -> str:
    return json.dumps(graph_to_document(graph, xi), indent=2) + "\n"
