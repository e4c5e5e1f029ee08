"""Seeded inputs, timed ops and output checks of the three workloads.

Every workload runs over the six corpus instances, several orientations
each; one pass runs one op per orientation.  A workload is ``setup(seed, workdir) -> cases``,
``op(case) -> output`` (the timed part) and ``check(case, output)``, which
raises ``CheckFailed`` on a wrong output and is never timed.

- ``report``: the CLI path a user runs, every cache cold.
- ``thom``: Thom-class solves and slice bases on instances moved by large
  integer matrices, so Bareiss elimination sees integer growth.
- ``pairing``: localization integrals and cohomology products on held Thom
  classes, with no linear solve inside an op.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Ops call the program through its module attributes (``cohomology.thom_class``)
# so that the tracer, which patches the `gkm` namespaces, sees the calls.
import gkm
from gkm import cli, cohomology, linalg, localization
from gkm.cohomology import basis, equivariant_symplectic_class, slice_dimension, thom_class
from gkm.corpus import corpus, corpus_names
from gkm.geometry import classify_type
from gkm.graph import Edge, GkmGraph, Vertex, find_index_increasing_xi, orient
from gkm.jsonio import dumps
from gkm.localization import euler_class, evaluation_points, sum_at_point
from gkm.polynomial import Vector

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CANDIDATES = 12      # covector draws come from this many search results
DRAWS = 6            # drawn covectors per instance for `report`, besides the document's
PAIRING_DRAWS = 2    # the first of them, used by `pairing`
MATRICES = 5         # drawn matrices per instance for `thom`
ENTRY_BOUND = 2**16  # matrix entries are drawn from [-ENTRY_BOUND, ENTRY_BOUND]
DIRECTIONS = ("plus", "minus")


class CheckFailed(Exception):
    """An op returned a wrong output."""


class SetupFailed(Exception):
    """Generated inputs broke an invariant they must keep."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _xi_text(xi) -> str:
    return ",".join(str(c) for c in xi)


# -- seeded inputs -----------------------------------------------------------


def draw_covectors(seed: int) -> list[tuple[str, Vector, int]]:
    """(instance, covector, draw number) for every orientation.

    Each instance keeps its document covector (draw number 0) and gets
    DRAWS others, numbered in draw order, drawn without replacement from
    the first CANDIDATES index-increasing covectors of the search.  More
    draws per instance make a seed's mix of slow and fast orientations
    closer to every other seed's.
    """
    rng = random.Random(f"covectors:{seed}")
    out = []
    for name in corpus_names():
        inst = corpus(name)
        others = [xi for xi in find_index_increasing_xi(inst.graph, count=CANDIDATES)
                  if xi != inst.xi]
        out.append((name, inst.xi, 0))
        out.extend((name, xi, i) for i, xi in enumerate(rng.sample(others, DRAWS), 1))
    return out


def draw_matrices(seed: int) -> list[tuple[str, tuple[tuple[int, int], tuple[int, int]]]]:
    """(instance, A) with MATRICES invertible integer 2x2 matrices per instance."""
    rng = random.Random(f"matrices:{seed}")
    out = []
    for name in corpus_names():
        for _ in range(MATRICES):
            while True:
                a, b, c, d = (rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(4))
                if a * d - b * c != 0:
                    break
            out.append((name, ((a, b), (c, d))))
    return out


def transform(graph: GkmGraph, xi: Vector, matrix) -> tuple[GkmGraph, Vector]:
    """Apply A to every moment and weight; xi' = sign(det A) adj(A)^T xi.

    Then <A w, xi'> = |det A| <w, xi>, so every edge keeps its orientation.
    """
    (a, b), (c, d) = matrix
    sign = 1 if a * d - b * c > 0 else -1

    def apply(v: Vector) -> Vector:
        return Vector((a * v[0] + b * v[1], c * v[0] + d * v[1]))

    moved = GkmGraph(
        graph.rank, graph.valence,
        [Vertex(v.id, apply(v.mu)) for v in graph.vertices],
        [Edge(e.first, e.second, apply(e.weight)) for e in graph.edges],
    )
    return moved, Vector((sign * (d * xi[0] - c * xi[1]), sign * (a * xi[1] - b * xi[0])))


# -- report ------------------------------------------------------------------


@dataclass(frozen=True)
class ReportCase:
    label: str
    argv: tuple[str, ...]
    expected_hl: bool
    expected_betti: tuple[int, ...]
    expected_type: str
    reference: bytes | None  # exact stdout for the document covector


def report_argv(doc: Path, xi) -> list[str]:
    return ["report", doc.as_posix(), "--xi", _xi_text(xi), "--json"]


def write_documents(workdir: Path) -> dict[str, Path]:
    """Write each corpus instance as a graph document; paths are relative."""
    docs = workdir / "report"
    docs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in corpus_names():
        inst = corpus(name)
        path = docs / f"{name}.json"
        path.write_text(dumps(inst.graph, inst.xi), encoding="utf-8")
        paths[name] = path
    return paths


def setup_report(seed: int, workdir: Path) -> list[ReportCase]:
    paths = write_documents(workdir)
    cases = []
    for name, xi, draw in draw_covectors(seed):
        inst = corpus(name)
        reference = (REFERENCE_DIR / f"{name}.json").read_bytes() if draw == 0 else None
        cases.append(ReportCase(
            f"{name}@{_xi_text(xi)}", tuple(report_argv(paths[name], xi)),
            inst.expected_hl, inst.expected_betti, inst.expected_type, reference,
        ))
    return cases


def run_cli(argv) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process `gkm` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def op_report(case: ReportCase) -> tuple[int, str]:
    return run_cli(case.argv)


def check_report(case: ReportCase, output: tuple[int, str]) -> None:
    code, text = output
    _require(code == 0, f"exit code {code}")
    report = json.loads(text)["report"]
    _require(report["ok"], "report.ok is false")
    _require(report["hard_lefschetz"] == case.expected_hl,
             f"verdict {report['hard_lefschetz']}")
    _require(tuple(report["betti"]) == case.expected_betti, f"betti {report['betti']}")
    _require(report["type"]["label"] == case.expected_type,
             f"type {report['type']['label']}")
    if case.reference is not None:
        _require(text.encode("utf-8") == case.reference,
                 "output differs from the recorded reference bytes")


# -- thom --------------------------------------------------------------------


@dataclass(frozen=True)
class ThomCase:
    label: str
    graph: GkmGraph
    xi: Vector
    dimensions: tuple[int, ...]  # slice dimensions of the untransformed instance


def _profile(graph: GkmGraph, xi: Vector) -> dict:
    og = orient(graph, xi)
    return {
        "valid": graph.validate().ok,
        "index_increasing": og.is_index_increasing(),
        "down_degree": {v: og.down_degree(v) for v in graph.vertex_ids()},
        "betti": og.betti(),
        "type": classify_type(og).label,
        "dimensions": tuple(slice_dimension(graph, d) for d in range(graph.valence + 1)),
    }


def setup_thom(seed: int, workdir: Path) -> list[ThomCase]:
    profiles = {}
    cases = []
    for name, matrix in draw_matrices(seed):
        inst = corpus(name)
        if name not in profiles:
            profiles[name] = _profile(inst.graph, inst.xi)
        graph, xi = transform(inst.graph, inst.xi, matrix)
        moved = _profile(graph, xi)
        if moved != profiles[name]:
            changed = sorted(k for k in moved if moved[k] != profiles[name][k])
            raise SetupFailed(f"{name} moved by {matrix} changed {changed}")
        cases.append(ThomCase(f"{name}@{matrix}", graph, xi, moved["dimensions"]))
    return cases


def op_thom(case: ThomCase):
    og = gkm.graph.orient(case.graph, case.xi)
    classes = {(v, direction): cohomology.thom_class(og, v, direction)
               for v in case.graph.vertex_ids() for direction in DIRECTIONS}
    bases = [cohomology.basis(case.graph, d) for d in range(case.graph.valence + 1)]
    return og, classes, bases


def check_thom(case: ThomCase, output) -> None:
    og, classes, bases = output
    for (v, direction), tau in classes.items():
        _require(tau.value(v) == euler_class(og, v, direction),
                 f"Thom class {v}/{direction} is not normalized at {v}")
        reach = (og.ascending_reachable(v) if direction == "plus"
                 else og.descending_reachable(v))
        _require(tau.support() <= reach, f"Thom class {v}/{direction} leaves its support")
    dims = tuple(len(b) for b in bases)
    _require(dims == case.dimensions, f"slice dimensions {dims}, expected {case.dimensions}")


# -- pairing -----------------------------------------------------------------


@dataclass
class PairingCase:
    label: str
    og: object
    omega: object
    plus: dict
    minus: dict
    low_basis: list            # basis(g, d) for every d below the valence
    hr_index: dict             # k -> (row vertices, column vertices, omega power)
    kronecker: list            # (v, w) pairs of equal down-degree
    references: dict           # ("hr", k, u, v) / ("kron", v, w) -> sum_at_point value


def _hr_index(og, k: int):
    """The row/column vertices and omega power `lefschetz.hr_matrix` uses."""
    n = og.graph.valence
    row_d = k // 2
    col_d = row_d if k <= n else n - row_d
    return og.vertices_of_index(row_d), og.vertices_of_index(col_d), n - row_d - col_d


def setup_pairing(seed: int, workdir: Path) -> list[PairingCase]:
    graphs = {name: corpus(name).graph for name in corpus_names()}
    bases = {name: [el for d in range(g.valence) for el in basis(g, d)]
             for name, g in graphs.items()}
    omegas = {name: equivariant_symplectic_class(g) for name, g in graphs.items()}
    cases = []
    for name, xi, draw in draw_covectors(seed):
        if draw > PAIRING_DRAWS:
            continue
        graph, omega = graphs[name], omegas[name]
        og = orient(graph, xi)
        ids = graph.vertex_ids()
        plus = {v: thom_class(og, v, "plus") for v in ids}
        minus = {v: thom_class(og, v, "minus") for v in ids}
        hr_index = {k: _hr_index(og, k) for k in range(0, 2 * graph.valence + 1, 2)}
        kronecker = [(v, w) for v in ids for w in ids
                     if og.down_degree(v) == og.down_degree(w)]
        point = evaluation_points(og, 1)[0]
        references = {}
        for k, (rows, cols, power) in hr_index.items():
            filler = omega ** power
            for u in rows:
                for v in cols:
                    references["hr", k, u, v] = sum_at_point(og, plus[u] * plus[v] * filler,
                                                             point)
        for v, w in kronecker:
            references["kron", v, w] = sum_at_point(og, plus[v] * minus[w], point)
        cases.append(PairingCase(f"{name}@{_xi_text(xi)}", og, omega, plus, minus,
                                 bases[name], hr_index, kronecker, references))
    for case in cases:  # untimed pass: fills the per-orientation caches
        check_pairing(case, op_pairing(case))
    return cases


def op_pairing(case: PairingCase):
    og, plus = case.og, case.plus
    matrices = {}
    for k, (rows, cols, power) in case.hr_index.items():
        filler = case.omega ** power
        matrices[k] = [[localization.integrate(og, plus[u] * plus[v] * filler)
                        for v in cols] for u in rows]
    kronecker = {(v, w): localization.integrate(og, plus[v] * case.minus[w])
                 for v, w in case.kronecker}
    for element in case.low_basis:
        localization.check_low_degree_vanishing(og, element)
    determinants = {k: linalg.determinant(m) for k, m in matrices.items()}
    return matrices, kronecker, determinants


def check_pairing(case: PairingCase, output) -> None:
    matrices, kronecker, determinants = output
    for k, (rows, cols, _) in case.hr_index.items():
        for i, u in enumerate(rows):
            for j, v in enumerate(cols):
                _require(matrices[k][i][j] == case.references["hr", k, u, v],
                         f"degree-{k} entry ({u}, {v}) disagrees with point evaluation")
        _require(determinants[k] != 0, f"degree-{k} pairing is singular")
    for (v, w), value in kronecker.items():
        _require(value == case.references["kron", v, w],
                 f"Kronecker entry ({v}, {w}) disagrees with point evaluation")
        _require(value == Fraction(int(v == w)), f"Kronecker entry ({v}, {w}) = {value}")


@dataclass(frozen=True)
class Workload:
    setup: Callable
    op: Callable
    check: Callable


WORKLOADS = {
    "report": Workload(setup_report, op_report, check_report),
    "thom": Workload(setup_thom, op_thom, check_thom),
    "pairing": Workload(setup_pairing, op_pairing, check_pairing),
}
