"""Built-in moment-graph instances.

Each instance is generated from a clean higher-rank model (projected
simplex, permutation orbit, cube, prism) or, for ``tol-d``, from explicit
planar positions with a derived axial function.  The recorded expectations
(moment-image type, Betti numbers, hard Lefschetz verdict) are verified by
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import gcd

from .errors import UnknownInstance
from .graph import Edge, GkmGraph, Vertex
from .polynomial import Vector

# Projections from rank 3 down to rank 2, as row pairs.
_SHEAR = ((1, 0, -1), (0, 1, -2))   # (a, b, c) -> (a - c, b - 2c)
_CORNER = ((1, 0, 1), (0, 1, 1))    # (a, b, c) -> (a + c, b + c)
_PRISM = ((1, 1, 0), (1, 0, 1))     # (a, b, c) -> (a + b, a + c)


def _project(rows, point) -> Vector:
    return Vector(tuple(sum(r * p for r, p in zip(row, point)) for row in rows))


def _graph_from_model(rows, points: dict[str, tuple], edges3: list[tuple[str, str, tuple]],
                      valence: int) -> GkmGraph:
    vertices = [Vertex(vid, _project(rows, mu3)) for vid, mu3 in points.items()]
    edges = [Edge(u, v, _project(rows, w3)) for u, v, w3 in edges3]
    return GkmGraph(rank=2, valence=valence, vertices=vertices, edges=edges)


def _primitive(direction: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in direction:
        g = gcd(g, abs(x))
    return tuple(x // g for x in direction)


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    title: str
    graph: GkmGraph
    xi: Vector
    expected_type: str
    expected_betti: tuple[int, ...]
    expected_hl: bool


def _simplex() -> tuple[dict[str, tuple], list[tuple[str, str, tuple]]]:
    """The 3-simplex model: the origin and the unit points, an edge per pair."""
    points = {"A": (0, 0, 0), "B": (1, 0, 0), "C": (0, 1, 0), "D": (0, 0, 1)}
    edges3 = [(u, v, tuple(b - a for a, b in zip(points[u], points[v])))
              for u, v in combinations(points, 2)]
    return points, edges3


def _cp3_k4() -> CorpusInstance:
    return CorpusInstance(
        name="cp3-k4",
        title="complete graph on a projected 3-simplex (triangle image)",
        graph=_graph_from_model(_SHEAR, *_simplex(), valence=3),
        xi=Vector((1, 3)),
        expected_type="a",
        expected_betti=(1, 1, 1, 1),
        expected_hl=True,
    )


def _cp3_square() -> CorpusInstance:
    return CorpusInstance(
        name="cp3-square",
        title="the same simplex reprojected so all four vertices are extreme",
        graph=_graph_from_model(_CORNER, *_simplex(), valence=3),
        xi=Vector((1, 2)),
        expected_type="b",
        expected_betti=(1, 1, 1, 1),
        expected_hl=True,
    )


def _cp1xcp2() -> CorpusInstance:
    levels = {"0": 0, "1": 1}
    base = {"00": (0, 0), "10": (1, 0), "01": (0, 1)}
    points = {a + w: (av, wv[0], wv[1]) for a, av in levels.items()
              for w, wv in base.items()}
    edges3: list[tuple[str, str, tuple]] = []
    for w in base:  # interval direction
        edges3.append(("0" + w, "1" + w, (1, 0, 0)))
    for a in levels:  # triangle directions at each level
        edges3.append((a + "00", a + "10", (0, 1, 0)))
        edges3.append((a + "00", a + "01", (0, 0, 1)))
        edges3.append((a + "10", a + "01", (0, -1, 1)))
    return CorpusInstance(
        name="cp1xcp2",
        title="projected triangle-prism graph (pentagon image)",
        graph=_graph_from_model(_PRISM, points, edges3, valence=3),
        xi=Vector((1, 2)),
        expected_type="e",
        expected_betti=(1, 2, 2, 1),
        expected_hl=True,
    )


# Derived axial function for the tol-d positions: per edge, the unique
# minimal positive integer multiple of the primitive direction satisfying
# every congruence matching (the solution family is one-dimensional; its
# minimal integer point has multiples <= 6, well under the search bound 16).
_TOL_D_POSITIONS = {
    "o": (0, 0), "p1": (2, 3), "q1": (2, 5),
    "p2": (8, 2), "q2": (8, 6), "r": (0, 8),
}
_TOL_D_MULTIPLES = {
    ("o", "p2"): 2, ("p2", "q2"): 6, ("q2", "r"): 2,
    ("o", "r"): 6, ("o", "p1"): 3, ("p1", "q1"): 6,
    ("q1", "r"): 3, ("p2", "q1"): 5, ("p1", "q2"): 5,
}


def _tol_d() -> CorpusInstance:
    vertices = [Vertex(vid, Vector(mu)) for vid, mu in _TOL_D_POSITIONS.items()]
    edges = []
    for (u, v), m in _TOL_D_MULTIPLES.items():
        direction = _primitive(tuple(
            b - a for a, b in zip(_TOL_D_POSITIONS[u], _TOL_D_POSITIONS[v])))
        edges.append(Edge(u, v, Vector(tuple(m * d for d in direction))))
    return CorpusInstance(
        name="tol-d",
        title="six vertices on a tetragon with an interior ascending pair",
        graph=GkmGraph(rank=2, valence=3, vertices=vertices, edges=edges),
        xi=Vector((0, 1)),
        expected_type="d",
        expected_betti=(1, 2, 2, 1),
        expected_hl=True,
    )


def _flag_su3() -> CorpusInstance:
    orbit = sorted(set(permutations((2, 1, 0))), reverse=True)
    points = {"".join(map(str, pt)): pt for pt in orbit}
    edges3: list[tuple[str, str, tuple]] = []
    seen = set()
    for uid, u in points.items():
        for i, j in combinations(range(3), 2):
            v = list(u)
            v[i], v[j] = v[j], v[i]
            vid = "".join(map(str, v))
            if frozenset((uid, vid)) in seen:
                continue
            seen.add(frozenset((uid, vid)))
            diff = tuple(b - a for a, b in zip(u, v))
            edges3.append((uid, vid, _primitive(diff)))
    return CorpusInstance(
        name="flag-su3",
        title="permutation orbit of (2,1,0) with transposition edges (hexagon image)",
        graph=_graph_from_model(_SHEAR, points, edges3, valence=3),
        xi=Vector((0, 1)),
        expected_type="f",
        expected_betti=(1, 2, 2, 1),
        expected_hl=True,
    )


def _cube_g() -> CorpusInstance:
    points = {f"{a}{b}{c}": (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    edges3: list[tuple[str, str, tuple]] = []
    for uid, u in points.items():
        for i in range(3):
            if u[i] == 0:
                v = list(u)
                v[i] = 1
                vid = "".join(map(str, v))
                w3 = tuple(int(k == i) for k in range(3))
                edges3.append((uid, vid, w3))
    return CorpusInstance(
        name="cube-g",
        title="projected 3-cube graph (hexagon image, eight vertices)",
        graph=_graph_from_model(_SHEAR, points, edges3, valence=3),
        xi=Vector((1, 1)),
        expected_type="g",
        expected_betti=(1, 3, 3, 1),
        expected_hl=True,
    )


_BUILDERS = {
    "cp3-k4": _cp3_k4,
    "cp3-square": _cp3_square,
    "tol-d": _tol_d,
    "cp1xcp2": _cp1xcp2,
    "flag-su3": _flag_su3,
    "cube-g": _cube_g,
}


def corpus_names() -> list[str]:
    return list(_BUILDERS)


def corpus(name: str) -> CorpusInstance:
    """The named instance, materialized."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownInstance(
            f"unknown corpus instance {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    return builder()
