"""Planar geometry of moment images.

Everything here is decided by exact sign predicates on rational
coordinates: orientation determinants, convex hulls of moment positions,
the convex/concave/crossed trichotomy for tetragons, and the classification
of six-dimensional index-increasing instances into the seven moment-image
types (a)-(g).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    Degenerate,
    InfeasibleInstance,
    NotIndexIncreasing,
    ScopeError,
    Unclassifiable,
)
from .graph import OrientedGkmGraph
from .polynomial import Vector


def orientation_sign(p: Vector, q: Vector, r: Vector) -> int:
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear."""
    cross = (q - p).cross(r - p)
    return (cross > 0) - (cross < 0)


def convex_hull(points: Sequence[Vector]) -> list[Vector]:
    """Extreme points in counterclockwise order (monotone chain).

    Points in the relative interior of hull edges are not returned.
    """
    unique = sorted({(p[0], p[1]) for p in points})
    if len(unique) <= 2:
        return [Vector(p) for p in unique]
    pts = [Vector(p) for p in unique]

    def chain(sequence):
        out: list[Vector] = []
        for p in sequence:
            while len(out) >= 2 and orientation_sign(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def classify_tetragon(a: Vector, b: Vector, c: Vector, d: Vector) -> str:
    """Trichotomy for the closed polyline a-b-c-d-a.

    ``convex``: all four turns agree; ``concave``: one vertex inside the
    hull of the others; ``crossed``: two opposite sides intersect.  Any
    collinear triple is outside the trichotomy and raises Degenerate.
    """
    quad = (a, b, c, d)
    if len({(p[0], p[1]) for p in quad}) != 4:
        raise Degenerate("tetragon vertices must be distinct")
    signs = [
        orientation_sign(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4])
        for i in range(4)
    ]
    if any(s == 0 for s in signs):
        raise Degenerate("three consecutive vertices are collinear")
    positives = sum(1 for s in signs if s > 0)
    if positives in (0, 4):
        return "convex"
    if positives in (1, 3):
        return "concave"
    return "crossed"


@dataclass(frozen=True)
class CycleShape:
    vertices: tuple[str, ...]
    kind: str  # "triangular" | "tetragonal"
    tetra_class: Optional[str] = None  # convex | concave | crossed

    def to_jsonable(self) -> dict:
        out = {"vertices": list(self.vertices), "kind": self.kind}
        if self.tetra_class is not None:
            out["class"] = self.tetra_class
        return out


def cycle_shape(og: OrientedGkmGraph, p: str) -> CycleShape:
    """Shape of the ascending cycle through an index-two vertex."""
    cycle = og.ascending_cycle(p)
    if len(cycle) == 3:
        return CycleShape(cycle, "triangular")
    images = [og.graph.mu(v) for v in cycle]
    label = classify_tetragon(*images)
    return CycleShape(cycle, "tetragonal", label)


_SHAPE_NAMES = {3: "triangle", 4: "tetragon", 5: "pentagon", 6: "hexagon",
                7: "heptagon", 8: "octagon"}

_TABLE = {
    ("triangle", 4, True, 0): "a",
    ("tetragon", 4, True, 0): "b",
    ("tetragon", 6, False, 1): "c",
    ("tetragon", 6, True, 2): "d",
    ("pentagon", 6, False, 1): "e",
    ("hexagon", 6, True, 2): "f",
    ("hexagon", 8, False, 3): "g",
}


@dataclass(frozen=True)
class MomentImageType:
    hull_shape: str
    vertex_count: int
    o_adjacent_r: bool
    tetragonal_cycles: int
    label: str

    def to_jsonable(self) -> dict:
        return {
            "hull": self.hull_shape,
            "vertices": self.vertex_count,
            "o_adjacent_r": self.o_adjacent_r,
            "tetragonal_cycles": self.tetragonal_cycles,
            "label": self.label,
        }


def require_six_dim(og: OrientedGkmGraph) -> None:
    """Common scope gate: 3-valent, index-increasing, at most 8 vertices."""
    if og.graph.valence != 3:
        raise ScopeError(f"six-dimensional scope requires valence 3, got {og.graph.valence}")
    if not og.is_index_increasing():
        raise NotIndexIncreasing("orientation is not index-increasing")
    if len(og.graph.vertices) > 8:
        raise InfeasibleInstance(
            f"{len(og.graph.vertices)} vertices; index-increasing six-dimensional "
            "instances have at most 8"
        )


def classify_type(og: OrientedGkmGraph) -> MomentImageType:
    """Match hull shape, vertex count, extremal adjacency and cycle census
    against the seven possible moment-image types."""
    require_six_dim(og)
    g = og.graph
    hull = convex_hull([g.mu(v) for v in g.vertex_ids()])
    shape = _SHAPE_NAMES.get(len(hull), str(len(hull)))
    count = len(g.vertices)
    o_adj_r = g.adjacent(og.o_vertex(), og.r_vertex())
    tetragonal = sum(
        1 for p in og.vertices_of_index(1) if len(og.ascending_cycle(p)) == 4
    )
    key = (shape, count, o_adj_r, tetragonal)
    label = _TABLE.get(key)
    if label is None:
        raise Unclassifiable(f"no classification row matches {key}")
    return MomentImageType(shape, count, o_adj_r, tetragonal, label)
