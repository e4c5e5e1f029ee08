"""GKM moment graphs: data model, axiom validation, orientation, Morse data.

A graph carries a planar moment position mu(v) per vertex and a weight
vector per edge (read from the edge's first endpoint; the reverse reading
carries the negative).  Validation checks the GKM axioms: constant valence,
pairwise linear independence of the weights at each vertex, moment
compatibility of every edge, and the existence of a congruence matching
between the weights at the two ends of every edge.

A generic covector orients every edge toward increasing moment pairing;
down-degrees, Morse indices, Betti numbers, reachability and ascending
cycles are all read off the orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from typing import Iterable, Iterator, Optional

from .errors import (
    DegreeError,
    GkmError,
    NotGeneric,
    NotIndexIncreasing,
    PreconditionError,
    ScopeError,
)
from .polynomial import Vector, _tuple_of


@dataclass(frozen=True)
class Vertex:
    id: str
    mu: Vector


@dataclass(frozen=True)
class Edge:
    """Undirected edge; ``weight`` is read from ``first`` toward ``second``."""

    first: str
    second: str
    weight: Vector

    @property
    def pair(self) -> frozenset:
        return frozenset((self.first, self.second))

    def other(self, vid: str) -> str:
        if vid == self.first:
            return self.second
        if vid == self.second:
            return self.first
        raise PreconditionError(f"{vid!r} is not an endpoint of {self.first}-{self.second}")

    def weight_from(self, vid: str) -> Vector:
        """Outward weight reading: +weight from first, -weight from second."""
        if vid == self.first:
            return self.weight
        if vid == self.second:
            return -self.weight
        raise PreconditionError(f"{vid!r} is not an endpoint of {self.first}-{self.second}")

    def __str__(self) -> str:
        return f"{self.first}-{self.second}"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


class ValidationReport:
    """Per-axiom check results; failures are entries, never exceptions."""

    def __init__(self, checks: list[Check]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __iter__(self) -> Iterator[Check]:
        return iter(self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"[{status}] {c.name}{suffix}")
        return "\n".join(lines)

    def to_jsonable(self) -> list[dict]:
        return [{"check": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks]


class _ByVertex(dict):
    """A dict keyed by vertex id, where an unknown id is a PreconditionError."""

    def __missing__(self, vid):
        raise PreconditionError(f"unknown vertex {vid!r}")


class _Derived:
    def derived(self, key, compute):
        """The value under ``key``, computed by ``compute()`` on first use and kept
        in ``self._derived``, the dict each new object starts empty."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


def _reach(start: str, step) -> frozenset:
    """``start`` and every vertex reached from it by repeated ``step(vid)``,
    the list of a vertex's next vertices."""
    seen = {start}
    frontier = [start]
    while frontier:
        for w in step(frontier.pop()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


class GkmGraph(_Derived):
    """An n-valent moment graph with an axial function.

    Construction enforces structural sanity (rank 2, a non-negative int
    valence, Vertex and Edge items with str ids and Vector positions and
    weights, unique ids, existing distinct endpoints, no multi-edges,
    nonzero weights) and raises PreconditionError on malformed input; the
    mathematical axioms are checked by :meth:`validate`, which reports
    rather than raises.  What no covector changes is kept behind
    :meth:`derived`, shared by all orientations.
    """

    def __init__(self, rank: int, valence: int, vertices: Iterable[Vertex],
                 edges: Iterable[Edge]):
        # ``rank`` only restates the planar scope; the benchmark's workloads
        # still pass ``graph.rank`` here and read it back.
        if type(rank) is not int or rank != 2:
            raise PreconditionError(f"rank must be 2 (a planar torus action), got {rank!r}")
        if type(valence) is not int or valence < 0:
            raise PreconditionError(f"valence must be a non-negative int, got {valence!r}")
        self.rank = rank
        self.valence = valence
        self.vertices: tuple[Vertex, ...] = _tuple_of("vertices", vertices)
        self.edges: tuple[Edge, ...] = _tuple_of("edges", edges)
        self._by_id: dict[str, Vertex] = _ByVertex()
        for v in self.vertices:
            if not (isinstance(v, Vertex) and isinstance(v.id, str) and v.id
                    and isinstance(v.mu, Vector)):
                raise PreconditionError(
                    f"vertices: {v!r} is not a Vertex with a non-empty str id and a Vector mu")
            if v.id in self._by_id:
                raise PreconditionError(f"duplicate vertex id {v.id!r}")
            self._by_id[v.id] = v
        self._adjacent: dict[str, list[Edge]] = _ByVertex((v.id, []) for v in self.vertices)
        seen_pairs = set()
        for e in self.edges:
            if not (isinstance(e, Edge) and isinstance(e.first, str)
                    and isinstance(e.second, str) and isinstance(e.weight, Vector)):
                raise PreconditionError(
                    f"edges: {e!r} is not an Edge with str endpoints and a Vector weight")
            if e.first not in self._by_id or e.second not in self._by_id:
                raise PreconditionError(f"edge {e} references an unknown vertex")
            if e.first == e.second:
                raise PreconditionError(f"edge {e} is a loop")
            if e.pair in seen_pairs:
                raise PreconditionError(f"multi-edge between {e.first} and {e.second}")
            seen_pairs.add(e.pair)
            if e.weight.is_zero():
                raise PreconditionError(f"edge {e} has zero weight")
            self._adjacent[e.first].append(e)
            self._adjacent[e.second].append(e)
        self._derived: dict = {}

    # -- access -------------------------------------------------------------

    def vertex_ids(self) -> list[str]:
        return [v.id for v in self.vertices]

    def mu(self, vid: str) -> Vector:
        return self._by_id[vid].mu

    def edges_at(self, vid: str) -> list[Edge]:
        return list(self._adjacent[vid])

    def edge_between(self, u: str, v: str) -> Optional[Edge]:
        for e in self._adjacent[u]:
            if e.other(u) == v:
                return e
        if v not in self._by_id:
            raise PreconditionError(f"unknown vertex {v!r}")
        return None

    def adjacent(self, u: str, v: str) -> bool:
        return self.edge_between(u, v) is not None

    def edge_points(self) -> tuple[tuple[int, int], ...]:
        """Each edge's ``weight.primitive_perp()`` in ``edges`` order, stored."""
        return self.derived("edge_points", lambda: tuple(
            e.weight.primitive_perp() for e in self.edges))

    # -- validation ----------------------------------------------------------

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        walk = _reach(self.vertices[0].id,
                      lambda vid: [e.other(vid) for e in self._adjacent[vid]])
        return len(walk) == len(self.vertices)

    def validate(self) -> ValidationReport:
        checks: list[Check] = []

        def check(name: str, ok: bool, detail: str) -> None:
            checks.append(Check(name, ok, "" if ok else detail))

        bad = [v.id for v in self.vertices if len(self._adjacent[v.id]) != self.valence]
        check("valence", not bad,
              f"vertices with degree != {self.valence}: {', '.join(bad)}")

        check("edge-count", 2 * len(self.edges) == self.valence * len(self.vertices),
              f"2|E|={2 * len(self.edges)} but n|V|={self.valence * len(self.vertices)}")

        dep = []
        for v in self.vertices:
            weights = [e.weight_from(v.id) for e in self._adjacent[v.id]]
            for a, b in combinations(weights, 2):
                if a.cross(b) == 0:
                    dep.append(v.id)
                    break
        check("weight-independence", not dep,
              f"linearly dependent weights at: {', '.join(dep)}")

        incompat = []
        for e in self.edges:
            step = self.mu(e.second) - self.mu(e.first)
            if step.cross(e.weight) != 0 or step.dot(e.weight) <= 0:
                incompat.append(str(e))
        check("moment-compatibility", not incompat,
              f"edges violating positive parallelism: {', '.join(incompat)}")

        unmatched = [str(e) for e in self.edges if not self._has_weight_matching(e)]
        check("weight-matching", not unmatched,
              f"edges without a congruence matching: {', '.join(unmatched)}")

        check("connected", self.is_connected(), "graph is disconnected")

        return ValidationReport(checks)

    def _has_weight_matching(self, e: Edge) -> bool:
        """Can the other weights at the two ends be paired congruently mod e?

        Exhaustive search over the (n-1)! bijections.
        """
        left = [f.weight_from(e.first) for f in self._adjacent[e.first] if f is not e]
        right = [f.weight_from(e.second) for f in self._adjacent[e.second] if f is not e]
        if len(left) != len(right):
            return False
        if not left:
            return True
        for perm in permutations(range(len(right))):
            if all((left[i] - right[perm[i]]).cross(e.weight) == 0
                   for i in range(len(left))):
                return True
        return False


# -- orientation --------------------------------------------------------------


class OrientedGkmGraph(_Derived):
    """A graph plus the orientation induced by a generic covector.

    Every edge is directed toward increasing moment pairing; the number of
    edges arriving at a vertex is its down-degree d_v, and the Morse index
    is 2 d_v.

    Construction decides, in one pass over the edges, that the covector is
    generic, each vertex's up and down edges (in ``graph.edges`` order), and
    whether the orientation is index-increasing.  Other data derived from
    the covector is computed once and kept in the store behind
    :meth:`derived`; what depends only on the graph is in ``graph``'s.
    """

    def __init__(self, graph: GkmGraph, xi: Vector):
        self.graph = graph
        self.xi = xi
        self._up: dict[str, list[Edge]] = _ByVertex((v, []) for v in graph.vertex_ids())
        self._down: dict[str, list[Edge]] = _ByVertex((v, []) for v in graph.vertex_ids())
        for e in graph.edges:
            pairing = e.weight.dot(xi)
            if pairing == 0:
                raise NotGeneric(f"xi is orthogonal to the weight of edge {e}")
            tail, head = (e.first, e.second) if pairing > 0 else (e.second, e.first)
            self._up[tail].append(e)
            self._down[head].append(e)
        self._index_increasing = all(
            len(self._down[v]) < len(self._down[e.other(v)])
            for v, ups in self._up.items() for e in ups)
        self._derived: dict = {}

    # -- basic queries --------------------------------------------------------

    def mu_xi(self, vid: str) -> Fraction:
        return self.graph.mu(vid).dot(self.xi)

    def down_degree(self, vid: str) -> int:
        return len(self._down[vid])

    def down_edges(self, vid: str) -> list[Edge]:
        """Edges that descend when read from vid (ascending head is vid)."""
        return list(self._down[vid])

    def up_edges(self, vid: str) -> list[Edge]:
        return list(self._up[vid])

    def up_neighbors(self, vid: str) -> list[str]:
        return [e.other(vid) for e in self._up[vid]]

    def down_neighbors(self, vid: str) -> list[str]:
        return [e.other(vid) for e in self._down[vid]]

    def vertices_of_index(self, d: int) -> list[str]:
        """Vertices with down-degree d, sorted by moment pairing then id."""
        order = self.derived("vertex_order", lambda: sorted(
            self.graph.vertex_ids(), key=lambda v: (self.mu_xi(v), v)))
        return [v for v in order if len(self._down[v]) == d]

    def betti(self) -> tuple[int, ...]:
        counts = [0] * (self.graph.valence + 1)
        for v, downs in self._down.items():
            if len(downs) >= len(counts):
                raise DegreeError(f"{v} has down-degree {len(downs)}, above the valence "
                                  f"{self.graph.valence}")
            counts[len(downs)] += 1
        return tuple(counts)

    def o_vertex(self) -> str:
        lows = self.vertices_of_index(0)
        if len(lows) != 1:
            raise GkmError(f"expected a unique down-degree-0 vertex, found {lows}")
        return lows[0]

    def r_vertex(self) -> str:
        highs = self.vertices_of_index(self.graph.valence)
        if len(highs) != 1:
            raise GkmError(
                f"expected a unique down-degree-{self.graph.valence} vertex, found {highs}"
            )
        return highs[0]

    def is_index_increasing(self) -> bool:
        return self._index_increasing

    # -- reachability and cycles ----------------------------------------------

    def ascending_reachable(self, vid: str) -> frozenset:
        """Vertices reachable from vid along ascending paths, vid included."""
        return _reach(vid, self.up_neighbors)

    def descending_reachable(self, vid: str) -> frozenset:
        return _reach(vid, self.down_neighbors)

    def ascending_cycle(self, p: str) -> tuple[str, ...]:
        """The cycle through an index-two vertex and everything above it.

        Returns the vertices in traversal order; length 3 exactly when p is
        adjacent to the top vertex.  Found and checked once per orientation.
        """
        return self.derived(("ascending_cycle", p), lambda: self._ascending_cycle(p))

    def _ascending_cycle(self, p: str) -> tuple[str, ...]:
        if self.graph.valence != 3:
            raise ScopeError("ascending cycles require a 3-valent graph")
        if not self.is_index_increasing():
            raise NotIndexIncreasing("ascending cycles require an index-increasing orientation")
        if self.down_degree(p) != 1:
            raise PreconditionError(f"{p} has down-degree {self.down_degree(p)}, expected 1")
        r = self.r_vertex()
        reach = self.ascending_reachable(p)
        ups = sorted(self.up_neighbors(p), key=lambda v: (self.mu_xi(v), v))
        if len(ups) != 2:
            raise GkmError(f"{p} has up-neighbors {ups}; an index-two vertex of a "
                           "3-valent graph has exactly two")
        if r in ups:
            (q,) = [v for v in ups if v != r]
            cycle = (p, q, r)
        else:
            q1, q2 = ups
            cycle = (p, q1, r, q2)
        if set(cycle) != reach:
            raise GkmError(
                f"ascending cycle of {p} should exhaust its reachable set: "
                f"{sorted(reach)} vs {cycle}"
            )
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not self.graph.adjacent(a, b):
                raise GkmError(f"cycle edge {a}-{b} missing from the graph")
        triangular = len(cycle) == 3
        if triangular != self.graph.adjacent(p, r):
            raise GkmError("triangular cycle must coincide with adjacency of p and r")
        return cycle


def orient(graph: GkmGraph, xi: Vector | Iterable) -> OrientedGkmGraph:
    """Orient every edge by a generic covector; raises NotGeneric otherwise."""
    v = xi if isinstance(xi, Vector) else Vector(_tuple_of("xi", xi))
    return OrientedGkmGraph(graph, v)


_XI_MAX_SUM = 120  # covector candidates (a, b) have |a| + |b| <= this


def xi_candidates() -> Iterator[Vector]:
    """Deterministic stream of primitive covector candidates."""
    for s in range(1, _XI_MAX_SUM + 1):
        for a in range(0, s + 1):
            b = s - a
            if gcd(a, b) != 1:
                continue
            yield Vector((a, b))
            if a > 0 and b > 0:
                yield Vector((a, -b))


def find_index_increasing_xi(graph: GkmGraph, count: int = 1) -> list[Vector]:
    """First ``count`` candidates that are generic and index-increasing."""
    if type(count) is not int:
        raise PreconditionError(f"count must be an int, got {count!r}")
    if count < 0:
        raise PreconditionError(f"count must be >= 0, got {count}")
    found: list[Vector] = []
    for xi in xi_candidates():
        if len(found) >= count:
            break
        try:
            og = orient(graph, xi)
        except NotGeneric:
            continue
        if og.is_index_increasing():
            found.append(xi)
    return found
