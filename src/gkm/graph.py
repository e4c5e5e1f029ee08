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
    Mismatch,
    NonUnique,
    NotGeneric,
    NotIndexIncreasing,
    PreconditionError,
    ScopeError,
)
from .polynomial import Vector


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


class GkmGraph(_Derived):
    """An n-valent moment graph with an axial function.

    Construction enforces structural sanity (rank 2, unique ids, existing
    distinct endpoints, no multi-edges, nonzero weights) and raises
    ValueError on malformed input; the mathematical axioms are
    checked by :meth:`validate`, which reports rather than raises.  What no
    covector changes is kept behind :meth:`derived`, shared by all orientations.
    """

    def __init__(self, rank: int, valence: int, vertices: Iterable[Vertex],
                 edges: Iterable[Edge]):
        # ``rank`` only restates the planar scope; the benchmark's workloads
        # still pass ``graph.rank`` here and read it back.
        if rank != 2:
            raise ValueError(f"rank must be 2 (a planar torus action), got {rank!r}")
        if valence < 0:
            raise ValueError("valence must be >= 0")
        self.rank = rank
        self.valence = valence
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._by_id: dict[str, Vertex] = _ByVertex()
        for v in self.vertices:
            if v.id in self._by_id:
                raise ValueError(f"duplicate vertex id {v.id!r}")
            self._by_id[v.id] = v
        self._adjacent: dict[str, list[Edge]] = _ByVertex((v.id, []) for v in self.vertices)
        seen_pairs = set()
        for e in self.edges:
            if e.first not in self._by_id or e.second not in self._by_id:
                raise ValueError(f"edge {e} references an unknown vertex")
            if e.first == e.second:
                raise ValueError(f"edge {e} is a loop")
            if e.pair in seen_pairs:
                raise ValueError(f"multi-edge between {e.first} and {e.second}")
            seen_pairs.add(e.pair)
            if e.weight.is_zero():
                raise ValueError(f"edge {e} has zero weight")
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

    def degree(self, vid: str) -> int:
        return len(self._adjacent[vid])

    def edge_points(self) -> tuple[tuple[int, int], ...]:
        """Each edge's ``weight.primitive_perp()`` in ``edges`` order, stored."""
        return self.derived("edge_points", lambda: tuple(
            e.weight.primitive_perp() for e in self.edges))

    # -- validation ----------------------------------------------------------

    def is_connected(self) -> bool:
        if len(self.vertices) <= 1:
            return True
        seen = {self.vertices[0].id}
        frontier = [self.vertices[0].id]
        while frontier:
            vid = frontier.pop()
            for e in self._adjacent[vid]:
                w = e.other(vid)
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)

    def validate(self) -> ValidationReport:
        checks: list[Check] = []

        bad = [v.id for v in self.vertices if self.degree(v.id) != self.valence]
        checks.append(Check(
            "valence",
            not bad,
            "" if not bad else f"vertices with degree != {self.valence}: {', '.join(bad)}",
        ))

        ok = 2 * len(self.edges) == self.valence * len(self.vertices)
        checks.append(Check(
            "edge-count",
            ok,
            "" if ok else f"2|E|={2 * len(self.edges)} but n|V|={self.valence * len(self.vertices)}",
        ))

        dep = []
        for v in self.vertices:
            weights = [e.weight_from(v.id) for e in self._adjacent[v.id]]
            for a, b in combinations(weights, 2):
                if a.cross(b) == 0:
                    dep.append(v.id)
                    break
        checks.append(Check(
            "weight-independence",
            not dep,
            "" if not dep else f"linearly dependent weights at: {', '.join(dep)}",
        ))

        incompat = []
        for e in self.edges:
            step = self.mu(e.second) - self.mu(e.first)
            if step.cross(e.weight) != 0 or step.dot(e.weight) <= 0:
                incompat.append(str(e))
        checks.append(Check(
            "moment-compatibility",
            not incompat,
            "" if not incompat else f"edges violating positive parallelism: {', '.join(incompat)}",
        ))

        unmatched = [str(e) for e in self.edges if not self._has_weight_matching(e)]
        checks.append(Check(
            "weight-matching",
            not unmatched,
            "" if not unmatched else f"edges without a congruence matching: {', '.join(unmatched)}",
        ))

        connected = self.is_connected()
        checks.append(Check("connected", connected,
                            "" if connected else "graph is disconnected"))

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

    Whether the orientation is index-increasing is decided on construction.
    Data derived from the covector is computed once and kept in the store
    behind :meth:`derived`; what depends only on the graph is in ``graph``'s.
    """

    def __init__(self, graph: GkmGraph, xi: Vector):
        self.graph = graph
        self.xi = xi
        self._head: dict[frozenset, str] = {}
        for e in graph.edges:
            pairing = e.weight.dot(xi)
            if pairing == 0:
                raise NotGeneric(f"xi is orthogonal to the weight of edge {e}")
            self._head[e.pair] = e.second if pairing > 0 else e.first
        self._down: dict[str, int] = _ByVertex.fromkeys(graph.vertex_ids(), 0)
        for e in graph.edges:
            self._down[self._head[e.pair]] += 1
        self._index_increasing = all(
            self._down[self.tail(e)] < self._down[self.head(e)] for e in graph.edges)
        self._derived: dict = {}

    # -- basic queries --------------------------------------------------------

    def mu_xi(self, vid: str) -> Fraction:
        return self.graph.mu(vid).dot(self.xi)

    def head(self, e: Edge) -> str:
        """Terminal vertex of the ascending orientation of e."""
        return self._head[e.pair]

    def tail(self, e: Edge) -> str:
        return e.other(self._head[e.pair])

    def down_degree(self, vid: str) -> int:
        return self._down[vid]

    def down_edges(self, vid: str) -> list[Edge]:
        """Edges that descend when read from vid (ascending head is vid)."""
        return [e for e in self.graph.edges_at(vid) if self.head(e) == vid]

    def up_edges(self, vid: str) -> list[Edge]:
        return [e for e in self.graph.edges_at(vid) if self.tail(e) == vid]

    def up_neighbors(self, vid: str) -> list[str]:
        return [self.head(e) for e in self.up_edges(vid)]

    def down_neighbors(self, vid: str) -> list[str]:
        return [self.tail(e) for e in self.down_edges(vid)]

    def vertices_of_index(self, d: int) -> list[str]:
        """Vertices with down-degree d, sorted by moment pairing then id."""
        order = self.derived("vertex_order", lambda: sorted(
            self.graph.vertex_ids(), key=lambda v: (self.mu_xi(v), v)))
        return [v for v in order if self._down[v] == d]

    def betti(self) -> tuple[int, ...]:
        counts = [0] * (self.graph.valence + 1)
        for v in self.graph.vertex_ids():
            counts[self._down[v]] += 1
        return tuple(counts)

    def o_vertex(self) -> str:
        lows = self.vertices_of_index(0)
        if len(lows) != 1:
            raise NonUnique(f"expected a unique down-degree-0 vertex, found {lows}")
        return lows[0]

    def r_vertex(self) -> str:
        highs = self.vertices_of_index(self.graph.valence)
        if len(highs) != 1:
            raise NonUnique(
                f"expected a unique down-degree-{self.graph.valence} vertex, found {highs}"
            )
        return highs[0]

    def is_index_increasing(self) -> bool:
        return self._index_increasing

    # -- reachability and cycles ----------------------------------------------

    def _reachable(self, start: str, forward: bool) -> frozenset:
        seen = {start}
        frontier = [start]
        while frontier:
            vid = frontier.pop()
            nexts = self.up_neighbors(vid) if forward else self.down_neighbors(vid)
            for w in nexts:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return frozenset(seen)

    def ascending_reachable(self, vid: str) -> frozenset:
        """Vertices reachable from vid along ascending paths, vid included."""
        return self._reachable(vid, forward=True)

    def descending_reachable(self, vid: str) -> frozenset:
        return self._reachable(vid, forward=False)

    def ascending_cycle(self, p: str) -> tuple[str, ...]:
        """The cycle through an index-two vertex and everything above it.

        Returns the vertices in traversal order; length 3 exactly when p is
        adjacent to the top vertex.
        """
        if self.graph.valence != 3:
            raise ScopeError("ascending cycles require a 3-valent graph")
        if not self.is_index_increasing():
            raise NotIndexIncreasing("ascending cycles require an index-increasing orientation")
        if self._down[p] != 1:
            raise PreconditionError(f"{p} has down-degree {self._down[p]}, expected 1")
        r = self.r_vertex()
        reach = self.ascending_reachable(p)
        ups = sorted(self.up_neighbors(p), key=lambda v: (self.mu_xi(v), v))
        if len(ups) != 2:
            raise Mismatch(f"{p} has up-neighbors {ups}; an index-two vertex of a "
                           "3-valent graph has exactly two")
        if r in ups:
            (q,) = [v for v in ups if v != r]
            cycle = (p, q, r)
        else:
            q1, q2 = ups
            cycle = (p, q1, r, q2)
        if set(cycle) != reach:
            raise Mismatch(
                f"ascending cycle of {p} should exhaust its reachable set: "
                f"{sorted(reach)} vs {cycle}"
            )
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not self.graph.adjacent(a, b):
                raise Mismatch(f"cycle edge {a}-{b} missing from the graph")
        triangular = len(cycle) == 3
        if triangular != self.graph.adjacent(p, r):
            raise Mismatch("triangular cycle must coincide with adjacency of p and r")
        return cycle


def orient(graph: GkmGraph, xi: Vector | Iterable) -> OrientedGkmGraph:
    """Orient every edge by a generic covector; raises NotGeneric otherwise."""
    v = xi if isinstance(xi, Vector) else Vector(xi)
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
