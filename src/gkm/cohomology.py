"""Graph cohomology: vertex-wise polynomials agreeing modulo edge weights.

An element assigns a polynomial to every vertex so that across each edge
the two values are congruent modulo the edge's weight form.  Degree slices
are finite-dimensional rational vector spaces; bases come from an exact
linear solve whose unknowns are the vertex-polynomial coefficients.  All
of it is rank 2, the paper's setting (other ranks get a ScopeError): there
<w, x> divides a polynomial exactly when each homogeneous part vanishes at
w's primitive perpendicular, the integer point ``GkmGraph.edge_points``
keeps per edge.  So a congruence is tested by evaluating both values there,
degree by degree, and in a linear system it is one integer row, the
monomials of the system's degree evaluated at that point.

Classes are checked once, where values enter: the constructor, solver
output and ``equivariant_symplectic_class``, built once per graph in its
store (as the slice dimensions are).  Pointwise sums and products of
classes are classes, as f(u)g(u) - f(v)g(v) = f(u)(g(u) - g(v)) +
g(v)(f(u) - f(v)), so ring operations do not re-check; tests prove it.

Every system has one row rule: over a support, one integer row per edge
that meets it, the monomials at the edge's point with + at its first end
and - at its second, and nothing at an end outside the support.  A degree
slice is the kernel of these rows over every vertex.  A Thom class takes
them over a reachability support, adds normalization rows at the base
vertex and a right-hand side, and ``linalg.solve`` reads it off the
kernel of (A | b).  Every system is built in integers, and its solution
comes back from ``linalg`` as integer numerators over one positive
denominator, which is how ``Polynomial`` stores coefficients; so no
rational number is formed between the elimination and the class.  The
elimination that yields the solution also yields its rank; rank equal to
the column count certifies the uniqueness the theory promises, so the
solve doubles as a verification.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from types import MappingProxyType
from typing import Iterable, Mapping

from . import linalg
from .errors import (
    Infeasible,
    NonUnique,
    NotAClass,
    NotIndexIncreasing,
    PreconditionError,
    RankMismatch,
)
from .graph import GkmGraph, OrientedGkmGraph
from .localization import class_degree, euler_class
# congruent_mod_linear is unused here; perfbench's tracer self-test expects it.
from .polynomial import (  # noqa: F401
    Polynomial, _make, congruent_mod_linear, lin_form)


def monomials(degree: int) -> list[tuple[int, int]]:
    """Rank-2 exponent pairs of the given total degree, graded-lex descending."""
    return [(degree - i, i) for i in range(degree + 1)]


class CohomologyElement:
    """A vertex assignment satisfying every edge congruence, checked on
    construction; ring operations build their results by ``_element``.
    ``values`` is a read-only view, so a stored class cannot be edited."""

    def __init__(self, graph: GkmGraph, values: Mapping[str, Polynomial]):
        self.graph = graph
        zero = Polynomial.zero(graph.rank)
        complete: dict[str, Polynomial] = {}
        for vid in graph.vertex_ids():
            poly = values.get(vid, zero)
            if poly.rank != graph.rank:
                raise RankMismatch(f"value at {vid} has rank {poly.rank}")
            complete[vid] = poly
        extra = set(values) - set(complete)
        if extra:
            raise PreconditionError(f"values for unknown vertices: {sorted(extra)}")
        self.values = MappingProxyType(complete)
        bad = _first_violation(graph, self.values)
        if bad is not None:
            raise NotAClass(bad)

    def value(self, vid: str) -> Polynomial:
        return self.values[vid]

    def support(self) -> frozenset:
        return frozenset(v for v, p in self.values.items() if not p.is_zero())

    @property
    def degree(self) -> int | None:
        """Common homogeneous polynomial degree; None for the zero class."""
        return class_degree(self.values)

    # -- ring operations (pointwise; closure is tested, not re-checked) -------

    def _lift(self, other) -> "CohomologyElement | None":
        if isinstance(other, CohomologyElement):
            if other.graph is not self.graph:
                raise PreconditionError("elements live on different graphs")
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            if isinstance(other, Polynomial) and other.rank != self.graph.rank:
                raise RankMismatch("polynomial scalar has wrong rank")
            if not isinstance(other, Polynomial):
                other = Polynomial.constant(self.graph.rank, other)
            return _element(self.graph, {v: other for v in self.graph.vertex_ids()})
        return None

    def __add__(self, other) -> "CohomologyElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _element(self.graph, {v: self.values[v] + o.values[v] for v in self.values})

    __radd__ = __add__

    def __neg__(self) -> "CohomologyElement":
        return _element(self.graph, {v: -p for v, p in self.values.items()})

    def __sub__(self, other) -> "CohomologyElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CohomologyElement":
        return -(self - other)

    def __mul__(self, other) -> "CohomologyElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _element(self.graph, {v: self.values[v] * o.values[v] for v in self.values})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohomologyElement":
        if type(n) is not int or n < 0:
            raise PreconditionError(f"exponent must be an int >= 0, got {n!r}")
        result = unity(self.graph)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyElement)
            and self.graph is other.graph
            and self.values == other.values
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in sorted(self.values.items()))
        return f"CohomologyElement({inner})"


def _element(graph: GkmGraph, values: dict[str, Polynomial]) -> CohomologyElement:
    """A class from complete values the ring itself produced: no check."""
    element = object.__new__(CohomologyElement)
    element.graph = graph
    element.values = MappingProxyType(values)
    return element


def _first_violation(graph: GkmGraph, values: Mapping[str, Polynomial]):
    """The first failing edge congruence and its witness, as text, or None."""
    for e, point in zip(graph.edges, graph.edge_points()):
        f, h = values[e.first], values[e.second]
        fs, fd = f.graded_numerators(point)
        hs, hd = h.graded_numerators(point)
        if fs.keys() != hs.keys() or any(s * hd != hs[d] * fd for d, s in fs.items()):
            sums, den = (f - h).graded_numerators(point)
            d = min(sums)
            return (f"edge congruence fails across {e}: the degree-{d} part of "
                    f"f({e.first}) - f({e.second}) is {Fraction(sums[d], den)} "
                    f"at {point}, not 0")
    return None


def unity(graph: GkmGraph) -> CohomologyElement:
    one = Polynomial.constant(graph.rank, 1)
    return _element(graph, {v: one for v in graph.vertex_ids()})


def equivariant_symplectic_class(graph: GkmGraph) -> CohomologyElement:
    """The degree-1 class v -> <mu(v), x>, stored per graph; a class by moment compatibility."""
    return graph.derived("omega", lambda: CohomologyElement(
        graph, {v: lin_form(graph.mu(v)) for v in graph.vertex_ids()}))


# -- linear-system construction -------------------------------------------------


class _System:
    """The congruence rows over per-vertex monomial coefficients of one
    degree, for assignments that vanish outside a support.

    A binary form g of degree d is divisible by <w, x> exactly when it
    vanishes at w's primitive perpendicular, so each edge that meets the
    support is one integer row: the degree-d monomials evaluated at the
    edge's point, with + at its first endpoint and - at its second.  An
    endpoint outside the support contributes nothing, so an edge leaving
    the support asks the inside value to be divisible by its weight.
    """

    def __init__(self, graph: GkmGraph, degree: int, support: Iterable[str]):
        self.graph = graph
        self.support = sorted(support)
        self.monomials = monomials(degree)
        n = len(self.monomials)
        self.ncols = n * len(self.support)
        offset = {v: k * n for k, v in enumerate(self.support)}
        self.rows: list[list[int]] = []
        for e, point in zip(graph.edges, graph.edge_points()):
            ends = [(offset[v], sign) for v, sign in ((e.first, 1), (e.second, -1))
                    if v in offset]
            if ends:
                values = [prod(map(pow, point, m)) for m in self.monomials]
                row = [0] * self.ncols
                for k, sign in ends:
                    row[k:k + n] = [sign * x for x in values]
                self.rows.append(row)

    def element_from(self, y: list[int], d: int) -> CohomologyElement:
        """The class with coefficients y / d (int numerators, d > 0),
        checked on construction."""
        rank, monomials = self.graph.rank, self.monomials
        n = len(monomials)
        values = {v: _make(rank, dict(zip(monomials, y[k * n:(k + 1) * n])), d)
                  for k, v in enumerate(self.support)}
        return CohomologyElement(self.graph, values)


def basis(graph: GkmGraph, degree: int) -> list[CohomologyElement]:
    """A basis of the homogeneous degree-d slice, by exact nullspace."""
    system = _System(graph, degree, graph.vertex_ids())
    vectors = linalg.nullspace(system.rows, ncols=system.ncols)
    return [system.element_from(y, d) for y, d in vectors]


def slice_dimension(graph: GkmGraph, degree: int) -> int:
    """dim of the degree-d slice without basis elements, stored per graph."""
    def compute():
        system = _System(graph, degree, graph.vertex_ids())
        return system.ncols - linalg.rank(system.rows)

    return graph.derived(("slice_dimension", degree), compute)


def thom_class(og: OrientedGkmGraph, vid: str,
               direction: str = "plus") -> CohomologyElement:
    """The unique homogeneous class supported above (below) a vertex.

    ``plus``: degree = down-degree of vid, support inside the ascending
    reachable set, value at vid = product of descending weight forms.
    ``minus`` is the mirror.  NonUnique / Infeasible signal a violated
    hypothesis; both are impossible on validated index-increasing data.
    """
    if direction not in ("plus", "minus"):
        raise PreconditionError(f"direction must be 'plus' or 'minus', got {direction!r}")
    if not og.is_index_increasing():
        raise NotIndexIncreasing("Thom classes require an index-increasing orientation")
    return og.derived(("thom", vid, direction),
                      lambda: _solve_thom_class(og, vid, direction))


def _thom_system(og: OrientedGkmGraph, vid: str,
                 direction: str) -> tuple[_System, list[int]]:
    """The linear system whose unique solution is the Thom class of vid:
    the congruence rows over its support, then one row per monomial that
    fixes the value at vid (the coefficient's denominator in the matrix,
    its numerator on the right); the right-hand side is 0 elsewhere."""
    n = og.graph.valence
    if direction == "plus":
        support = og.ascending_reachable(vid)
        degree = og.down_degree(vid)
    else:
        support = og.descending_reachable(vid)
        degree = n - og.down_degree(vid)
    normalization = euler_class(og, vid, direction)

    system = _System(og.graph, degree, support)
    rhs = [0] * len(system.rows)
    start = system.support.index(vid) * len(system.monomials)
    for j, m in enumerate(system.monomials):
        c = normalization.coefficient(m)
        row = [0] * system.ncols
        row[start + j] = c.denominator
        system.rows.append(row)
        rhs.append(c.numerator)
    return system, rhs


def _solve_thom_class(og: OrientedGkmGraph, vid: str,
                      direction: str) -> CohomologyElement:
    system, rhs = _thom_system(og, vid, direction)
    solution, nullity = linalg.solve(system.rows, rhs)
    if solution is None:
        raise Infeasible(f"no class with the required support exists for {vid}")
    if nullity:
        raise NonUnique(
            f"Thom class of {vid} is not unique (nullspace dimension {nullity})"
        )
    return system.element_from(*solution)
