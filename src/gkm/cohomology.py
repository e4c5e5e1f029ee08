"""Graph cohomology: vertex-wise polynomials agreeing modulo edge weights.

An element assigns a polynomial to every vertex so that across each edge
the two values are congruent modulo the edge's weight form.  Degree slices
are finite-dimensional rational vector spaces; bases come from an exact
linear solve whose unknowns are the vertex-polynomial coefficients and
whose equations encode the congruences by eliminating one variable of
each weight form.

Thom classes are constructed by the same solver restricted to a
reachability support, with divisibility rows for edges leaving the support
and normalization rows at the base vertex.  The elimination that yields
the solution also yields its rank; rank equal to the column count
certifies the uniqueness the theory promises, so the solve doubles as a
verification.
"""

from __future__ import annotations

from fractions import Fraction
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
from .graph import Edge, GkmGraph, OrientedGkmGraph
from .localization import class_degree, euler_class
from .polynomial import Polynomial, Vector, congruent_mod_linear, lin_form


def monomials(rank: int, degree: int) -> list[tuple]:
    """Exponent tuples of the given total degree, graded-lex descending."""
    if degree < 0:
        return []
    out: list[tuple] = []

    def fill(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            fill(prefix + [e], remaining - e, slots - 1)

    fill([], degree, rank)
    out.sort(reverse=True)
    return out


def _substitution(weight: Vector) -> tuple[int, Polynomial]:
    """Pivot index and the degree-1 polynomial replacing the pivot variable.

    On the hyperplane <weight, x> = 0 the pivot variable equals this
    polynomial in the remaining variables.
    """
    pivot = next(i for i, c in enumerate(weight) if c != 0)
    rest = Vector(tuple(-c / weight[pivot] if i != pivot else Fraction(0)
                        for i, c in enumerate(weight)))
    return pivot, lin_form(rest) if not rest.is_zero() else Polynomial.zero(len(weight))


def _reduce_monomial(exponents: tuple, pivot: int, replacement: Polynomial,
                     rank: int) -> Polynomial:
    """The monomial with the pivot variable substituted away."""
    base_exps = tuple(0 if i == pivot else e for i, e in enumerate(exponents))
    result = Polynomial(rank, {base_exps: 1})
    k = exponents[pivot]
    if k:
        result = result * replacement**k
    return result


class CohomologyElement:
    """A vertex assignment satisfying every edge congruence."""

    def __init__(self, graph: GkmGraph, values: Mapping[str, Polynomial],
                 check: bool = True):
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
            raise KeyError(f"values for unknown vertices: {sorted(extra)}")
        self.values = complete
        if check:
            bad = _first_violated_edge(graph, complete)
            if bad is not None:
                raise NotAClass(f"edge congruence fails across {bad}")

    def value(self, vid: str) -> Polynomial:
        return self.values[vid]

    def support(self) -> frozenset:
        return frozenset(v for v, p in self.values.items() if not p.is_zero())

    def is_zero(self) -> bool:
        return not self.support()

    @property
    def degree(self) -> int | None:
        """Common homogeneous polynomial degree; None for the zero class."""
        return class_degree(self.values)

    # -- ring operations (pointwise; closure is re-checked, not assumed) ------

    def _lift(self, other) -> "CohomologyElement | None":
        if isinstance(other, CohomologyElement):
            if other.graph is not self.graph:
                raise ValueError("elements live on different graphs")
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            if isinstance(other, Polynomial) and other.rank != self.graph.rank:
                raise RankMismatch("polynomial scalar has wrong rank")
            return CohomologyElement(
                self.graph,
                {v: Polynomial.constant(self.graph.rank, other)
                 if not isinstance(other, Polynomial) else other
                 for v in self.graph.vertex_ids()},
                check=False,
            )
        return None

    def __add__(self, other) -> "CohomologyElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CohomologyElement(
            self.graph, {v: self.values[v] + o.values[v] for v in self.values}
        )

    __radd__ = __add__

    def __neg__(self) -> "CohomologyElement":
        return CohomologyElement(
            self.graph, {v: -p for v, p in self.values.items()}, check=False
        )

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
        return CohomologyElement(
            self.graph, {v: self.values[v] * o.values[v] for v in self.values}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohomologyElement":
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

    def to_text(self) -> dict[str, str]:
        """JSON-ready form: vertex id -> polynomial text."""
        return {v: str(p) for v, p in sorted(self.values.items())}


def _first_violated_edge(graph: GkmGraph, values: Mapping[str, Polynomial]):
    for e in graph.edges:
        ell = lin_form(e.weight)
        if not congruent_mod_linear(values[e.first], values[e.second], ell):
            return e
    return None


def is_class(graph: GkmGraph, values: Mapping[str, Polynomial]) -> bool:
    """True iff every edge congruence holds for a complete assignment."""
    zero = Polynomial.zero(graph.rank)
    complete = {vid: values.get(vid, zero) for vid in graph.vertex_ids()}
    return _first_violated_edge(graph, complete) is None


def unity(graph: GkmGraph) -> CohomologyElement:
    one = Polynomial.constant(graph.rank, 1)
    return CohomologyElement(graph, {v: one for v in graph.vertex_ids()}, check=False)


def zero_class(graph: GkmGraph) -> CohomologyElement:
    return CohomologyElement(graph, {}, check=False)


def equivariant_symplectic_class(graph: GkmGraph) -> CohomologyElement:
    """The degree-1 class v -> <mu(v), x>; a class by moment compatibility."""
    return CohomologyElement(
        graph, {v: lin_form(graph.mu(v)) for v in graph.vertex_ids()}
    )


# -- linear-system construction -------------------------------------------------


class _System:
    """Linear system over per-vertex monomial coefficients of one degree.

    Given an orientation, its store keeps the per-weight reductions.
    """

    def __init__(self, graph: GkmGraph, degree: int, support: Iterable[str],
                 og: OrientedGkmGraph | None = None):
        self.graph = graph
        self.og = og
        self.degree = degree
        self.support = sorted(support)
        self.monomials = monomials(graph.rank, degree)
        self.columns = [(v, m) for v in self.support for m in self.monomials]
        self.index = {col: i for i, col in enumerate(self.columns)}
        self.rows: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []

    def _reductions(self, weight: Vector) -> list[Polynomial]:
        def compute():
            pivot, replacement = _substitution(weight)
            return [
                _reduce_monomial(m, pivot, replacement, self.graph.rank)
                for m in self.monomials
            ]

        if self.og is None:
            return compute()
        return self.og.derived(("reductions", weight, self.degree), compute)

    def _scatter(self, contributions: list[tuple[tuple[str, tuple], Polynomial]]):
        """Turn per-unknown reduced polynomials into coefficient rows."""
        keys: set[tuple] = set()
        for _, poly in contributions:
            keys.update(e for e, _ in poly.terms())
        for key in sorted(keys, reverse=True):
            row = [Fraction(0)] * len(self.columns)
            for (col, poly) in contributions:
                c = poly.coefficient(key)
                if c:
                    row[self.index[col]] += c
            self.rows.append(row)
            self.rhs.append(Fraction(0))

    def add_congruence(self, edge: Edge):
        """f(first) - f(second) must vanish on the weight hyperplane."""
        reductions = self._reductions(edge.weight)
        contributions = []
        for m, red in zip(self.monomials, reductions):
            contributions.append(((edge.first, m), red))
            contributions.append(((edge.second, m), -red))
        self._scatter(contributions)

    def add_divisibility(self, vid: str, weight: Vector):
        """f(vid) must vanish on the weight hyperplane (outside edge)."""
        reductions = self._reductions(weight)
        self._scatter([((vid, m), red) for m, red in zip(self.monomials, reductions)])

    def add_normalization(self, vid: str, target: Polynomial):
        for m in self.monomials:
            row = [Fraction(0)] * len(self.columns)
            row[self.index[(vid, m)]] = Fraction(1)
            self.rows.append(row)
            self.rhs.append(target.coefficient(m))

    def element_from(self, coeffs: list[Fraction]) -> CohomologyElement:
        values = {}
        for v in self.support:
            terms = {}
            for m in self.monomials:
                c = coeffs[self.index[(v, m)]]
                if c:
                    terms[m] = c
            values[v] = Polynomial(self.graph.rank, terms)
        return CohomologyElement(self.graph, values)


def _slice_system(graph: GkmGraph, degree: int) -> _System:
    """The congruence system of the homogeneous degree-d slice."""
    system = _System(graph, degree, graph.vertex_ids())
    for e in graph.edges:
        system.add_congruence(e)
    return system


def basis(graph: GkmGraph, degree: int) -> list[CohomologyElement]:
    """A basis of the homogeneous degree-d slice, by exact nullspace."""
    system = _slice_system(graph, degree)
    vectors = linalg.nullspace(system.rows, ncols=len(system.columns))
    return [system.element_from(v) for v in vectors]


def slice_dimension(graph: GkmGraph, degree: int) -> int:
    """dim of the degree-d slice without materializing basis elements."""
    system = _slice_system(graph, degree)
    if not system.rows:
        return len(system.columns)
    return len(system.columns) - linalg.rank(system.rows)


def thom_class(og: OrientedGkmGraph, vid: str,
               direction: str = "plus") -> CohomologyElement:
    """The unique homogeneous class supported above (below) a vertex.

    ``plus``: degree = down-degree of vid, support inside the ascending
    reachable set, value at vid = product of descending weight forms.
    ``minus`` is the mirror.  NonUnique / Infeasible signal a violated
    hypothesis; both are impossible on validated index-increasing data.
    """
    if direction not in ("plus", "minus"):
        raise ValueError("direction must be 'plus' or 'minus'")
    if not og.is_index_increasing():
        raise NotIndexIncreasing("Thom classes require an index-increasing orientation")
    return og.derived(("thom", vid, direction),
                      lambda: _solve_thom_class(og, vid, direction))


def _solve_thom_class(og: OrientedGkmGraph, vid: str,
                      direction: str) -> CohomologyElement:
    n = og.graph.valence
    if direction == "plus":
        support = og.ascending_reachable(vid)
        degree = og.down_degree(vid)
    else:
        support = og.descending_reachable(vid)
        degree = n - og.down_degree(vid)
    normalization = euler_class(og, vid, "plus" if direction == "plus" else "minus")

    system = _System(og.graph, degree, support, og)
    for e in og.graph.edges:
        inside_first = e.first in support
        inside_second = e.second in support
        if inside_first and inside_second:
            system.add_congruence(e)
        elif inside_first:
            system.add_divisibility(e.first, e.weight)
        elif inside_second:
            system.add_divisibility(e.second, e.weight)
    system.add_normalization(vid, normalization)

    solution, nullity = linalg.solve(system.rows, system.rhs)
    if solution is None:
        raise Infeasible(f"no class with the required support exists for {vid}")
    if nullity:
        raise NonUnique(
            f"Thom class of {vid} is not unique (nullspace dimension {nullity})"
        )
    return system.element_from(solution)


def scalar_multiple_of_weight(f: CohomologyElement, edge: Edge) -> Fraction:
    """The scalar k with f(u) = k * <weight read from u toward w, x>,
    where w is the endpoint at which f vanishes and u the other one.

    A degree-1 class vanishing at one endpoint of an edge is forced to be
    a rational multiple of the edge's weight form at the other endpoint;
    this extracts that multiple.  Vanishing at both endpoints gives 0.
    """
    fa, fb = f.value(edge.first), f.value(edge.second)
    if fa.is_zero() and fb.is_zero():
        return Fraction(0)
    if fb.is_zero():
        holder, vanished = edge.first, edge.second
    elif fa.is_zero():
        holder, vanished = edge.second, edge.first
    else:
        raise PreconditionError(f"class vanishes at neither endpoint of {edge}")
    if f.degree != 1:
        raise PreconditionError("scalar extraction requires a degree-1 class")
    value = f.value(holder)
    quotient = value.divide_by_linear(lin_form(edge.weight_from(holder)))
    return quotient.coefficient((0,) * f.graph.rank)
