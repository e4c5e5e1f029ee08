"""Graph cohomology: vertex-wise polynomials agreeing modulo edge weights.

An element assigns a polynomial to every vertex so that across each edge
the two values are congruent modulo the edge's weight form.  Degree slices
are finite-dimensional rational vector spaces; bases come from an exact
linear solve whose unknowns are the vertex-polynomial coefficients.  All
of it is rank 2, the paper's setting, where every weight is a plane
vector: there <w, x> divides a binary form exactly when it vanishes at
w's primitive perpendicular, the integer point ``GkmGraph.edge_points``
keeps per edge.  A degree-d form's value there is the dot product of its
numerators with ``power_row(point, d)``.  So a congruence is tested by
evaluating both values there, and in a linear system it is one integer
row, the power row of the system's degree.  Thom systems read these rows
from one table per degree, kept on the orientation; a slice system
computes its own.

A class has one degree, fixed when it is made.  This module owns class
values (``_values_of``, ``class_degree``) and ``euler_class``, which
``localization`` imports from here.  Classes are checked
once, where values enter: the constructor, ``linalg`` (which checks each
solver answer against its rows, every edge congruence not 0 = 0) and
``equivariant_symplectic_class``, whose checked values are kept once per
graph in its store (as the slice dimensions are).  Pointwise sums and
products of classes are classes, as
f(u)g(u) - f(v)g(v) = f(u)(g(u) - g(v)) + g(v)(f(u) - f(v)), so ring
operations do not re-check; tests prove it.  A sum keeps the degree or is
a DegreeError, and a product adds the degrees.  A class records the
vertices where it is nonzero, in vertex order, when it is made; a product
starts every vertex at the shared zero and multiplies only over that
support, and ``f ** n`` makes n - 1 products.

Every system has one row rule: over a support, one integer row per edge
that meets it, the power row of the edge's point with + at its first end
and - at its second, and nothing at an end outside the support.  A degree
slice is the kernel of these rows over every vertex.  A Thom class takes
them over a reachability support, moves the base vertex's known value,
the Euler factor, to the right-hand side, and ``linalg.solve`` reads the
other values off the echelon form of (A | b) by back-substitution.  Every
system is built in integers and eliminated on primitive rows, each
divided by the gcd of its entries, and its solution comes back from
``linalg`` as integer numerators over one positive denominator, in lowest
terms, which is how ``Polynomial`` stores coefficients; so no rational
number is formed between the elimination and the class.  The elimination that yields the solution also yields its
rank; rank equal to the column count certifies the uniqueness the theory
promises, so the solve doubles as a verification.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import (
    DegreeError,
    GkmError,
    Infeasible,
    NotAClass,
    NotIndexIncreasing,
    PreconditionError,
)
from .graph import GkmGraph, OrientedGkmGraph
# congruent_mod_linear is unused here; perfbench's tracer self-test expects it.
from .polynomial import (  # noqa: F401
    Polynomial, _make, congruent_mod_linear, form_product, lin_form, power_row)

_VARIANTS = ("full", "plus", "minus")


class CohomologyElement:
    """Polynomials of one degree at the vertices, satisfying every edge
    congruence, checked on construction; ring operations and solvers build
    theirs by ``_element``.  ``values`` is read-only, so a stored class
    cannot change; its support and ``degree`` (None if zero) are set when made."""

    def __init__(self, graph: GkmGraph, values: Mapping[str, Polynomial]):
        self.graph = graph
        values, self._support, self.degree = _values_of(graph, values)
        self.values = MappingProxyType(dict.fromkeys(graph.vertex_ids(), Polynomial.zero())
                                       | {v: values[v] for v in self._support})
        bad = _first_violation(graph, self.values)
        if bad is not None:
            raise NotAClass(bad)

    def value(self, vid: str) -> Polynomial:
        return self.values[vid]

    def support(self) -> frozenset:
        return frozenset(self._support)

    # -- ring operations (pointwise; closure is tested, not re-checked) -------

    def _lift(self, other) -> "CohomologyElement | None":
        if isinstance(other, CohomologyElement):
            if other.graph is not self.graph:
                raise PreconditionError("elements live on different graphs")
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            if not isinstance(other, Polynomial):
                other = Polynomial.constant(other)
            return _element(self.graph, {v: other for v in self.graph.vertex_ids()},
                            other.homogeneous_degree)
        return None

    def __add__(self, other) -> "CohomologyElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        degree = self.degree if o.degree is None else o.degree
        if self.degree not in (None, degree):
            raise DegreeError(f"cannot add classes of degrees {self.degree} and {o.degree}: "
                              "the sum would have mixed degrees")
        return _element(self.graph, {v: self.values[v] + o.values[v] for v in self.values},
                        degree)

    __radd__ = __add__

    def __neg__(self) -> "CohomologyElement":
        return _element(self.graph, {v: -p for v, p in self.values.items()}, self.degree)

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
        degree = None if None in (self.degree, o.degree) else self.degree + o.degree
        values = dict.fromkeys(self.values, Polynomial.zero())
        support = []  # a product of nonzero forms is nonzero
        for v in self._support:
            if (q := o.values[v]).numerators:
                values[v] = self.values[v] * q
                support.append(v)
        return _element(self.graph, values, degree, tuple(support))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohomologyElement":
        if type(n) is not int or n < 0:
            raise PreconditionError(f"exponent must be an int >= 0, got {n!r}")
        if not n:
            return unity(self.graph)
        result = self
        for _ in range(n - 1):
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


def _element(graph: GkmGraph, values: Mapping[str, Polynomial], degree: int | None,
             support: tuple[str, ...] | None = None) -> CohomologyElement:
    """A class of ``degree`` from complete values the ring or a checked
    solve produced: no check; all-zero values have no degree.  A dict is
    wrapped read-only; a read-only view is shared as it is.  The support,
    nonzero vertices in vertex order, is read off the values if not given."""
    element = object.__new__(CohomologyElement)
    element.graph = graph
    element.values = values if type(values) is MappingProxyType else MappingProxyType(values)
    element._support = support or tuple([v for v, p in values.items() if p.numerators])
    element.degree = degree if element._support else None
    return element


def _first_violation(graph: GkmGraph, values: Mapping[str, Polynomial]):
    """The first failing edge congruence and its witness, as text, or None,
    for complete values of one degree."""
    for e, point in zip(graph.edges, graph.edge_points()):
        f, h = values[e.first], values[e.second]
        d = len(f.numerators or h.numerators) - 1
        if d < 0:
            continue
        powers = power_row(point, d)
        fv, hv = (sum(map(mul, p.numerators, powers)) for p in (f, h))
        if fv * h.denominator != hv * f.denominator:
            value = Fraction(fv, f.denominator) - Fraction(hv, h.denominator)
            return (f"edge congruence fails across {e}: the degree-{d} part of "
                    f"f({e.first}) - f({e.second}) is {value} at {point}, not 0")
    return None


def _values_of(graph: GkmGraph, f) -> tuple[Mapping[str, Polynomial], tuple[str, ...],
                                             int | None]:
    """The values, the support (the vertices of the nonzero values, in
    vertex order) and the degree of a class of ``graph``, or of the mapping
    ``f`` once it is checked to map known vertex ids to Polynomials of one
    degree; a class of another graph, or anything else, is a
    PreconditionError."""
    if isinstance(f, CohomologyElement):
        if f.graph is not graph:
            raise PreconditionError("the class lives on another graph")
        return f.values, f._support, f.degree
    if not isinstance(f, Mapping):
        raise PreconditionError("expected a class or a mapping of vertex ids "
                                f"to polynomials, got {type(f).__name__}")
    extra = set(f).difference(graph.vertex_ids())
    if extra:
        raise PreconditionError(f"values for unknown vertices: {sorted(extra)}")
    for vid, p in f.items():
        if not isinstance(p, Polynomial):
            raise PreconditionError(
                f"the value at {vid} has type {type(p).__name__}, not Polynomial")
    degree = class_degree(f)
    return f, tuple([v for v in graph.vertex_ids() if v in f and f[v].numerators]), degree


def class_degree(values: Mapping[str, Polynomial]) -> int | None:
    """Common degree of the nonzero values; None if all zero."""
    degrees = sorted({p.homogeneous_degree for p in values.values()} - {None})
    if len(degrees) > 1:
        raise DegreeError(f"class values have mixed degrees {degrees}")
    return degrees[0] if degrees else None


def unity(graph: GkmGraph) -> CohomologyElement:
    one = Polynomial.constant(1)
    return _element(graph, {v: one for v in graph.vertex_ids()}, 0)


def equivariant_symplectic_class(graph: GkmGraph) -> CohomologyElement:
    """The degree-1 class v -> <mu(v), x>, a class by moment compatibility.

    Its values are checked once and kept in the graph's store; each call
    returns a new element sharing them.  Storing the element itself would
    make a cycle, as the element refers to the graph.
    """
    values = graph.derived("omega", lambda: CohomologyElement(
        graph, {v: lin_form(graph.mu(v)) for v in graph.vertex_ids()}).values)
    return _element(graph, values, 1)


def euler_class(og: OrientedGkmGraph, vid: str, variant: str = "full") -> Polynomial:
    """Product of outward weight forms at vid.

    ``plus`` multiplies over descending edges only, ``minus`` over ascending
    edges only; the full class is their product, stored per graph.
    """
    if variant not in _VARIANTS:
        raise PreconditionError(f"variant must be one of {_VARIANTS}, got {variant!r}")

    def compute():
        if variant == "full":
            edges = og.graph.edges_at(vid)
        elif variant == "plus":
            edges = og.down_edges(vid)
        else:
            edges = og.up_edges(vid)
        return form_product(e.weight_from(vid) for e in edges)

    return (og.graph if variant == "full" else og).derived(("euler", vid, variant), compute)


# -- linear-system construction -------------------------------------------------


class _System:
    """The congruence rows over the coefficient rows of one degree, one
    per vertex of a support, for assignments that vanish outside it.

    A binary form g of degree d is divisible by <w, x> exactly when it
    vanishes at w's primitive perpendicular, so each edge that meets the
    support is one integer row: the power row of degree d at the edge's
    point, with + at its first endpoint and - at its second.  An endpoint
    outside the support contributes nothing, so an edge leaving the
    support asks the inside value to be divisible by its weight.  A
    ``base`` (vertex, form) of the support has a known value: its end of a
    row moves to ``rhs``, the unknowns are the other values times the
    form's denominator, and a row left with no unknown tests the form.
    ``powers`` gives the edges' power rows, in ``graph.edges`` order, from
    a table the caller keeps; without it they are computed here.
    """

    def __init__(self, graph: GkmGraph, degree: int, support: Iterable[str],
                 base: tuple[str, Polynomial] | None = None,
                 powers: Sequence[Sequence[int]] | None = None):
        self.graph = graph
        self.degree = degree
        self.base = base
        vid, form = base or (None, None)
        self.unknowns = sorted(v for v in support if v != vid)
        n = degree + 1
        self.ncols = n * len(self.unknowns)
        offset = {v: k * n for k, v in enumerate(self.unknowns)}
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        if powers is None:
            powers = [power_row(point, degree) for point in graph.edge_points()]
        for e, values in zip(graph.edges, powers):
            i, j = offset.get(e.first), offset.get(e.second)
            known = 1 if e.first == vid else -1 if e.second == vid else 0
            if i is None and j is None and not known:
                continue
            row = [0] * self.ncols
            if i is not None:
                row[i:i + n] = values
            if j is not None:
                row[j:j + n] = [-x for x in values]
            self.rows.append(row)
            self.rhs.append(-known * sum(map(mul, form.numerators, values)) if known else 0)

    def element_from(self, y: list[int], d: int) -> CohomologyElement:
        """The class with coefficients y / d (int numerators, d > 0) at the
        unknowns, the base's form at the base and 0 off the support, which
        ``linalg`` has checked against every row: no check here."""
        n = self.degree + 1
        values = dict.fromkeys(self.graph.vertex_ids(), Polynomial.zero())
        if self.base is not None:
            vid, form = self.base
            values[vid] = form
            d *= form.denominator
        for k, v in enumerate(self.unknowns):
            values[v] = _make(y[k * n:(k + 1) * n], d)
        return _element(self.graph, values, self.degree)


def _require_degree(degree) -> None:
    if type(degree) is not int or degree < 0:  # a bool equals 0 or 1 but is no degree
        raise DegreeError(f"degree must be an int >= 0, got {degree!r}")


def basis(graph: GkmGraph, degree: int) -> list[CohomologyElement]:
    """A basis of the homogeneous degree-d slice, by exact nullspace."""
    _require_degree(degree)
    system = _System(graph, degree, graph.vertex_ids())
    vectors = linalg.nullspace(system.rows, ncols=system.ncols)
    return [system.element_from(y, d) for y, d in vectors]


def slice_dimension(graph: GkmGraph, degree: int) -> int:
    """dim of the degree-d slice without basis elements, stored per graph."""
    _require_degree(degree)  # before the lookup: True would read degree 1's entry

    def compute():
        system = _System(graph, degree, graph.vertex_ids())
        return system.ncols - linalg.rank(system.rows)

    return graph.derived(("slice_dimension", degree), compute)


def thom_class(og: OrientedGkmGraph, vid: str,
               direction: str = "plus") -> CohomologyElement:
    """The unique homogeneous class supported above (below) a vertex.

    ``plus``: degree = down-degree of vid, support inside the ascending
    reachable set, value at vid = product of descending weight forms.
    ``minus`` is the mirror.  Infeasible (no such class) or a GkmError
    naming a positive-dimensional solution family signals a violated
    hypothesis; both are impossible on validated index-increasing data.
    """
    if direction not in ("plus", "minus"):
        raise PreconditionError(f"direction must be 'plus' or 'minus', got {direction!r}")
    if not og.is_index_increasing():
        raise NotIndexIncreasing("Thom classes require an index-increasing orientation")
    return og.derived(("thom", vid, direction),
                      lambda: _solve_thom_class(og, vid, direction))


def _thom_system(og: OrientedGkmGraph, vid: str, direction: str) -> _System:
    """The linear system whose unique solution is the Thom class of vid:
    the congruence rows over its support, with vid's value fixed to the
    Euler factor, so only the other vertices of the support are unknown.
    An Euler factor of another degree than the class is a DegreeError."""
    n = og.graph.valence
    if direction == "plus":
        support = og.ascending_reachable(vid)
        degree = og.down_degree(vid)
    else:
        support = og.descending_reachable(vid)
        degree = n - og.down_degree(vid)
    factor = euler_class(og, vid, direction)
    if factor.homogeneous_degree != degree:
        raise DegreeError(f"the {direction} Euler factor at {vid} has degree "
                          f"{factor.homogeneous_degree}, but its Thom class has degree {degree}")
    powers = og.derived(("power_rows", degree), lambda: [
        power_row(point, degree) for point in og.graph.edge_points()])
    return _System(og.graph, degree, support, (vid, factor), powers)


def _solve_thom_class(og: OrientedGkmGraph, vid: str,
                      direction: str) -> CohomologyElement:
    system = _thom_system(og, vid, direction)
    solution, nullity = linalg.solve(system.rows, system.rhs)
    if solution is None:
        raise Infeasible(f"no class with the required support exists for {vid}")
    if nullity:
        raise GkmError(f"Thom class of {vid} is not unique (nullspace dimension {nullity})")
    return system.element_from(*solution)
