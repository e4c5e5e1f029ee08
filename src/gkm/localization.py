"""Exact fixed-point localization over an oriented moment graph.

The Euler class of a vertex is the product of the linear forms of all its
outward edge weights; its descending ("plus") and ascending ("minus")
factors multiply to it.  A homogeneous class of top polynomial degree n
integrates to the constant value of sum_v f(v) / nu_v, the exact ratio of
its numerator to the common denominator L, the least common multiple of
the nu_v: in rank 2 one linear form per weight direction.  Classes of lower
degree must make the numerator vanish identically, and both facts are
cross-checkable by evaluating the sum at generic rational points.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import isqrt
from types import MappingProxyType

from .errors import DegreeError, NonConstant, NonZero, PreconditionError
from .graph import GkmGraph, OrientedGkmGraph
from .polynomial import Polynomial, Vector, form_product

_VARIANTS = ("full", "plus", "minus")


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


def _values_of(graph: GkmGraph, f) -> tuple[Mapping[str, Polynomial], int | None]:
    """The values and the degree of a class of ``graph``, or of the mapping
    ``f`` once it is checked to map known vertex ids to Polynomials of one
    degree; a class of another graph, or anything else, is a
    PreconditionError."""
    if not isinstance(f, Mapping):
        if type(getattr(f, "values", None)) is not MappingProxyType:  # not a class
            raise PreconditionError("expected a class or a mapping of vertex ids "
                                    f"to polynomials, got {type(f).__name__}")
        if f.graph is not graph:
            raise PreconditionError("the class lives on another graph")
        return f.values, f.degree
    extra = set(f).difference(graph.vertex_ids())
    if extra:
        raise PreconditionError(f"values for unknown vertices: {sorted(extra)}")
    for vid, p in f.items():
        if not isinstance(p, Polynomial):
            raise PreconditionError(
                f"the value at {vid} has type {type(p).__name__}, not Polynomial")
    return f, class_degree(f)


def class_degree(values: Mapping[str, Polynomial]) -> int | None:
    """Common degree of the nonzero values; None if all zero."""
    degrees = sorted({p.homogeneous_degree for p in values.values()} - {None})
    if len(degrees) > 1:
        raise DegreeError(f"class values have mixed degrees {degrees}")
    return degrees[0] if degrees else None


def _common_multiple(og: OrientedGkmGraph) -> tuple[dict[str, Polynomial], Polynomial]:
    """Q_v = L / nu_v for each v, and L = prod_d ell_d^{m_d}, stored per graph.

    An edge's primitive perpendicular (a, b), signed to be > (0, 0), gives
    its weight direction d = (-b, a) and ell_d its form; m_d is the most
    edges of direction d at one vertex.  Each outward weight at v is some
    s_e * d, so Q_v is the forms v lacks over prod_e s_e: no nu_v is expanded.
    The scale prod_e s_e is kept as an integer numerator and denominator.
    """
    def compute():
        graph = og.graph
        counts = {v: Counter() for v in graph.vertex_ids()}
        num = dict.fromkeys(graph.vertex_ids(), 1)
        den = dict.fromkeys(graph.vertex_ids(), 1)
        for e, (a, b) in zip(graph.edges, graph.edge_points()):
            d = Vector((-b, a) if (a, b) > (0, 0) else (b, -a))
            w = e.weight  # s_e = w / d from e.first, -s_e from e.second
            top, bottom = (w.x, d.x) if d.x else (w.y, d.y)
            for v, sign in ((e.first, 1), (e.second, -1)):
                counts[v][d] += 1
                num[v] *= sign * top
                den[v] *= w.denominator * bottom
        most = Counter()
        for c in counts.values():
            most |= c
        quotients = {v: form_product((most - c).elements(), den[v], num[v])
                     for v, c in counts.items()}
        return quotients, form_product(most.elements())

    return og.graph.derived("localization_common_multiple", compute)


def _numerator(og: OrientedGkmGraph, values: Mapping[str, Polynomial]) -> Polynomial:
    """sum_v f(v) * Q_v, the localization sum times L."""
    quotients, _ = _common_multiple(og)
    return sum((values[v] * q for v, q in quotients.items()
                if v in values and not values[v].is_zero()), Polynomial.zero())


def integrate(og: OrientedGkmGraph, f) -> Fraction:
    """Exact value of sum_v f(v)/nu_v for a top-degree homogeneous class,
    the ratio of sum_v f(v) * (L / nu_v) to the common multiple L of the nu_v.

    The zero class integrates to 0.  Raises DegreeError when the class
    degree is not the valence, NonConstant when the sum fails to reduce to
    a rational number (impossible for genuine classes).
    """
    values, degree = _values_of(og.graph, f)
    n = og.graph.valence
    if degree is None:
        return Fraction(0)
    if degree != n:
        raise DegreeError(f"integrand has polynomial degree {degree}, expected {n}")
    _, denominator = _common_multiple(og)
    constant = _numerator(og, values).parallel_ratio(denominator)
    if constant is None:
        raise NonConstant("localization sum did not reduce to a constant")
    return constant


def check_low_degree_vanishing(og: OrientedGkmGraph, f) -> None:
    """Return nothing if the exact numerator sum vanishes for a class of
    degree < n; raise NonZero, naming the sum, if it does not."""
    values, degree = _values_of(og.graph, f)
    n = og.graph.valence
    if degree is None:
        return
    if degree >= n:
        raise DegreeError(f"expected degree < {n}, got {degree}")
    numerator = _numerator(og, values)
    if not numerator.is_zero():
        raise NonZero(f"numerator sum is {numerator}, expected 0")


def _primes() -> Iterator[int]:
    candidate = 2
    while True:
        if all(candidate % p for p in range(2, isqrt(candidate) + 1)):
            yield candidate
        candidate += 1


def evaluation_points(og: OrientedGkmGraph, count: int = 2) -> list[Vector]:
    """Deterministic generic rational points where no Euler class vanishes.

    Points are (1, t) for increasing primes t, skipping any that kill some
    nu_v.
    """
    if type(count) is not int:
        raise PreconditionError(f"count must be an int, got {count!r}")
    if count < 0:
        raise PreconditionError(f"count must be >= 0, got {count}")
    eulers = [euler_class(og, v) for v in og.graph.vertex_ids()]
    found: list[Vector] = []
    for t in _primes():
        if len(found) >= count:
            return found
        point = Vector((1, t))
        if all(nu.evaluate(point) != 0 for nu in eulers):
            found.append(point)


def sum_at_point(og: OrientedGkmGraph, f, point: Vector) -> Fraction:
    """Evaluate sum_v f(v)/nu_v at a rational point (cross-check oracle)."""
    values, _ = _values_of(og.graph, f)
    total = Fraction(0)
    for vid in og.graph.vertex_ids():
        fv = values.get(vid)
        if fv is None or fv.is_zero():
            continue
        nu = euler_class(og, vid).evaluate(point)
        if nu == 0:
            raise PreconditionError(f"evaluation point kills the Euler class at {vid}")
        total += fv.evaluate(point) / nu
    return total
