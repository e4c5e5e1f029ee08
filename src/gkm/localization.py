"""Exact fixed-point localization over an oriented moment graph.

The Euler class of a vertex is the product of the linear forms of all its
outward edge weights; its descending ("plus") and ascending ("minus")
factors multiply to it.  A homogeneous class of top polynomial degree n
integrates to the constant value of sum_v f(v) / nu_v, computed exactly
over the common denominator prod_v nu_v; classes of lower degree must make
the numerator vanish identically, and both facts are cross-checkable by
evaluating the sum at generic rational points.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import isqrt

from .errors import DegreeError, NonConstant, NonZero
from .graph import OrientedGkmGraph
from .polynomial import Polynomial, Vector, lin_form

_VARIANTS = ("full", "plus", "minus")


def euler_class(og: OrientedGkmGraph, vid: str, variant: str = "full") -> Polynomial:
    """Product of outward weight forms at vid.

    ``plus`` multiplies over descending edges only, ``minus`` over ascending
    edges only; the full class is their product.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")

    def compute():
        if variant == "full":
            edges = og.graph.edges_at(vid)
        elif variant == "plus":
            edges = og.down_edges(vid)
        else:
            edges = og.up_edges(vid)
        result = Polynomial.constant(og.graph.rank, 1)
        for e in edges:
            result = result * lin_form(e.weight_from(vid))
        return result

    return og.derived(("euler", vid, variant), compute)


def _values_of(f) -> Mapping[str, Polynomial]:
    if isinstance(f, Mapping):
        return f
    return f.values


def class_degree(values: Mapping[str, Polynomial]) -> int | None:
    """Common homogeneous degree of the nonzero values; None if all zero."""
    degrees = set()
    for poly in values.values():
        if poly.is_zero():
            continue
        try:
            degrees.add(poly.homogeneous_degree)
        except ValueError:
            raise DegreeError("class value is not homogeneous") from None
    if not degrees:
        return None
    if len(degrees) > 1:
        raise DegreeError(f"class values have mixed degrees {sorted(degrees)}")
    return degrees.pop()


def _products(og: OrientedGkmGraph) -> tuple[list[Polynomial], Polynomial]:
    """prod_{w != v} nu_w for each v, and prod_v nu_v (prefix/suffix
    products, stored per orientation)."""
    def compute():
        eulers = [euler_class(og, v) for v in og.graph.vertex_ids()]
        one = Polynomial.constant(og.graph.rank, 1)
        prefix = [one]
        for nu in eulers:
            prefix.append(prefix[-1] * nu)
        suffix = [one]
        for nu in reversed(eulers):
            suffix.append(suffix[-1] * nu)
        suffix.reverse()
        return [prefix[i] * suffix[i + 1] for i in range(len(eulers))], prefix[-1]

    return og.derived("localization_products", compute)


def _numerator(og: OrientedGkmGraph, values: Mapping[str, Polynomial]) -> Polynomial:
    """sum_v f(v) * prod_{w != v} nu_w."""
    ids = og.graph.vertex_ids()
    rank = og.graph.rank
    products, _ = _products(og)
    total = Polynomial.zero(rank)
    for i, vid in enumerate(ids):
        fv = values.get(vid, Polynomial.zero(rank))
        if not fv.is_zero():
            total = total + fv * products[i]
    return total


def integrate(og: OrientedGkmGraph, f) -> Fraction:
    """Exact value of sum_v f(v)/nu_v for a top-degree homogeneous class.

    The zero class integrates to 0.  Raises DegreeError when the class
    degree is not the valence, NonConstant when the sum fails to reduce to
    a rational number (impossible for genuine classes).
    """
    values = _values_of(f)
    n = og.graph.valence
    degree = class_degree(values)
    if degree is None:
        return Fraction(0)
    if degree != n:
        raise DegreeError(f"integrand has polynomial degree {degree}, expected {n}")
    numerator = _numerator(og, values)
    if numerator.is_zero():
        return Fraction(0)
    _, denominator = _products(og)
    lead_exps, lead_coeff = next(denominator.terms())
    constant = numerator.coefficient(lead_exps) / lead_coeff
    if numerator != denominator * constant:
        raise NonConstant("localization sum did not reduce to a constant")
    return constant


def check_low_degree_vanishing(og: OrientedGkmGraph, f) -> bool:
    """Assert the exact numerator sum vanishes for a class of degree < n."""
    values = _values_of(f)
    n = og.graph.valence
    degree = class_degree(values)
    if degree is None:
        return True
    if degree >= n:
        raise DegreeError(f"expected degree < {n}, got {degree}")
    numerator = _numerator(og, values)
    if not numerator.is_zero():
        raise NonZero(f"numerator sum is {numerator}, expected 0")
    return True


def _primes() -> Iterator[int]:
    candidate = 2
    while True:
        if all(candidate % p for p in range(2, isqrt(candidate) + 1)):
            yield candidate
        candidate += 1


def evaluation_points(og: OrientedGkmGraph, count: int = 2) -> list[Vector]:
    """Deterministic generic rational points where no Euler class vanishes.

    Points are (1, t, t^2, ...) for increasing primes t, skipping any that
    kill some nu_v.
    """
    rank = og.graph.rank
    eulers = [euler_class(og, v) for v in og.graph.vertex_ids()]
    found: list[Vector] = []
    for t in _primes():
        point = Vector(tuple(Fraction(t) ** i for i in range(rank)))
        if all(nu.evaluate(point) != 0 for nu in eulers):
            found.append(point)
            if len(found) >= count:
                return found
    raise AssertionError("unreachable")


def sum_at_point(og: OrientedGkmGraph, f, point: Vector) -> Fraction:
    """Evaluate sum_v f(v)/nu_v at a rational point (cross-check oracle)."""
    values = _values_of(f)
    total = Fraction(0)
    for vid in og.graph.vertex_ids():
        fv = values.get(vid, Polynomial.zero(og.graph.rank))
        if fv.is_zero():
            continue
        nu = euler_class(og, vid).evaluate(point)
        if nu == 0:
            raise ValueError(f"evaluation point kills the Euler class at {vid}")
        total += fv.evaluate(point) / nu
    return total
