"""Exact fixed-point localization over an oriented moment graph.

The Euler class nu_v of a vertex is the product of the linear forms of all
its outward edge weights; its descending ("plus") and ascending ("minus")
factors multiply to it.  ``euler_class`` and class values are owned by
``cohomology``, which imports nothing from here.  With L the least common
multiple of the nu_v (one linear form per weight direction) and one table
t[v][p] = omega(v)^p * L / nu_v per graph, from the stored symplectic
class omega, a class f of top degree n integrates to
sum_v f(v) / nu_v = sum_v f(v) * t[v][0] / L; in lower degrees that
numerator vanishes.  ``pairing`` sums the three-factor terms
f(v) * g(v) * t[v][p] over supp f & supp g.  Every sum reads its rows at
the support its class recorded when it was made.  Each numerator is one
integer row over one common denominator, summed from convolutions of
integer rows; an integral is its ratio to L by cross-multiplication, and a
vanishing test asks if it is all zero, so no form is made.  Evaluation at
generic rational points cross-checks it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import isqrt, lcm
from operator import add

from .cohomology import _values_of, equivariant_symplectic_class, euler_class
from .errors import DegreeError, NonConstant, NonZero, PreconditionError
from .graph import OrientedGkmGraph
from .polynomial import Polynomial, Vector, _convolve, _make, _row_ratio, _vector, form_product

def _common_multiple(og: OrientedGkmGraph) -> tuple[dict[str, Polynomial], Polynomial]:
    """Q_v = L / nu_v for each v, and L = prod_d ell_d^{m_d}, stored per graph.

    An edge's primitive perpendicular (a, b), signed to be > (0, 0), keys its
    weight direction d = (-b, a), and ell_d is d's form; m_d is the most edges
    of direction d at one vertex.  Each outward weight at v is some s_e * d, so
    Q_v is the forms v lacks over prod_e s_e: no nu_v is expanded.  The scale
    prod_e s_e is kept as an integer numerator and denominator.
    """
    def compute():
        graph = og.graph
        counts = {v: {} for v in graph.vertex_ids()}
        num = dict.fromkeys(graph.vertex_ids(), 1)
        den = dict.fromkeys(graph.vertex_ids(), 1)
        for e, (a, b) in zip(graph.edges, graph.edge_points()):
            if (a, b) < (0, 0):
                a, b = -a, -b
            w = e.weight  # s_e = w / d from e.first, -s_e from e.second
            top, bottom = (w.x, -b) if b else (w.y, a)
            for v, sign in ((e.first, 1), (e.second, -1)):
                counts[v][a, b] = counts[v].get((a, b), 0) + 1
                num[v] *= sign * top
                den[v] *= w.denominator * bottom
        most = {}
        for c in counts.values():
            for d, m in c.items():
                most[d] = max(most.get(d, 0), m)
        forms = {(a, b): _vector(-b, a, 1) for a, b in most}
        quotients = {v: form_product([f for d, f in forms.items()
                                      for _ in range(most[d] - c.get(d, 0))], den[v], num[v])
                     for v, c in counts.items()}
        return quotients, form_product([f for d, f in forms.items() for _ in range(most[d])])

    return og.graph.derived("localization_common_multiple", compute)


def _omega_powers(og: OrientedGkmGraph, p: int) -> Mapping[str, tuple[Sequence[int], int]]:
    """Column p of t[v][p] = omega(v)^p * Q_v as (row, denominator) pairs, stored per graph."""
    def compute():
        if not p:
            return {v: (q.numerators, q.denominator) for v, q in _common_multiple(og)[0].items()}
        omega = equivariant_symplectic_class(og.graph).values
        return {v: _product_sum([(t, (omega[v].numerators, omega[v].denominator))])
                for v, t in _omega_powers(og, p - 1).items()}

    return og.graph.derived(("omega_powers", p), compute)


def _product_sum(terms: Iterable[Sequence[tuple[Sequence[int], int]]]) -> tuple[Sequence[int], int]:
    """The sum of the products of ``terms``, sequences of factors, each an integer
    row and its positive denominator, as one row over the lcm of the term
    denominators.  A term with a zero (empty) factor is skipped; two others of
    different degrees are a DegreeError."""
    total, common = (), 1
    for (row, den), *rest in terms:
        for r, d in rest:
            row, den = (_convolve(row, r), den * d) if row and r else ((), 1)
        if not total:
            total, common = row, den
        elif row:
            if len(row) != len(total):
                raise DegreeError(f"cannot add forms of degrees {len(total) - 1} "
                                  f"and {len(row) - 1}")
            if den == common:
                total = list(map(add, total, row))
            else:
                scale = lcm(common, den)
                a, b = scale // common, scale // den
                total, common = [s * a + x * b for s, x in zip(total, row)], scale
    return total, common


def _table(og: OrientedGkmGraph, degree: int | None, p: int) -> Mapping[str, tuple]:
    """Column p of t, once an integrand's ``degree`` (None for zero) is found to be n."""
    n = og.graph.valence
    if degree not in (None, n):
        raise DegreeError(f"integrand has polynomial degree {degree}, expected {n}")
    return _omega_powers(og, p)


def _constant(og: OrientedGkmGraph, row: Sequence[int], den: int) -> Fraction:
    """The integral whose numerator sum is row / den: its ratio to L."""
    ell = _common_multiple(og)[1]
    constant = _row_ratio(row, den, ell.numerators, ell.denominator)
    if constant is None:
        raise NonConstant("localization sum did not reduce to a constant")
    return constant


def integrate(og: OrientedGkmGraph, f) -> Fraction:
    """Exact sum_v f(v)/nu_v of a class of top degree n; 0 for the zero class.

    Raises DegreeError for another degree, NonConstant when the sum fails
    to reduce to a rational number (impossible for genuine classes)."""
    values, support, degree = _values_of(og.graph, f)
    t = _table(og, degree, 0)
    return _constant(og, *_product_sum([((values[v].numerators, values[v].denominator), t[v])
                                        for v in support]))


def pairing(og: OrientedGkmGraph, f, g, power: int) -> Fraction:
    """``integrate(og, f * g * omega**power)``, summed over supp f & supp g
    alone.  A power outside 0..n is a PreconditionError."""
    n = og.graph.valence
    if type(power) is not int or not 0 <= power <= n:
        raise PreconditionError(f"power {power!r} is not an int in 0..{n}")
    f_values, f_support, f_degree = _values_of(og.graph, f)
    g_values, _, g_degree = _values_of(og.graph, g)
    t = _table(og, None if None in (f_degree, g_degree) else f_degree + g_degree + power, power)
    return _constant(og, *_product_sum([
        (((fv := f_values[v]).numerators, fv.denominator), (gv.numerators, gv.denominator), t[v])
        for v in f_support if (gv := g_values.get(v)) is not None]))


def check_low_degree_vanishing(og: OrientedGkmGraph, f) -> None:
    """Return nothing if the exact numerator sum vanishes for a class of
    degree < n; raise NonZero, naming the sum, if it does not."""
    values, support, degree = _values_of(og.graph, f)
    n = og.graph.valence
    if degree is not None and degree >= n:
        raise DegreeError(f"expected degree < {n}, got {degree}")
    t = _omega_powers(og, 0)
    row, den = _product_sum([((values[v].numerators, values[v].denominator), t[v])
                             for v in support])
    if any(row):
        raise NonZero(f"numerator sum is {_make(row, den)}, expected 0")


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
    t = 1
    while len(found) < count:
        t += 1
        point = Vector((1, t))
        if all(t % p for p in range(2, isqrt(t) + 1)) and all(nu.evaluate(point) for nu in eulers):
            found.append(point)
    return found


def sum_at_point(og: OrientedGkmGraph, f, point: Vector) -> Fraction:
    """Evaluate sum_v f(v)/nu_v at a rational point (cross-check oracle)."""
    values, support, _ = _values_of(og.graph, f)
    total = Fraction(0)
    for vid in support:
        fv = values[vid]
        nu = euler_class(og, vid).evaluate(point)
        if nu == 0:
            raise PreconditionError(f"evaluation point kills the Euler class at {vid}")
        total += fv.evaluate(point) / nu
    return total
