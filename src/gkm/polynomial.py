"""Exact binary forms over the rationals, and rational plane vectors.

The torus has rank 2 (the paper's setting), so every weight, moment
position and covector is a plane vector, and every polynomial lives in
H_T(pt) = Q[x1, x2]; linear forms are the images of weight vectors.  A
vector of any other length is a ScopeError.  Floats, strings and bools
are rejected on construction so that every divisibility and determinant
test stays decidable.  Degrees are plain polynomial degrees; the
cohomological degree of a homogeneous element is twice that.

A polynomial is a tuple of coefficient rows, one per degree: row d holds
the d + 1 numerators of x1^d, x1^(d-1)*x2, ..., x2^d, or is empty where
the degree-d part is zero.  The last row is nonempty and all numerators
share one positive denominator, in lowest terms, so equal polynomials have
equal rows and ``Fraction`` appears only at the API boundary.  A product
is a convolution of rows; a degree-d part's value at an integer point
(a, b) is the dot product of its row with ``power_row((a, b), d)``.

The public ``Polynomial(terms)`` takes exponent pairs and int or
Fraction coefficients from outside and checks them.  The private ``_make``
trusts integer rows and a denominator from the module's own arithmetic,
only emptying zero rows and dividing out one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import NotDivisible, ScopeError

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    """Coerce an int or Fraction to Fraction; anything else, a float, str
    or bool included, is a TypeError (exactness guard)."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact arithmetic takes int or Fraction, not {type(x).__name__}")
    return Fraction(x)


class Vector:
    """A rational plane vector: weight, moment position, or covector.

    Immutable; componentwise arithmetic plus the exact predicates the
    graph layer needs: the pairing ``dot`` and the 2D ``cross`` product,
    zero exactly for parallel vectors.  The public constructor coerces
    both int or Fraction components to Fraction and rejects anything else,
    and any count but two; arithmetic results, already Fraction pairs, are
    built by ``_vector`` without a second check.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable):
        c = tuple(_frac(x) for x in components)
        if len(c) != 2:
            raise ScopeError(f"vectors are planar (rank 2), got {len(c)} components")
        object.__setattr__(self, "components", c)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.components)

    def __getitem__(self, i: int) -> Fraction:
        return self.components[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "Vector(%s, %s)" % self.components

    def __add__(self, other: "Vector") -> "Vector":
        (a, b), (c, d) = self.components, other.components
        return _vector((a + c, b + d))

    def __sub__(self, other: "Vector") -> "Vector":
        (a, b), (c, d) = self.components, other.components
        return _vector((a - c, b - d))

    def __neg__(self) -> "Vector":
        a, b = self.components
        return _vector((-a, -b))

    def __mul__(self, scalar: Scalar) -> "Vector":
        s = _frac(scalar)
        a, b = self.components
        return _vector((a * s, b * s))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        a, b = self.components
        return a == 0 and b == 0

    def dot(self, other: "Vector") -> Fraction:
        (a, b), (c, d) = self.components, other.components
        return a * c + b * d

    def cross(self, other: "Vector") -> Fraction:
        """2D cross product a1*b2 - a2*b1: zero exactly when the two are parallel."""
        (a, b), (c, d) = self.components, other.components
        return a * d - b * c

    def perp(self) -> "Vector":
        """A vector perpendicular to self, nonzero when self is."""
        a, b = self.components
        return _vector((-b, a))

    def primitive_perp(self) -> tuple[int, int]:
        """perp() scaled by a positive rational to coprime integers."""
        a, b = self.perp()
        scale = lcm(a.denominator, b.denominator)
        a, b = int(a * scale), int(b * scale)
        g = gcd(a, b)
        return a // g, b // g


def _vector(components: tuple[Fraction, ...]) -> Vector:
    """Trusting constructor for Vector's own results: ``components`` must
    be a pair of Fractions; nothing is checked or coerced."""
    v = object.__new__(Vector)
    object.__setattr__(v, "components", components)
    return v


class Polynomial:
    """Exact binary form (or sum of forms) with rational coefficients.

    ``rows[d]`` holds the integer numerators of the degree-d part, x1-heavy
    first, over the positive ``denominator``.  Instances are immutable.
    """

    __slots__ = ("rows", "denominator")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        """Validating constructor for terms from outside the class.

        Every key must be a pair of non-negative ints (exponents of x1 and
        x2); coefficients must be ints or Fractions, and terms with equal
        exponents are summed.
        """
        clean: dict[tuple, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(exps)
            if len(e) != 2 or any(type(x) is not int or x < 0 for x in e):
                raise ValueError(f"bad exponent vector {exps!r}")
            clean[e] = clean.get(e, 0) + _frac(coeff)
        den = lcm(*(c.denominator for c in clean.values()))
        rows = [[0] * (d + 1) for d in range(max((i + j for i, j in clean), default=-1) + 1)]
        for (i, j), c in clean.items():
            rows[i + j][j] += c.numerator * (den // c.denominator)
        p = _make(rows, den)
        _init(self, p.rows, p.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        c = _frac(value)
        return _form((c.numerator,), c.denominator)

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        """The variable x_{index+1} (0-based index)."""
        if type(index) is not int or not 0 <= index < 2:
            raise ValueError(f"variable index must be an int in 0..1, got {index!r}")
        return _form((1, 0) if index == 0 else (0, 1), 1)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous and nonzero, None for zero, error otherwise."""
        if not self.rows:
            return None
        if self.rows.count(()) != len(self.rows) - 1:
            raise ValueError("polynomial is not homogeneous")
        return len(self.rows) - 1

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the two denominators."""
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not p.rows:
            return self
        if not self.rows:
            return p if sign == 1 else -p
        d1, d2 = self.denominator, p.denominator
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        return _make([[x * s1 + y * s2 for x, y in zip_longest(a, b, fillvalue=0)] if a or b
                      else () for a, b in zip_longest(self.rows, p.rows, fillvalue=())], d1 * s1)

    def __add__(self, other) -> "Polynomial":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __neg__(self) -> "Polynomial":
        return _make([[-c for c in row] for row in self.rows], self.denominator)

    def __mul__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not self.rows or not p.rows:
            return _ZERO
        out: list = [()] * (len(self.rows) + len(p.rows) - 1)
        for d1, r1 in enumerate(self.rows):
            for d2, r2 in enumerate(p.rows):
                if r1 and r2:
                    out[d1 + d2] = _convolve(r1, r2, out[d1 + d2])
        return _make(out, self.denominator * p.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            other = Polynomial.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.denominator == other.denominator
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.denominator))

    def parallel_ratio(self, other: "Polynomial") -> Fraction | None:
        """Return r with self == r * other, or None if no such rational exists.

        ``other`` must be nonzero.  The nonzero parts must have the same
        degrees, and each pair of numerators s, o must satisfy s*b == a*o,
        a and b those of one position where other's numerator is nonzero.
        """
        if not other.rows:
            raise ValueError("parallel_ratio against the zero polynomial")
        if not self.rows:
            return Fraction(0)
        if list(map(len, self.rows)) != list(map(len, other.rows)):
            return None
        pairs = list(zip(chain.from_iterable(self.rows), chain.from_iterable(other.rows)))
        a, b = next((s, o) for s, o in pairs if o)
        if any(s * b != a * o for s, o in pairs):
            return None
        return Fraction(a * other.denominator, b * self.denominator)

    # -- evaluation and division -------------------------------------------

    def evaluate(self, point: Vector | Sequence) -> Fraction:
        """Exact evaluation at a rational point of the plane.

        The point is written as (a, b) / m with integers a, b, m, so part d
        contributes its value at (a, b) over m^d.
        """
        x, y = point if isinstance(point, Vector) else Vector(point)
        if not self.rows:
            return Fraction(0)
        m = lcm(x.denominator, y.denominator)
        ab = (x.numerator * (m // x.denominator), y.numerator * (m // y.denominator))
        top = len(self.rows) - 1
        total = sum(sum(map(mul, row, power_row(ab, d))) * m ** (top - d)
                    for d, row in enumerate(self.rows) if row)
        return Fraction(total, self.denominator * m ** top)

    def divide_by_linear(self, ell: "Polynomial") -> "Polynomial":
        """Exact quotient self / ell for a nonzero degree-1 homogeneous ell.

        Raises NotDivisible when no exact quotient exists.  Synthetic
        division, one pass per row: for ell = a*x1 + b*x2 with a != 0 (else
        x1 and x2 swap), a row c and its quotient row q satisfy c_i = a*q_i
        + b*q_(i-1), and the remainder is c_last - b*q_last.  Numerators are
        first scaled by ell's denominator and |a|^top, top the highest
        degree, so each division by a is exact.
        """
        if not isinstance(ell, Polynomial) or ell.homogeneous_degree != 1:
            raise ValueError("divisor must be nonzero homogeneous of degree 1")
        a, b = ell.rows[1]
        mirror = a == 0
        if mirror:
            a, b = b, a
        scale = abs(a) ** max(len(self.rows) - 1, 0)
        k = scale * ell.denominator
        quotient: list = []
        for row in self.rows:
            c = row[::-1] if mirror else row
            q: list[int] = []
            last = 0
            for x in c[:-1]:
                last = (x * k - b * last) // a
                q.append(last)
            if c and c[-1] * k != b * last:
                raise NotDivisible(f"({self}) is not divisible by ({ell})")
            quotient.append(q[::-1] if mirror else q)
        return _make(quotient[1:], self.denominator * scale)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        """Signed sum of terms like ``x1^2 - 2*x1*x2 + 1/3``, graded-lex order:
        highest degree first, then x1-heavy first."""
        text = ""
        for d in range(len(self.rows) - 1, -1, -1):
            for i, n in enumerate(self.rows[d]):
                if n:
                    mag = Fraction(abs(n), self.denominator)
                    factors = [f"x{k}" if e == 1 else f"x{k}^{e}"
                               for k, e in ((1, d - i), (2, i)) if e]
                    body = "*".join(factors if factors and mag == 1 else [str(mag)] + factors)
                    sign = (" - " if n < 0 else " + ") if text else ("-" if n < 0 else "")
                    text += sign + body
        return text or "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _init(p: Polynomial, rows: tuple, den: int) -> None:
    object.__setattr__(p, "rows", rows)
    object.__setattr__(p, "denominator", den)


def _make(rows: Iterable[Sequence[int]], den: int) -> Polynomial:
    """Trusting constructor for the module's own arithmetic.

    ``rows`` must hold d + 1 int numerators (or none) at each index d, over
    the positive int ``den``; nothing is checked or coerced.  All-zero rows
    are emptied, trailing empty rows dropped, and one gcd brings the rest
    to lowest terms.
    """
    rows = [tuple(r) if r and any(r) else () for r in rows]
    while rows and not rows[-1]:
        rows.pop()
    if den != 1:
        g = gcd(den, *chain.from_iterable(rows))  # no rows: g = den, den -> 1
        if g != 1:
            rows = [tuple(c // g for c in r) for r in rows]
            den //= g
    p = object.__new__(Polynomial)
    _init(p, tuple(rows), den)
    return p


_ZERO = _make((), 1)


def _convolve(r1: Sequence[int], r2: Sequence[int], acc: Sequence[int]) -> list[int]:
    """acc plus the product of two coefficient rows; entry k of the product
    sums r1[i] * r2[k - i].  An empty ``acc`` counts as zero."""
    out = list(acc) if acc else [0] * (len(r1) + len(r2) - 1)
    for i, x in enumerate(r1):
        if x:
            for k, y in enumerate(r2, i):
                out[k] += x * y
    return out


def _form(row: Sequence[int], den: int) -> Polynomial:
    """Trusting constructor of the homogeneous form of degree len(row) - 1
    with numerators ``row`` over the positive int ``den``."""
    return _make([()] * (len(row) - 1) + [row], den)


def power_row(point: Sequence[int], degree: int) -> list[int]:
    """[a^(d-i) * b^i for i = 0..d]: the degree-d monomials at the integer
    point (a, b), in row order.  Dotted with a degree-d coefficient row it
    gives that part's value there, times the polynomial's denominator."""
    a, b = point
    return [a ** (degree - i) * b ** i for i in range(degree + 1)]


def form_product(weights: Iterable, numerator: int = 1, denominator: int = 1) -> Polynomial:
    """numerator / denominator * prod_k <w_k, x>, for nonzero int
    ``denominator`` and plane weights with int or Fraction components.

    Each factor is an integer pair over its own denominator, and
    multiplying a row by a*x1 + b*x2 is one pass: c'_i = a*c_i + b*c_(i-1).
    """
    row = [numerator]
    for x, y in weights:
        m = lcm(x.denominator, y.denominator)
        a, b = x.numerator * (m // x.denominator), y.numerator * (m // y.denominator)
        row = [p * a + q * b for p, q in zip(row + [0], [0] + row)]
        denominator *= m
    if denominator < 0:
        row, denominator = [-c for c in row], -denominator
    return _form(row, denominator)


def lin_form(w: Vector | Sequence) -> Polynomial:
    """Embed a plane weight vector as the linear form w_1*x1 + w_2*x2."""
    return form_product([w if isinstance(w, Vector) else Vector(w)])


def congruent_mod_linear(f: Polynomial, g: Polynomial, ell: Polynomial) -> bool:
    """True iff ell divides f - g exactly."""
    try:
        (f - g).divide_by_linear(ell)
        return True
    except NotDivisible:
        return False
