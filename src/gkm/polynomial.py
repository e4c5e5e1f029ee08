"""Exact binary forms over the rationals, and rational plane vectors.

The torus has rank 2 (the paper's setting), so every weight, moment
position and covector is a plane vector, and every polynomial lives in
H_T(pt) = Q[x1, x2]; linear forms are the images of weight vectors.  A
vector of any other length is a ScopeError.  Floats, strings and bools
are rejected on construction so that every divisibility and determinant
test stays decidable.  Degrees are plain polynomial degrees; the
cohomological degree of a homogeneous element is twice that.

A vector is two integer numerators over one positive denominator, in
lowest terms.  Its sums, multiples, ``dot`` and ``cross`` are integer
arithmetic, with no gcd when both denominators are 1, and ``form_product``
reads the numerators and denominator directly.  Iteration and indexing
give the components as Fractions; a ``dot`` or ``cross`` result is an int
when both denominators are 1 and a Fraction otherwise.

A polynomial is one binary form: the d + 1 integer ``numerators`` of
x1^d, x1^(d-1)*x2, ..., x2^d over one positive denominator, in lowest
terms, and no numerators for the zero form.  So equal forms have equal
numerators, and ``Fraction`` appears only at the API boundary.  Every
object of the paper is homogeneous, so a sum of two nonzero forms of
different degrees is a DegreeError, and so is ``Polynomial(terms)`` whose
nonzero terms have two degrees.  A product is a convolution of numerators;
the value at an integer point (a, b) is their dot product with
``power_row((a, b), d)``.

The public ``Polynomial(terms)`` takes exponent pairs and int or
Fraction coefficients from outside and checks them.  The private ``_make``
trusts integer numerators and a denominator from the module's own
arithmetic, and only divides out one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DegreeError, NotDivisible, PreconditionError, ScopeError

Scalar = Union[int, Fraction]


def _ratio(x) -> tuple[int, int]:
    """An int or Fraction as its numerator and positive denominator; anything
    else, a float, str or bool included, is a TypeError (exactness guard)."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact arithmetic takes int or Fraction, not {type(x).__name__}")
    return x.numerator, x.denominator


def _tuple_of(name: str, items) -> tuple:
    """``items`` as a tuple, or a PreconditionError naming the argument."""
    try:
        return tuple(items)
    except TypeError:
        raise PreconditionError(f"{name} must be iterable, got {items!r}") from None


class Vector:
    """A rational plane vector: weight, moment position, or covector.

    Immutable: int numerators ``x``, ``y`` over a positive ``denominator``,
    in lowest terms.  Componentwise arithmetic plus the exact predicates the
    graph layer needs: the pairing ``dot`` and the 2D ``cross`` product,
    zero exactly for parallel vectors.  The public constructor takes two int
    or Fraction components and rejects anything else.
    """

    __slots__ = ("x", "y", "denominator")

    def __new__(cls, components: Iterable) -> "Vector":
        return ratio_vector([_ratio(c) for c in _tuple_of("components", components)])

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __iter__(self) -> Iterator[Fraction]:
        return iter((self[0], self[1]))

    def __getitem__(self, i: int) -> Fraction:
        return Fraction((self.x, self.y)[i], self.denominator)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Vector) and self.x == other.x and self.y == other.y
                and self.denominator == other.denominator)

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.denominator))

    def __lt__(self, other: "Vector") -> bool:
        """Lexicographic order of the components."""
        m, n = self.denominator, other.denominator
        return (self.x * n, self.y * n) < (other.x * m, other.y * m)

    def __repr__(self) -> str:
        return "Vector(%s, %s)" % tuple(self)

    def __add__(self, other: "Vector") -> "Vector":
        m, n = self.denominator, other.denominator
        return _vector(self.x * n + other.x * m, self.y * n + other.y * m, m * n)

    def __sub__(self, other: "Vector") -> "Vector":
        m, n = self.denominator, other.denominator
        return _vector(self.x * n - other.x * m, self.y * n - other.y * m, m * n)

    def __neg__(self) -> "Vector":
        return _vector(-self.x, -self.y, self.denominator)

    def __mul__(self, scalar: Scalar) -> "Vector":
        n, d = _ratio(scalar)
        return _vector(self.x * n, self.y * n, self.denominator * d)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def dot(self, other: "Vector") -> Scalar:
        return _quotient(self.x * other.x + self.y * other.y,
                         self.denominator * other.denominator)

    def cross(self, other: "Vector") -> Scalar:
        """2D cross product a1*b2 - a2*b1: zero exactly when the two are parallel."""
        return _quotient(self.x * other.y - self.y * other.x,
                         self.denominator * other.denominator)

    def perp(self) -> "Vector":
        """A vector perpendicular to self, nonzero when self is."""
        return _vector(-self.y, self.x, self.denominator)

    def primitive_perp(self) -> tuple[int, int]:
        """perp() scaled by a positive rational to coprime integers."""
        g = gcd(self.x, self.y)
        return -self.y // g, self.x // g


def ratio_vector(ratios: Sequence[tuple[int, int]]) -> Vector:
    """The Vector with components n/d for int pairs (n, d), d > 0; any count
    but two is a ScopeError."""
    if len(ratios) != 2:
        raise ScopeError(f"vectors are planar (rank 2), got {len(ratios)} components")
    (a, b), (c, d) = ratios
    return _vector(a * d, c * b, b * d)


def _vector(x: int, y: int, den: int) -> Vector:
    """Trusting constructor for Vector's own results: int numerators over a
    positive int denominator; nothing is checked, and one gcd, skipped when
    the denominator is 1, brings them to lowest terms."""
    if den != 1:
        g = gcd(x, y, den)
        if g != 1:
            x, y, den = x // g, y // g, den // g
    v = object.__new__(Vector)
    object.__setattr__(v, "x", x)
    object.__setattr__(v, "y", y)
    object.__setattr__(v, "denominator", den)
    return v


def _quotient(n: int, d: int) -> Scalar:
    """n / d for a positive int d: the int n when d is 1, else a Fraction."""
    return n if d == 1 else Fraction(n, d)


class Polynomial:
    """Exact binary form with rational coefficients.

    ``numerators`` holds the d + 1 integer numerators of the degree-d form,
    x1-heavy first, over the positive ``denominator``; the zero form has
    none.  Instances are immutable.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        """Validating constructor for terms from outside the class.

        ``terms`` must be a mapping or None, every key a tuple of two
        non-negative ints (exponents of x1 and x2), every coefficient an int
        or a Fraction.  Terms with equal exponents are summed and zero terms
        dropped; the rest must share one degree, else DegreeError.
        """
        if terms is not None and not isinstance(terms, Mapping):
            raise PreconditionError("terms must be a mapping of exponent pairs to "
                                    f"coefficients, got {terms!r}")
        clean: dict[tuple, Fraction] = {}
        for e, coeff in (terms or {}).items():
            if (type(e) is not tuple or len(e) != 2
                    or any(type(x) is not int or x < 0 for x in e)):
                raise PreconditionError(f"bad exponent vector {e!r}")
            clean[e] = clean.get(e, 0) + Fraction(*_ratio(coeff))
        clean = {e: c for e, c in clean.items() if c}
        degrees = sorted({i + j for i, j in clean})
        if len(degrees) > 1:
            raise DegreeError(f"terms have degrees {degrees}; a polynomial is one binary form")
        den = lcm(*(c.denominator for c in clean.values()))
        row = [0] * (degrees[0] + 1 if degrees else 0)
        for (i, j), c in clean.items():
            row[j] = c.numerator * (den // c.denominator)
        p = _make(row, den)
        _init(self, p.numerators, p.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _ZERO

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        n, d = _ratio(value)
        return _make((n,), d)

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        """The variable x_{index+1} (0-based index)."""
        if type(index) is not int or not 0 <= index < 2:
            raise PreconditionError(f"variable index must be an int in 0..1, got {index!r}")
        return _make((1, 0) if index == 0 else (0, 1), 1)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def homogeneous_degree(self) -> int | None:
        """The degree of the form; None for zero."""
        return len(self.numerators) - 1 if self.numerators else None

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def _combine(self, other, sign: int) -> "Polynomial":
        """self + sign * other, over the lcm of the two denominators; two
        nonzero forms of different degrees are a DegreeError."""
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not p.numerators:
            return self
        if not self.numerators:
            return p if sign == 1 else -p
        if len(self.numerators) != len(p.numerators):
            raise DegreeError(f"cannot add forms of degrees {len(self.numerators) - 1} "
                              f"and {len(p.numerators) - 1}")
        d1, d2 = self.denominator, p.denominator
        g = gcd(d1, d2)
        s1, s2 = d2 // g, sign * (d1 // g)
        return _make([x * s1 + y * s2 for x, y in zip(self.numerators, p.numerators)], d1 * s1)

    def __add__(self, other) -> "Polynomial":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __neg__(self) -> "Polynomial":
        return _make([-c for c in self.numerators], self.denominator)

    def __mul__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not self.numerators or not p.numerators:
            return _ZERO
        return _make(_convolve(self.numerators, p.numerators), self.denominator * p.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if type(n) is not int or n < 0:
            raise PreconditionError("exponent must be a non-negative integer")
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
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def parallel_ratio(self, other: "Polynomial") -> Fraction | None:
        """Return r with self == r * other, or None if no such rational exists.

        ``other`` must be nonzero.  The two must have the same degree, and
        each pair of numerators s, o must satisfy s*b == a*o, a and b those
        of one position where other's numerator is nonzero.
        """
        if not other.numerators:
            raise PreconditionError("parallel_ratio against the zero polynomial")
        if not self.numerators:
            return Fraction(0)
        if len(self.numerators) != len(other.numerators):
            return None
        pairs = list(zip(self.numerators, other.numerators))
        a, b = next((s, o) for s, o in pairs if o)
        if any(s * b != a * o for s, o in pairs):
            return None
        return Fraction(a * other.denominator, b * self.denominator)

    # -- evaluation and division -------------------------------------------

    def evaluate(self, point: Vector | Sequence) -> Fraction:
        """Exact evaluation at a rational point of the plane.

        A Vector is (a, b) / m with integers a, b, m, so a degree-d form
        takes its value at (a, b) over m^d.
        """
        p = point if isinstance(point, Vector) else Vector(_tuple_of("point", point))
        if not self.numerators:
            return Fraction(0)
        d = len(self.numerators) - 1
        return Fraction(sum(map(mul, self.numerators, power_row((p.x, p.y), d))),
                        self.denominator * p.denominator ** d)

    def divide_by_linear(self, ell: "Polynomial") -> "Polynomial":
        """Exact quotient self / ell for a nonzero linear form ell.

        Raises NotDivisible when no exact quotient exists.  Synthetic
        division: for ell = a*x1 + b*x2 with a != 0 (else x1 and x2 swap),
        the numerators c and the quotient's q satisfy c_i = a*q_i +
        b*q_(i-1), and the remainder is c_last - b*q_last.  Numerators are
        first scaled by ell's denominator and |a|^d, d the degree, so each
        division by a is exact.
        """
        if not isinstance(ell, Polynomial) or ell.homogeneous_degree != 1:
            raise PreconditionError("divisor must be a nonzero linear form")
        a, b = ell.numerators
        mirror = a == 0
        if mirror:
            a, b = b, a
        c = self.numerators[::-1] if mirror else self.numerators
        scale = abs(a) ** max(len(c) - 1, 0)
        k = scale * ell.denominator
        q: list[int] = []
        last = 0
        for x in c[:-1]:
            last = (x * k - b * last) // a
            q.append(last)
        if c and c[-1] * k != b * last:
            raise NotDivisible(f"({self}) is not divisible by ({ell})")
        return _make(q[::-1] if mirror else q, self.denominator * scale)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        """Signed sum of terms like ``x1^2 - 2*x1*x2 + 1/3*x2^2``, x1-heavy
        first."""
        text = ""
        d = len(self.numerators) - 1
        for i, n in enumerate(self.numerators):
            if n:
                mag = Fraction(abs(n), self.denominator)
                factors = [f"x{k}" if e == 1 else f"x{k}^{e}" for k, e in ((1, d - i), (2, i)) if e]
                body = "*".join(factors if factors and mag == 1 else [str(mag)] + factors)
                sign = (" - " if n < 0 else " + ") if text else ("-" if n < 0 else "")
                text += sign + body
        return text or "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _init(p: Polynomial, numerators: tuple, den: int) -> None:
    object.__setattr__(p, "numerators", numerators)
    object.__setattr__(p, "denominator", den)


def _make(numerators: Sequence[int], den: int) -> Polynomial:
    """Trusting constructor for the module's own arithmetic: the form of
    degree len(numerators) - 1 with int ``numerators`` over the positive
    int ``den``; nothing is checked or coerced.  All-zero numerators give
    the zero form, and one gcd brings the rest to lowest terms."""
    numerators = tuple(numerators) if any(numerators) else ()
    if den != 1:
        g = gcd(den, *numerators)  # the zero form: g = den, den -> 1
        if g != 1:
            numerators = tuple(c // g for c in numerators)
            den //= g
    p = object.__new__(Polynomial)
    _init(p, numerators, den)
    return p


_ZERO = _make((), 1)


def _convolve(r1: Sequence[int], r2: Sequence[int]) -> list[int]:
    """The numerators of a product of two forms: entry k sums
    r1[i] * r2[k - i]."""
    out = [0] * (len(r1) + len(r2) - 1)
    for i, x in enumerate(r1):
        if x:
            for k, y in enumerate(r2, i):
                out[k] += x * y
    return out


def power_row(point: Sequence[int], degree: int) -> list[int]:
    """[a^(d-i) * b^i for i = 0..d]: the degree-d monomials at the integer
    point (a, b), in numerator order.  Dotted with a degree-d form's
    numerators it gives the form's value there, times its denominator."""
    a, b = point
    return [a ** (degree - i) * b ** i for i in range(degree + 1)]


def form_product(weights: Iterable[Vector], numerator: int = 1,
                 denominator: int = 1) -> Polynomial:
    """numerator / denominator * prod_k <w_k, x>, for nonzero int
    ``denominator`` and plane weight Vectors.

    Each factor reads a weight's integer numerators a, b and multiplies in
    its denominator; multiplying numerators by a*x1 + b*x2 is one pass:
    c'_i = a*c_i + b*c_(i-1).
    """
    row = [numerator]
    for w in weights:
        a, b = w.x, w.y
        row = [p * a + q * b for p, q in zip(row + [0], [0] + row)]
        denominator *= w.denominator
    if denominator < 0:
        row, denominator = [-c for c in row], -denominator
    return _make(row, denominator)


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
