"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials in k variables x1..xk represent the symmetric algebra on the
dual Lie algebra of a rank-k torus; linear forms are the images of weight
vectors.  Coefficients are stored as integer numerators over one positive
denominator, in lowest terms; ``fractions.Fraction`` appears only at the
API boundary.  Floats are rejected on construction so that every
downstream divisibility and determinant test stays decidable.

Degree convention: we store plain polynomial degree; the cohomological
degree of a homogeneous element is twice that (each variable has
cohomological degree 2).

A polynomial maps exponent tuples to nonzero coefficients, compared and
hashed as that mapping; no term order is stored, so ``terms()`` and the
text form sort graded-lex, leading terms first.  ``parallel_ratio`` tells,
by integer cross-multiplication, whether one is a rational multiple of another.

Two constructors build polynomials.  The public ``Polynomial(rank, terms)``
takes input from outside the class: it checks every exponent tuple,
rejects float coefficients, coerces the rest to ``Fraction`` and merges
duplicate keys.  The private ``_make`` takes integer numerators and a
denominator exactly as the class's own arithmetic produced them --
exponent tuples of the right length -- and trusts them, only dropping zero
numerators and dividing out one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import NotDivisible, RankMismatch, ScopeError

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness guard)."""
    if isinstance(x, float):
        raise TypeError("floating-point values are not allowed in exact arithmetic")
    return Fraction(x)


class Vector:
    """A rational k-vector: weight, moment position, or covector.

    Immutable; componentwise arithmetic plus the handful of exact
    predicates (pairing, parallelism, 2D cross product) the graph layer
    needs.  The public constructor coerces every component to Fraction and
    rejects floats; arithmetic results, already Fractions, are built by
    ``_vector`` without a second coercion.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable):
        object.__setattr__(self, "components", tuple(_frac(c) for c in components))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @property
    def rank(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.components)

    def __getitem__(self, i: int) -> Fraction:
        return self.components[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "Vector(%s)" % (", ".join(str(c) for c in self.components))

    def _check_rank(self, other: "Vector") -> None:
        if len(self) != len(other):
            raise RankMismatch(f"vector ranks differ: {len(self)} vs {len(other)}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_rank(other)
        return _vector(tuple(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_rank(other)
        return _vector(tuple(a - b for a, b in zip(self, other)))

    def __neg__(self) -> "Vector":
        return _vector(tuple(-a for a in self))

    def __mul__(self, scalar: Scalar) -> "Vector":
        s = _frac(scalar)
        return _vector(tuple(a * s for a in self))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)

    def dot(self, other: "Vector") -> Fraction:
        self._check_rank(other)
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def cross(self, other: "Vector") -> Fraction:
        """2D cross product a1*b2 - a2*b1."""
        if len(self) != 2 or len(other) != 2:
            raise ScopeError("cross product requires rank 2")
        return self[0] * other[1] - self[1] * other[0]

    def perp(self) -> "Vector":
        """A nonzero vector perpendicular to self (rank 2 only)."""
        if len(self) != 2:
            raise ScopeError("perp requires rank 2")
        return _vector((-self[1], self[0]))

    def primitive_perp(self) -> tuple[int, int]:
        """perp() scaled by a positive rational to coprime integers."""
        a, b = self.perp()
        scale = lcm(a.denominator, b.denominator)
        a, b = int(a * scale), int(b * scale)
        g = gcd(a, b)
        return a // g, b // g

    def parallel_ratio(self, other: "Vector") -> Fraction | None:
        """Return r with self == r * other, or None if no such rational exists.

        ``other`` must be nonzero.
        """
        self._check_rank(other)
        if other.is_zero():
            raise ValueError("parallel_ratio against the zero vector")
        ratio = None
        for a, b in zip(self, other):
            if b == 0:
                if a != 0:
                    return None
            else:
                r = a / b
                if ratio is None:
                    ratio = r
                elif ratio != r:
                    return None
        return ratio


def _vector(components: tuple[Fraction, ...]) -> Vector:
    """Trusting constructor for Vector's own results: ``components`` must
    be a tuple of Fractions; nothing is checked or coerced."""
    v = object.__new__(Vector)
    object.__setattr__(v, "components", components)
    return v


class Polynomial:
    """Exact polynomial in ``rank`` variables with rational coefficients.

    Terms map exponent tuples to nonzero integer numerators over one
    positive denominator; ``terms()`` lists them graded-lex descending.
    Instances are immutable.
    """

    __slots__ = ("rank", "_num", "_den")

    def __init__(self, rank: int, terms: Mapping[tuple, Scalar] | None = None):
        """Validating constructor for terms from outside the class.

        Every exponent tuple must have ``rank`` non-negative int entries;
        coefficients are coerced to Fraction (floats raise TypeError) and
        terms with equal exponents are summed.
        """
        if rank < 1:
            raise ValueError("polynomial rank must be >= 1")
        clean: dict[tuple, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(exps)
            if len(e) != rank or any(type(x) is not int or x < 0 for x in e):
                raise ValueError(f"bad exponent vector {exps!r} for rank {rank}")
            clean[e] = clean.get(e, 0) + _frac(coeff)
        p = _from_fractions(rank, clean)
        _init(self, rank, p._num, p._den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        if rank < 1:
            raise ValueError("polynomial rank must be >= 1")
        return _make(rank, {}, 1)

    @classmethod
    def constant(cls, rank: int, value: Scalar) -> "Polynomial":
        if rank < 1:
            raise ValueError("polynomial rank must be >= 1")
        return _from_fractions(rank, {(0,) * rank: _frac(value)})

    @classmethod
    def variable(cls, rank: int, index: int) -> "Polynomial":
        """The variable x_{index+1} (0-based index)."""
        if type(index) is not int or not 0 <= index < rank:
            raise ValueError(f"variable index must be an int in 0..{rank - 1}, got {index!r}")
        exps = [0] * rank
        exps[index] = 1
        return cls(rank, {tuple(exps): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple, Fraction]]:
        """(exponents, coefficient) pairs in graded-lex descending order."""
        order = sorted(self._num, key=lambda e: (sum(e), e), reverse=True)
        return ((e, Fraction(self._num[e], self._den)) for e in order)

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(tuple(exponents), 0), self._den)

    def is_zero(self) -> bool:
        return not self._num

    @property
    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous and nonzero, None for zero, error otherwise."""
        if not self._num:
            return None
        degrees = {sum(e) for e in self._num}
        if len(degrees) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degrees.pop()

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.rank != self.rank:
                raise RankMismatch(f"polynomial ranks differ: {self.rank} vs {other.rank}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.rank, other)
        return None

    def __add__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        d1, d2 = self._den, p._den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = {e: c * s1 for e, c in self._num.items()} if s1 != 1 else dict(self._num)
        for e, c in p._num.items():
            out[e] = out[e] + s2 * c if e in out else s2 * c
        return _make(self.rank, out, d1 * s1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(self.rank, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + -p

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out: dict[tuple, int] = {}
        right = p._num.items()
        for e1, c1 in self._num.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return _make(self.rank, out, self._den * p._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.rank, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.rank, other)
        return (
            isinstance(other, Polynomial)
            and self.rank == other.rank
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.rank, self._den, frozenset(self._num.items())))

    def parallel_ratio(self, other: "Polynomial") -> Fraction | None:
        """Return r with self == r * other, or None if no such rational exists.

        ``other`` must be nonzero.  Supports must agree, and each term's
        numerators s, o must satisfy s*b == a*o, a and b those of one term.
        """
        if other.rank != self.rank:
            raise RankMismatch(f"polynomial ranks differ: {self.rank} vs {other.rank}")
        if not other._num:
            raise ValueError("parallel_ratio against the zero polynomial")
        if not self._num:
            return Fraction(0)
        if self._num.keys() != other._num.keys():
            return None
        first, b = next(iter(other._num.items()))
        a = self._num[first]
        if any(c * b != a * other._num[e] for e, c in self._num.items()):
            return None
        return Fraction(a * other._den, b * self._den)

    # -- evaluation and division -------------------------------------------

    def evaluate(self, point: Vector | Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        pt = [_frac(c) for c in point]
        if len(pt) != self.rank:
            raise RankMismatch(f"point has {len(pt)} coords, polynomial rank {self.rank}")
        return Fraction(sum(c * prod(map(pow, pt, e)) for e, c in self._num.items()),
                        self._den)

    def graded_numerators(self, point: Sequence[int]) -> tuple[dict[int, int], int]:
        """Each nonzero homogeneous part's value at an integer point, as
        integer numerators by degree, and the one denominator they share."""
        sums: dict[int, int] = {}
        for e, c in self._num.items():
            d = sum(e)
            sums[d] = sums.get(d, 0) + c * prod(map(pow, point, e))
        return {d: s for d, s in sums.items() if s}, self._den

    def divide_by_linear(self, ell: "Polynomial") -> "Polynomial":
        """Exact quotient self / ell for a nonzero degree-1 homogeneous ell.

        Raises NotDivisible when no exact quotient exists; that is the
        signal for a violated edge congruence.

        One sweep: the pivot is the first variable x_j of ell, and terms are
        bucketed by their exponent of x_j.  Reducing a term of pivot
        exponent k by ell only creates terms of exponent k - 1, so the
        buckets are cleared from the top down, each term once.  The
        remainder is whatever is left in bucket 0.  Numerators are first
        scaled by ell's denominator and by |c|^top (c the pivot coefficient,
        top the highest pivot exponent): bucket k then holds multiples of
        c^k, and each division by c is exact.
        """
        if not isinstance(ell, Polynomial) or ell.rank != self.rank:
            raise RankMismatch("divisor rank mismatch")
        if ell.is_zero() or ell.homogeneous_degree != 1:
            raise ValueError("divisor must be nonzero homogeneous of degree 1")
        # ell's terms are unit exponent tuples; index(1) names the variable.
        coeffs = sorted((e.index(1), c) for e, c in ell._num.items())
        pivot, cp = coeffs[0]
        others = [(i, -c) for i, c in coeffs[1:]]
        top = max((e[pivot] for e in self._num), default=0)
        scale = abs(cp) ** top
        buckets: list[dict[tuple, int]] = [{} for _ in range(top + 1)]
        for e, c in self._num.items():
            buckets[e[pivot]][e] = c * scale * ell._den
        quotient: dict[tuple, int] = {}
        for k in range(top, 0, -1):
            lower = buckets[k - 1]
            for e, c in buckets[k].items():
                if not c:
                    continue
                qe = list(e)
                qe[pivot] -= 1
                qc = c // cp
                quotient[tuple(qe)] = qc
                for i, nc in others:
                    qe[i] += 1
                    te = tuple(qe)
                    qe[i] -= 1
                    lower[te] = lower[te] + qc * nc if te in lower else qc * nc
        if any(buckets[0].values()):
            raise NotDivisible(f"({self}) is not divisible by ({ell})")
        return _make(self.rank, quotient, self._den * scale)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        """Signed sum of terms like ``x1^2 - 2*x1*x2 + 1/3``, graded-lex order."""
        if not self._num:
            return "0"
        pieces: list[str] = []
        for e, c in self.terms():
            factors = []
            for i, exp in enumerate(e):
                if exp == 1:
                    factors.append(f"x{i + 1}")
                elif exp > 1:
                    factors.append(f"x{i + 1}^{exp}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _init(p: Polynomial, rank: int, num: dict, den: int) -> None:
    object.__setattr__(p, "rank", rank)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)


def _make(rank: int, num: dict, den: int) -> Polynomial:
    """Trusting constructor for the class's own arithmetic.

    ``num`` must map exponent tuples of length ``rank`` to int numerators
    over the positive int ``den``; nothing is checked or coerced.  Zero
    numerators are dropped and one gcd brings the rest to lowest terms.
    """
    num = {e: c for e, c in num.items() if c}
    g = gcd(den, *num.values()) if den != 1 else 1  # no terms: g = den, den -> 1
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    p = object.__new__(Polynomial)
    _init(p, rank, num, den)
    return p


def _from_fractions(rank: int, terms: Mapping[tuple, Fraction]) -> Polynomial:
    """Trusting constructor from Fraction coefficients, over one lcm of
    their denominators; exponent tuples are not checked."""
    den = lcm(*(c.denominator for c in terms.values()))
    return _make(rank, {e: c.numerator * (den // c.denominator) for e, c in terms.items()},
                 den)


def lin_form(w: Vector | Sequence) -> Polynomial:
    """Embed a weight vector as the linear form sum_i w_i * x_i."""
    v = w if isinstance(w, Vector) else Vector(w)
    rank = v.rank
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return _from_fractions(rank, {(0,) * j + (1,) + (0,) * (rank - 1 - j): c
                                  for j, c in enumerate(v)})


def congruent_mod_linear(f: Polynomial, g: Polynomial, ell: Polynomial) -> bool:
    """True iff ell divides f - g exactly."""
    try:
        (f - g).divide_by_linear(ell)
        return True
    except NotDivisible:
        return False
