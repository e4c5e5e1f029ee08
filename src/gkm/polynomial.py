"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials in k variables x1..xk represent the symmetric algebra on the
dual Lie algebra of a rank-k torus; linear forms are the images of weight
vectors.  Coefficients are ``fractions.Fraction`` throughout -- floats are
rejected on construction so that every downstream divisibility and
determinant test stays decidable.

Degree convention: we store plain polynomial degree; the cohomological
degree of a homogeneous element is twice that (each variable has
cohomological degree 2).

A polynomial is a mapping from exponent tuples to nonzero coefficients.
Term order everywhere (iteration, text form, hash) is graded lexicographic,
leading terms first, so equality is structural and serialization is
reproducible.  That order is computed lazily, on the first call that needs
it, and kept; arithmetic never sorts.

Two constructors build polynomials.  The public ``Polynomial(rank, terms)``
takes input from outside the class: it checks every exponent tuple,
rejects float coefficients, coerces the rest to ``Fraction`` and merges
duplicate keys.  The private ``_make`` takes the term dict exactly as the
class's own arithmetic produced it -- exponent tuples of the right length,
``Fraction`` coefficients -- and trusts it, only dropping zero
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import NotDivisible, RankMismatch, ScopeError

Scalar = Union[int, Fraction]


def _frac(x) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness guard)."""
    if isinstance(x, float):
        raise TypeError("floating-point values are not allowed in exact arithmetic")
    return Fraction(x)


def _gradedlex_key(exponents: tuple) -> tuple:
    return (sum(exponents), exponents)


class Vector:
    """A rational k-vector: weight, moment position, or covector.

    Immutable; componentwise arithmetic plus the handful of exact
    predicates (pairing, parallelism, 2D cross product) the graph layer
    needs.
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
        return Vector(a + b for a, b in zip(self, other))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_rank(other)
        return Vector(a - b for a, b in zip(self, other))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self)

    def __mul__(self, scalar: Scalar) -> "Vector":
        s = _frac(scalar)
        return Vector(a * s for a in self)

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
        return Vector((-self[1], self[0]))

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
        # Components of `other` that are zero force the matching components
        # of self to zero, checked above; remaining ratio is consistent.
        if ratio is None:  # other nonzero guarantees at least one b != 0
            raise AssertionError("unreachable")
        return ratio


class Polynomial:
    """Exact polynomial in ``rank`` variables with Fraction coefficients.

    Terms map exponent tuples to nonzero coefficients; canonical order is
    graded-lex descending, computed on first use.  Instances are immutable.
    """

    __slots__ = ("rank", "_terms", "_order")

    def __init__(self, rank: int, terms: Mapping[tuple, Scalar] | None = None):
        """Validating constructor for terms from outside the class.

        Every exponent tuple must have ``rank`` non-negative entries;
        coefficients are coerced to Fraction (floats raise TypeError) and
        terms with equal exponents are summed.
        """
        if rank < 1:
            raise ValueError("polynomial rank must be >= 1")
        clean: dict[tuple, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(int(x) for x in exps)
            if len(e) != rank or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {exps!r} for rank {rank}")
            c = _frac(coeff)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        _init(self, rank, clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, value: Scalar) -> "Polynomial":
        return cls(rank, {(0,) * rank: _frac(value)})

    @classmethod
    def variable(cls, rank: int, index: int) -> "Polynomial":
        """The variable x_{index+1} (0-based index)."""
        if not 0 <= index < rank:
            raise ValueError(f"variable index {index} out of range for rank {rank}")
        exps = [0] * rank
        exps[index] = 1
        return cls(rank, {tuple(exps): 1})

    # -- inspection --------------------------------------------------------

    def _sorted_terms(self) -> tuple:
        order = self._order
        if order is None:
            order = tuple(sorted(self._terms.items(),
                                 key=lambda kv: _gradedlex_key(kv[0]), reverse=True))
            object.__setattr__(self, "_order", order)
        return order

    def terms(self) -> Iterator[tuple[tuple, Fraction]]:
        """(exponents, coefficient) pairs in graded-lex descending order."""
        return iter(self._sorted_terms())

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def total_degree(self) -> int | None:
        """Maximal term degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    @property
    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous and nonzero, None for zero, error otherwise."""
        if not self._terms:
            return None
        degrees = {sum(e) for e in self._terms}
        if len(degrees) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degrees.pop()

    def homogeneous_component(self, degree: int) -> "Polynomial":
        """Sum of the terms of the given total degree."""
        return _make(self.rank, {e: c for e, c in self._terms.items() if sum(e) == degree})

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
        out = dict(self._terms)
        for e, c in p._terms.items():
            out[e] = out[e] + c if e in out else c
        return _make(self.rank, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(self.rank, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in p._terms.items():
            out[e] = out[e] - c if e in out else -c
        return _make(self.rank, out)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        right = p._terms.items()
        for e1, c1 in self._terms.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return _make(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
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
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.rank, self._sorted_terms()))

    # -- evaluation and division -------------------------------------------

    def evaluate(self, point: Vector | Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        pt = [_frac(c) for c in point]
        if len(pt) != self.rank:
            raise RankMismatch(f"point has {len(pt)} coords, polynomial rank {self.rank}")
        total = Fraction(0)
        for e, c in self._terms.items():
            val = c
            for base, exp in zip(pt, e):
                if exp:
                    val *= base**exp
            total += val
        return total

    def divide_by_linear(self, ell: "Polynomial") -> "Polynomial":
        """Exact quotient self / ell for a nonzero degree-1 homogeneous ell.

        Raises NotDivisible when no exact quotient exists; that is the
        signal for a violated edge congruence.

        One sweep: the pivot is the first variable x_j of ell, and terms are
        bucketed by their exponent of x_j.  Reducing a term of pivot
        exponent k by ell only creates terms of exponent k - 1, so the
        buckets are cleared from the top down, each term once.  The
        remainder is whatever is left in bucket 0.
        """
        if not isinstance(ell, Polynomial) or ell.rank != self.rank:
            raise RankMismatch("divisor rank mismatch")
        if ell.is_zero() or ell.homogeneous_degree != 1:
            raise ValueError("divisor must be nonzero homogeneous of degree 1")
        # ell's terms are unit exponent tuples; index(1) names the variable.
        coeffs = sorted((e.index(1), c) for e, c in ell._terms.items())
        pivot, cp = coeffs[0]
        others = [(i, -c) for i, c in coeffs[1:]]
        top = max((e[pivot] for e in self._terms), default=0)
        buckets: list[dict[tuple, Fraction]] = [{} for _ in range(top + 1)]
        for e, c in self._terms.items():
            buckets[e[pivot]][e] = c
        quotient: dict[tuple, Fraction] = {}
        for k in range(top, 0, -1):
            lower = buckets[k - 1]
            for e, c in buckets[k].items():
                if not c:
                    continue
                qe = list(e)
                qe[pivot] -= 1
                qc = c / cp
                quotient[tuple(qe)] = qc
                for i, nc in others:
                    qe[i] += 1
                    te = tuple(qe)
                    qe[i] -= 1
                    lower[te] = lower[te] + qc * nc if te in lower else qc * nc
        if any(buckets[0].values()):
            raise NotDivisible(f"({self}) is not divisible by ({ell})")
        return _make(self.rank, quotient)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        """Signed sum of terms like ``x1^2 - 2*x1*x2 + 1/3``, graded-lex order."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for e, c in self._sorted_terms():
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


def _init(p: Polynomial, rank: int, terms: dict) -> None:
    object.__setattr__(p, "rank", rank)
    object.__setattr__(p, "_terms", terms)
    object.__setattr__(p, "_order", None)


def _make(rank: int, terms: dict) -> Polynomial:
    """Trusting constructor for the class's own arithmetic.

    ``terms`` must map exponent tuples of length ``rank`` to Fraction
    coefficients; nothing is checked or coerced, only zero coefficients
    are dropped.
    """
    p = object.__new__(Polynomial)
    _init(p, rank, {e: c for e, c in terms.items() if c})
    return p


def lin_form(w: Vector | Sequence) -> Polynomial:
    """Embed a weight vector as the linear form sum_i w_i * x_i."""
    v = w if isinstance(w, Vector) else Vector(w)
    rank = v.rank
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return _make(rank, {(0,) * j + (1,) + (0,) * (rank - 1 - j): c for j, c in enumerate(v)})


def congruent_mod_linear(f: Polynomial, g: Polynomial, ell: Polynomial) -> bool:
    """True iff ell divides f - g exactly."""
    try:
        (f - g).divide_by_linear(ell)
        return True
    except NotDivisible:
        return False
