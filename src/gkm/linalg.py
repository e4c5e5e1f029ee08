"""Exact linear algebra over the rationals.

Fraction-free elimination on primitive rows: each row enters as integers
-- an int row as it is, any other row scaled by the lcm of its
denominators -- and is divided by its content, the gcd of its entries, on
entry and after every update.  Each row is the Bareiss row divided by its
content, up to sign, so the integers stay as small as the system allows.
Pivoting picks the first row with a nonzero entry -- there is no magnitude
pivoting to do in exact arithmetic -- which makes echelon forms, and
everything derived from them, deterministic.

Matrices are plain lists of lists of ints or Fractions; any other entry
(a float, a string, a bool) is a TypeError naming its cell, and a row of
another length than the first (or than ``ncols``, where it is given) is a
PreconditionError naming the row.  Exact solutions come back as integers
over one denominator, in lowest terms: a pair ``(y, d)`` of int numerators
and an int ``d > 0`` with ``gcd(d, *y) == 1`` stands for the rational
vector ``y / d``, checked before it is returned: ``A·y == d·b`` for
``solve`` and ``A·y == 0`` for ``nullspace``, else a GkmError naming the
failing row.  ``solve`` eliminates (A | b), so b pivoting means no
solution, and back-substitutes bottom up over the pivot rows with the free
variables set to 0.  ``nullspace`` reads one kernel vector per free column
off one back pass that zeroes each pivot column off every other row.
``determinant`` returns a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence, Union

from .errors import GkmError, PreconditionError

Matrix = Sequence[Sequence[Union[int, Fraction]]]
Solution = tuple[list[int], int]


def _require_width(matrix: Matrix, ncols: int) -> None:
    """A PreconditionError naming the first row without ``ncols`` entries."""
    for i, row in enumerate(matrix):
        if len(row) != ncols:
            raise PreconditionError(
                f"matrix row {i} has {len(row)} entries, expected {ncols}")


def _row_to_int(row, i: int) -> tuple[list[int], int]:
    """Row ``i`` as a new list of ints and the factor it was scaled by.

    An int row is copied unscaled.  Otherwise only ints and Fractions are
    accepted -- a float, a string or a bool would make the elimination
    inexact or silently reinterpret the entry -- and the row is scaled by
    the lcm of its denominators.
    """
    if {int}.issuperset(map(type, row)):
        return list(row), 1
    scale = 1
    for j, x in enumerate(row):
        if type(x) is bool or not isinstance(x, (int, Fraction)):
            raise TypeError(
                f"matrix entry at row {i}, column {j} is {type(x).__name__} {x!r}; "
                "expected int or Fraction"
            )
        scale = lcm(scale, x.denominator)
    return [x.numerator * (scale // x.denominator) for x in row], scale


class Echelon:
    """Result of fraction-free forward elimination: primitive int rows.

    ``scale_num / scale_den`` undoes what the content divisions and the row
    multipliers did to the determinant: for a square matrix of full rank,
    det = swap_sign · (product of the pivots) · scale_num / scale_den.
    """

    def __init__(self, rows: list[list[int]], pivot_cols: list[int],
                 swap_sign: int, scale_num: int, scale_den: int):
        self.rows = rows
        self.pivot_cols = pivot_cols
        self.swap_sign = swap_sign
        self.scale_num = scale_num
        self.scale_den = scale_den

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def _eliminate(row: list[int], pivot_row: list[int], start: int, pc: int) -> tuple[int, int]:
    """Zero ``row[pc]`` with the pivot ``pivot_row[pc]``, in place: from
    ``start`` on, where ``row`` may be nonzero, it becomes (piv/h)·row -
    (f/h)·pivot_row, h = gcd(piv, f), divided by its content.  Returns the
    multiplier piv/h and the content."""
    piv, f = pivot_row[pc], row[pc]
    h = gcd(piv, f)
    p, q = piv // h, f // h
    new = [p * a - q * b for a, b in zip(row[start:], pivot_row[start:])]
    g = gcd(*new)
    row[start:] = [x // g for x in new] if g > 1 else new
    return p, g


def echelon(matrix: Matrix) -> Echelon:
    """Bring a matrix to row echelon form without rational arithmetic.

    Below the pivot row, every column left of the pivot column is already
    zero, so the update runs over the pivot column and to its right only,
    and the updated row is divided by its content.  A row that is zero at
    the pivot column is left as it is.
    """
    _require_width(matrix, len(matrix[0]) if matrix else 0)
    rows = []
    num = den = 1
    for i, r in enumerate(matrix):
        row, s = _row_to_int(r, i)
        g = gcd(*row)
        if g > 1:
            row = [x // g for x in row]
            num *= g
        den *= s
        rows.append(row)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols: list[int] = []
    sign = 1
    pr = 0
    for pc in range(ncols):
        found = None
        for i in range(pr, nrows):
            if rows[i][pc] != 0:
                found = i
                break
        if found is None:
            continue
        if found != pr:
            rows[pr], rows[found] = rows[found], rows[pr]
            sign = -sign
        for row in rows[pr + 1:]:
            if row[pc]:
                p, g = _eliminate(row, rows[pr], pc, pc)
                if g > 1:
                    num *= g
                if p != 1:
                    den *= p
        pivot_cols.append(pc)
        pr += 1
        if pr == nrows:
            break
    return Echelon(rows, pivot_cols, sign, num, den)


def rank(matrix: Matrix) -> int:
    return echelon(matrix).rank


def determinant(matrix: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    _require_width(matrix, n)
    ech = echelon(matrix)
    if ech.rank < n:
        return Fraction(0)
    diagonal = prod(row[i] for i, row in enumerate(ech.rows))
    return Fraction(ech.swap_sign * diagonal * ech.scale_num, ech.scale_den)


def _back_pass(ech: Echelon) -> list[list[int]]:
    """The reduced echelon form of ``ech``, made in ``ech.rows`` in place:
    bottom up, each pivot row zeroes its column off every row above it by
    the forward step's update, and every row is kept primitive."""
    rows, pivots = ech.rows, ech.pivot_cols
    for k in range(len(pivots) - 1, 0, -1):
        pc = pivots[k]
        for i in range(k):
            if rows[i][pc]:
                _eliminate(rows[i], rows[k], pivots[i], pc)
    return rows


def _kernel_vector(rows: list[list[int]], pivots: list[int], col: int,
                   ncols: int) -> Solution:
    """The kernel vector of the reduced echelon form ``rows`` that is 1 at
    the free column ``col`` and 0 at the other free columns, as ``(y, d)``
    in lowest terms with ``d > 0``."""
    nonzero = [(pc, row[pc], row[col]) for row, pc in zip(rows, pivots) if row[col]]
    d = 1
    for _, piv, a in nonzero:
        d = lcm(d, piv // gcd(piv, a))
    y = [0] * ncols
    y[col] = d
    for pc, piv, a in nonzero:
        y[pc] = -a * d // piv
    return y, d


def _back_substitute(ech: Echelon, ncols: int) -> Solution:
    """The solution of the consistent echelon system (A | b), b at column
    ``ncols``, that is 0 at every free column, as ``(y, d)`` in lowest
    terms with ``d > 0``: bottom up, piv·y[pc] = d·b - (the row's dot
    product with y right of pc); when piv does not divide that, y and d
    are first scaled by |piv| / gcd(piv, it)."""
    y = [0] * ncols
    d = 1
    for row, pc in reversed(list(zip(ech.rows, ech.pivot_cols))):
        piv = row[pc]
        t = d * row[ncols] - sum(map(mul, row[pc + 1:ncols], y[pc + 1:]))
        s = abs(piv) // gcd(t, piv)
        if s > 1:
            y = [s * v for v in y]
            d *= s
            t *= s
        y[pc] = t // piv
    g = gcd(d, *y)
    if g > 1:
        return [v // g for v in y], d // g
    return y, d


def _check(matrix: Matrix, rhs: Sequence, solution: Solution, what: str) -> Solution:
    """``solution`` once ``A·y == d·b`` holds on every row, else a GkmError
    naming the first row that fails."""
    y, d = solution
    for i, (row, b) in enumerate(zip(matrix, rhs)):
        lhs = sum(map(mul, row, y))
        if lhs != d * b:
            raise GkmError(f"{what} fails row {i}: A·y is {lhs}, not {d * b}")
    return solution


def nullspace(matrix: Matrix, ncols: int) -> list[Solution]:
    """Basis of the kernel of a matrix with ``ncols`` columns, one ``(y, d)``
    per free column, deterministic.

    Each basis vector is ``y / d`` in lowest terms with ``A·y == 0``
    (checked) and ``d > 0``.  ``ncols`` must be an int >= 0, else a
    PreconditionError.
    """
    if type(ncols) is not int or ncols < 0:  # a bool equals 0 or 1 but is no count
        raise PreconditionError(f"ncols must be an int >= 0, got {ncols!r}")
    _require_width(matrix, ncols)
    ech = echelon(matrix)
    pivots = ech.pivot_cols
    rows = _back_pass(ech)
    zeros = [0] * len(matrix)
    free = sorted(set(range(ncols)) - set(pivots))
    return [_check(matrix, zeros, _kernel_vector(rows, pivots, col, ncols),
                   f"kernel vector {k}")
            for k, col in enumerate(free)]


def solve(matrix: Matrix,
          rhs: Sequence[Union[int, Fraction]]) -> tuple[Optional[Solution], int]:
    """A particular solution of A x = b and the nullity of A, from one
    elimination of (A | b) and back-substitution.

    Returns ``(solution, nullity)``.  ``solution`` is ``(y, d)`` in lowest
    terms with ``A·y == d·b`` (checked) and ``d > 0``, so ``x = y / d``,
    with the free variables set to 0; it is None when the system is
    inconsistent, that is when the column of b pivots.  ``nullity`` is
    ``ncols - rank(A)``, the dimension of the solution family (zero iff a
    solution, when one exists, is unique).  A matrix with no rows is taken
    to have no columns.
    """
    if len(matrix) != len(rhs):
        raise PreconditionError("row count mismatch between matrix and right-hand side")
    if not matrix:
        return ([], 1), 0
    ncols = len(matrix[0])
    _require_width(matrix, ncols)
    ech = echelon([[*r, b] for r, b in zip(matrix, rhs)])
    if ncols in ech.pivot_cols:
        return None, ncols + 1 - ech.rank
    return (_check(matrix, rhs, _back_substitute(ech, ncols), "the solution"),
            ncols - ech.rank)
