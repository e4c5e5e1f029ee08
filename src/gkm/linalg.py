"""Exact linear algebra over the rationals.

Fraction-free Gaussian elimination (Bareiss): each row enters as integers
-- an int row as it is, any other row scaled by the lcm of its
denominators -- and is eliminated with the two-by-two determinant update
whose divisions are exact; back-substitution is fraction-free too.
Pivoting picks the first row with a nonzero entry -- there is no magnitude
pivoting to do in exact arithmetic -- which makes echelon forms, and
everything derived from them, deterministic.

Matrices are plain lists of lists of ints or Fractions; any other entry
(a float, a string, a bool) is a TypeError naming its cell.  Exact solutions come
back as integers over one denominator: a pair ``(y, d)`` of int numerators
and an int ``d > 0`` stands for the rational vector ``y / d``, checked
before it is returned: ``A·y == d·b`` for ``solve`` and ``A·y == 0`` for
``nullspace``, else a GkmError naming the failing row.  There is one
back-substitution, for kernel vectors: ``solve`` eliminates (A | b) and
reads x off its kernel vector (x, -1), so b pivoting means no solution.
``determinant`` returns a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence, Union

from .errors import GkmError, PreconditionError

Matrix = Sequence[Sequence[Union[int, Fraction]]]
Solution = tuple[list[int], int]


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
    """Result of fraction-free forward elimination."""

    def __init__(self, rows: list[list[int]], pivot_cols: list[int],
                 swap_sign: int, row_scales: list[int]):
        self.rows = rows
        self.pivot_cols = pivot_cols
        self.swap_sign = swap_sign
        self.row_scales = row_scales

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def echelon(matrix: Matrix) -> Echelon:
    """Bring a matrix to row echelon form without rational arithmetic.

    Below the pivot row, every column left of the pivot column is already
    zero, so the update runs over the pivot column and to its right only.
    A row that is zero at the pivot column is just rescaled by piv / prev,
    which is exact as every Bareiss division is.
    """
    rows = []
    scales = []
    for i, r in enumerate(matrix):
        ir, s = _row_to_int(r, i)
        rows.append(ir)
        scales.append(s)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols: list[int] = []
    sign = 1
    prev = 1
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
            scales[pr], scales[found] = scales[found], scales[pr]
            sign = -sign
        pivot_tail = rows[pr][pc + 1:]
        piv = rows[pr][pc]
        for i in range(pr + 1, nrows):
            row = rows[i]
            factor = row[pc]
            if factor:
                row[pc] = 0
                row[pc + 1:] = [(a * piv - factor * b) // prev
                                for a, b in zip(row[pc + 1:], pivot_tail)]
            else:
                row[pc + 1:] = [a * piv // prev if a else 0 for a in row[pc + 1:]]
        prev = piv
        pivot_cols.append(pc)
        pr += 1
        if pr == nrows:
            break
    return Echelon(rows, pivot_cols, sign, scales)


def rank(matrix: Matrix) -> int:
    return echelon(matrix).rank


def determinant(matrix: Matrix) -> Fraction:
    """Exact determinant of a square matrix."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in matrix):
        raise PreconditionError("determinant requires a square matrix")
    ech = echelon(matrix)
    if ech.rank < n:
        return Fraction(0)
    # In Bareiss elimination the last pivot equals the determinant of the
    # integer matrix; undo the row scalings and swap sign.
    det_int = ech.rows[n - 1][n - 1]
    total_scale = 1
    for s in ech.row_scales:
        total_scale *= s
    return Fraction(ech.swap_sign * det_int, total_scale)


def _back_substitute(ech: Echelon, ncols: int, fixed: dict[int, int]) -> Solution:
    """Solve the echelon system A·x = 0 for the pivot variables, fraction-free.

    ``fixed`` assigns integers to the free variables.  With D the last
    Bareiss pivot, Cramer's rule makes y = D * x integral, so each step is
    an exact integer division; a remainder is a GkmError naming the row.
    Returns ``(y, d)`` with ``x = y / d`` and ``d = |D|``.
    """
    pivots = ech.pivot_cols
    d = ech.rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * ncols
    for col, val in fixed.items():
        y[col] = d * val
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        row = ech.rows[i]
        acc = -sum(map(mul, row[pc + 1:ncols], y[pc + 1:]))
        y[pc], rem = divmod(acc, row[pc])
        if rem:
            raise GkmError(f"back-substitution at pivot row {i} (column {pc}) is not "
                           f"exact: {acc} is not a multiple of the pivot {row[pc]}")
    if d < 0:
        return [-v for v in y], -d
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

    Each basis vector is ``y / d`` with ``A·y == 0`` (checked), ``d > 0``.
    """
    ech = echelon(matrix)
    pivots = set(ech.pivot_cols)
    zeros = [0] * len(matrix)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        fixed = {c: int(c == free) for c in range(ncols) if c not in pivots}
        basis.append(_check(matrix, zeros, _back_substitute(ech, ncols, fixed),
                            f"kernel vector {len(basis)}"))
    return basis


def solve(matrix: Matrix,
          rhs: Sequence[Union[int, Fraction]]) -> tuple[Optional[Solution], int]:
    """A particular solution of A x = b and the nullity of A, as a kernel
    vector of (A | b) from one elimination.

    Returns ``(solution, nullity)``.  ``solution`` is ``(y, d)`` with
    ``A·y == d·b`` (checked) and ``d > 0``, so ``x = y / d``, with the free
    variables set to 0; it is None when the system is inconsistent, that
    is when the column of b pivots.  ``nullity`` is ``ncols - rank(A)``,
    the dimension of the solution family (zero iff a solution, when one
    exists, is unique).  A matrix with no rows is taken to have no columns.
    """
    if len(matrix) != len(rhs):
        raise PreconditionError("row count mismatch between matrix and right-hand side")
    if not matrix:
        return ([], 1), 0
    ncols = len(matrix[0])
    ech = echelon([list(r) + [b] for r, b in zip(matrix, rhs)])
    if ncols in ech.pivot_cols:
        return None, ncols + 1 - ech.rank
    pivots = set(ech.pivot_cols)
    fixed = {c: 0 for c in range(ncols) if c not in pivots}
    fixed[ncols] = -1
    y, d = _back_substitute(ech, ncols + 1, fixed)
    return _check(matrix, rhs, (y[:ncols], d), "the solution"), ncols - ech.rank
