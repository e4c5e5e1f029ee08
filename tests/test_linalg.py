"""Fraction-free elimination kernel, property-tested against brute force."""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkm import linalg
from gkm.errors import GkmError


def brute_det(m):
    """Permutation-expansion determinant (oracle for small matrices)."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(m[i][perm[i]])
        total += sign * prod
    return total


entries = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
matrix3 = st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)
matrix_any = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5)
)


@settings(max_examples=60)
@given(matrix3)
def test_determinant_matches_permutation_expansion(m):
    assert linalg.determinant(m) == brute_det(m)


@settings(max_examples=60)
@given(matrix_any)
def test_nullspace_vectors_annihilate(m):
    ncols = len(m[0])
    basis = linalg.nullspace(m)
    assert len(basis) == ncols - linalg.rank(m)
    for v in basis:
        for row in m:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


@settings(max_examples=60)
@given(matrix_any, st.data())
def test_solve_reproduces_known_solution(m, data):
    ncols = len(m[0])
    x = [data.draw(entries) for _ in range(ncols)]
    b = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in m]
    sol, _ = linalg.solve(m, b)
    assert sol is not None
    for row, bi in zip(m, b):
        assert sum(Fraction(a) * v for a, v in zip(row, sol)) == bi


def test_solve_detects_inconsistency():
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) == (None, 1)


@settings(max_examples=60)
@given(matrix_any, st.data())
def test_solve_nullity_and_consistency_from_one_elimination(m, data):
    # Half the right-hand sides lie in the column space by construction;
    # the others are random and mostly make tall systems inconsistent.
    if data.draw(st.booleans()):
        x = [data.draw(entries) for _ in m[0]]
        b = [sum(Fraction(a) * v for a, v in zip(row, x)) for row in m]
    else:
        b = [data.draw(entries) for _ in m]
    sol, nullity = linalg.solve(m, b)
    assert nullity == len(linalg.nullspace(m))
    augmented = [list(row) + [bi] for row, bi in zip(m, b)]
    assert (sol is None) == (linalg.rank(augmented) > linalg.rank(m))
    if sol is not None:
        for row, bi in zip(m, b):
            assert sum(Fraction(a) * v for a, v in zip(row, sol)) == bi


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_inexact_entries_raise_type_error_naming_the_cell(bad):
    with pytest.raises(TypeError, match=r"row 1, column 0 .*expected int or Fraction"):
        linalg.echelon([[1, 2], [bad, 3]])
    with pytest.raises(TypeError, match=r"row 0, column 1 "):
        linalg.solve([[1, bad]], [1])


def test_singular_determinant_is_zero():
    assert linalg.determinant([[1, 2], [2, 4]]) == 0


def test_empty_constraints_nullspace_is_full():
    basis = linalg.nullspace([], ncols=3)
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_determinant_of_empty_matrix_is_one():
    assert linalg.determinant([]) == 1


# -- back-substitution on integers of the size the thom benchmark meets -----------

def ref_rank(m):
    """Rank by plain Fraction Gaussian elimination (oracle)."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


big = st.integers(-2**16, 2**16)
big_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(big, min_size=n, max_size=n), min_size=1, max_size=5)
)


@settings(max_examples=60)
@given(big_matrix, st.data())
def test_solve_and_nullspace_on_large_integer_matrices(m, data):
    if len(m) > 1 and data.draw(st.booleans()):  # a dependent row lowers the rank
        k = data.draw(big)
        m = m + [[a + k * b for a, b in zip(m[0], m[1])]]
    ncols = len(m[0])
    x = [data.draw(big) for _ in range(ncols)]
    b = [sum(a * v for a, v in zip(row, x)) for row in m]
    sol, nullity = linalg.solve(m, b)
    basis = linalg.nullspace(m)
    assert nullity == len(basis) == ncols - ref_rank(m)
    for row, bi in zip(m, b):
        assert sum(a * v for a, v in zip(row, sol)) == bi
        for v in basis:
            assert sum(a * c for a, c in zip(row, v)) == 0
    for v in sol + [c for vec in basis for c in vec]:
        assert type(v) is Fraction and v.denominator > 0
        assert gcd(v.numerator, v.denominator) == 1


def test_corrupted_echelon_fails_back_substitution_naming_the_row():
    ech = linalg.echelon([[1, 1], [1, -1]])
    assert ech.rows == [[1, 1], [0, -2]]
    ech.rows[0][0] = 4  # no longer a Bareiss form: row 0 cannot be solved exactly
    with pytest.raises(GkmError, match=r"pivot row 0 \(column 0\)"):
        linalg._back_substitute(ech, 2, {}, rhs=[1, 1])
