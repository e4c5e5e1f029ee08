"""Fraction-free elimination kernel, property-tested against brute force."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from gkm import linalg


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
