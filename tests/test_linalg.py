"""Fraction-free elimination kernel, property-tested against brute force,
against the full-row Bareiss loop and against Fraction Gauss-Jordan."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from gkm import cohomology, linalg
from gkm.corpus import corpus, corpus_names
from gkm.errors import GkmError, Infeasible, PreconditionError
from gkm.graph import Edge, GkmGraph, Vertex, find_index_increasing_xi, orient
from gkm.localization import euler_class
from gkm.polynomial import Polynomial, Vector


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


def dot(row, v):
    return sum(Fraction(a) * b for a, b in zip(row, v))


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
    basis = linalg.nullspace(m, ncols)
    assert len(basis) == ncols - linalg.rank(m)
    for y, d in basis:
        assert d > 0
        for row in m:
            assert dot(row, y) == 0


@settings(max_examples=60)
@given(matrix_any, st.data())
def test_solve_reproduces_known_solution(m, data):
    ncols = len(m[0])
    x = [data.draw(entries) for _ in range(ncols)]
    b = [dot(row, x) for row in m]
    sol, _ = linalg.solve(m, b)
    assert sol is not None
    y, d = sol
    assert d > 0
    for row, bi in zip(m, b):
        assert dot(row, y) == d * bi


def test_solve_detects_inconsistency():
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) == (None, 1)


@settings(max_examples=60)
@given(matrix_any, st.data())
def test_solve_nullity_and_consistency_from_one_elimination(m, data):
    # Half the right-hand sides lie in the column space by construction;
    # the others are random and mostly make tall systems inconsistent.
    if data.draw(st.booleans()):
        x = [data.draw(entries) for _ in m[0]]
        b = [dot(row, x) for row in m]
    else:
        b = [data.draw(entries) for _ in m]
    sol, nullity = linalg.solve(m, b)
    assert nullity == len(linalg.nullspace(m, len(m[0])))
    augmented = [list(row) + [bi] for row, bi in zip(m, b)]
    assert (sol is None) == (linalg.rank(augmented) > linalg.rank(m))
    if sol is not None:
        y, d = sol
        assert d > 0
        for row, bi in zip(m, b):
            assert dot(row, y) == d * bi


@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_inexact_entries_raise_type_error_naming_the_cell(bad):
    with pytest.raises(TypeError, match=r"row 1, column 0 .*expected int or Fraction"):
        linalg.echelon([[1, 2], [bad, 3]])
    with pytest.raises(TypeError, match=r"row 0, column 1 "):
        linalg.solve([[1, bad]], [1])


# Rows that are integers up to one last entry: the int fast path must not
# let the entry through.  The bad entry is at row 1, column ``col``.
_INEXACT_ROWS = [
    ([[1, 0, 0], [1, 2, 2.0], [0, 0, 1]], 2),
    ([[1, 0], [1, "3"]], 1),
    ([[1, 0], [1, True]], 1),
]


@pytest.mark.parametrize("matrix, col", _INEXACT_ROWS)
@pytest.mark.parametrize("entry", ["echelon", "solve", "nullspace", "determinant", "rank"])
def test_int_rows_with_one_inexact_entry_still_raise_naming_the_cell(matrix, col, entry):
    calls = {
        "echelon": lambda: linalg.echelon(matrix),
        "solve": lambda: linalg.solve(matrix, [0] * len(matrix)),
        "nullspace": lambda: linalg.nullspace(matrix, len(matrix[0])),
        "determinant": lambda: linalg.determinant(matrix),
        "rank": lambda: linalg.rank(matrix),
    }
    with pytest.raises(TypeError, match=rf"row 1, column {col} .*expected int or Fraction"):
        calls[entry]()


def test_inexact_right_hand_side_raises_naming_its_cell():
    with pytest.raises(TypeError, match=r"row 1, column 2 is float"):
        linalg.solve([[1, 0], [0, 1]], [1, 2.0])
    with pytest.raises(TypeError, match=r"row 1, column 2 is bool"):
        linalg.solve([[1, 0], [0, 1]], [1, True])


@pytest.mark.parametrize("call, row", [
    (lambda: linalg.echelon([[1, 2], [3]]), 1),
    (lambda: linalg.rank([[1], [2, 3]]), 1),
    (lambda: linalg.nullspace([[1, 2, 3]], 2), 0),
    (lambda: linalg.nullspace([[1, 2], [3, 4, 5]], 2), 1),
    (lambda: linalg.solve([[1, 2], [3]], [1, 1]), 1),
    (lambda: linalg.determinant([[1, 2], [3]]), 1),
    (lambda: linalg.determinant([[1, 2, 3], [4, 5, 6]]), 0),
], ids=["echelon", "rank", "nullspace-ncols", "nullspace-ragged", "solve",
        "determinant-ragged", "determinant-wide"])
def test_ragged_or_mis_sized_matrices_are_refused_naming_the_row(call, row):
    with pytest.raises(PreconditionError, match=rf"^matrix row {row} has \d+ entries, expected \d+$"):
        call()


@pytest.mark.parametrize("matrix, ncols", [
    ([[1, 2]], 2.0),
    ([[1, 2]], "2"),
    ([[1]], True),
    ([], False),
    ([], -1),
    ([[1, 2]], None),
], ids=["float", "str", "true", "false", "negative", "none"])
def test_a_column_count_that_is_not_an_int_at_least_0_is_refused(matrix, ncols):
    with pytest.raises(PreconditionError, match=rf"^ncols must be an int >= 0, got {ncols!r}$"):
        linalg.nullspace(matrix, ncols)


def test_singular_determinant_is_zero():
    assert linalg.determinant([[1, 2], [2, 4]]) == 0


def test_empty_constraints_nullspace_is_full():
    basis = linalg.nullspace([], ncols=3)
    assert basis == [([1, 0, 0], 1), ([0, 1, 0], 1), ([0, 0, 1], 1)]
    assert all(type(c) is int for y, d in basis for c in y + [d])


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
    (y, d), nullity = linalg.solve(m, b)
    basis = linalg.nullspace(m, ncols)
    assert nullity == len(basis) == ncols - ref_rank(m)
    for row, bi in zip(m, b):
        assert sum(a * v for a, v in zip(row, y)) == d * bi
        for z, _ in basis:
            assert sum(a * c for a, c in zip(row, z)) == 0
    for v, e in [(y, d)] + basis:
        assert e > 0
        assert all(type(c) is int for c in v + [e])


def _moved(graph, xi, seed):
    """``graph`` with every moment and weight moved by a seeded invertible
    integer matrix A with entries in ±2^16, and the covector that keeps
    every edge's orientation: xi' = sign(det A) adj(A)^T xi, so that
    <A w, xi'> = |det A| <w, xi>."""
    rng = random.Random(seed)
    while True:
        a, b, c, d = (rng.randint(-2**16, 2**16) for _ in range(4))
        if a * d - b * c:
            break
    sign = 1 if a * d - b * c > 0 else -1

    def move(v):
        return Vector((a * v[0] + b * v[1], c * v[0] + d * v[1]))

    moved = GkmGraph(2, graph.valence, [Vertex(v.id, move(v.mu)) for v in graph.vertices],
                     [Edge(e.first, e.second, move(e.weight)) for e in graph.edges])
    return moved, Vector((sign * (d * xi[0] - c * xi[1]),
                          sign * (a * xi[1] - b * xi[0])))


def bareiss_kernel_vector(matrix, col):
    """The kernel vector that is 1 at the free column ``col`` and 0 at the
    other free columns, by Fraction back-substitution on the full-row
    Bareiss form (oracle)."""
    rows, pivots, _, _ = ref_echelon(matrix)
    ncols = len(matrix[0])
    x = [Fraction(int(c == col)) for c in range(ncols)]
    for i in reversed(range(len(pivots))):
        pc = pivots[i]
        x[pc] = -sum(rows[i][j] * x[j] for j in range(pc + 1, ncols)) / rows[i][pc]
    return x


def test_solves_on_a_moved_graph_keep_every_integer_in_lowest_terms():
    inst = corpus("cube-g")
    graph, xi = _moved(inst.graph, inst.xi, seed=2023)
    og = orient(graph, xi)
    assert og.is_index_increasing()
    systems = [(cohomology._thom_system(og, vid, direction), True)
               for vid in graph.vertex_ids() for direction in ("plus", "minus")]
    systems += [(cohomology._System(graph, d, graph.vertex_ids()), False) for d in range(4)]
    for system, is_thom in systems:
        if is_thom:
            matrix = [row + [b] for row, b in zip(system.rows, system.rhs)]
            (y, d), nullity = linalg.solve(system.rows, system.rhs)
            answers = [([-v for v in y] + [d], d, system.ncols)]
            assert nullity == 0
        else:
            matrix = system.rows
            pivots = linalg.echelon(matrix).pivot_cols
            free = [c for c in range(system.ncols) if c not in pivots]
            basis = linalg.nullspace(matrix, system.ncols)
            answers = [(y, d, col) for (y, d), col in zip(basis, free)]
            assert len(basis) == len(free)
        assert all(gcd(*row) == 1 for row in linalg.echelon(matrix).rows if any(row))
        for y, d, col in answers:
            assert gcd(d, *y) == 1
            assert [Fraction(v, d) for v in y] == bareiss_kernel_vector(matrix, col)


def test_corrupted_echelon_fails_back_substitution_naming_the_row(monkeypatch):
    # (A | b) for x + y = 1, x - y = 1, read off by back-substitution.
    ech = linalg.echelon([[1, 1, 1], [1, -1, 1]])
    assert ech.rows == [[1, 1, 1], [0, -1, 0]]
    real = linalg.echelon

    def corrupted(matrix):
        ech = real(matrix)
        ech.rows[0][0] = 4  # no longer an echelon form of (A | b)
        return ech

    monkeypatch.setattr(linalg, "echelon", corrupted)
    with pytest.raises(GkmError, match=r"^the solution fails row 0: A·y is 1, not 4$"):
        linalg.solve([[1, 1], [1, -1]], [1, 1])


# -- the kernel against the full-row Bareiss loop ---------------------------------

def ref_echelon(matrix):
    """Full-row Bareiss elimination (oracle): every row is scaled by the
    lcm of its denominators, and every nonzero row below the pivot gets
    the update across all columns, with no shortcut for zero entries."""
    rows, scales = [], []
    for r in matrix:
        scale = lcm(1, *(Fraction(x).denominator for x in r))
        rows.append([int(Fraction(x) * scale) for x in r])
        scales.append(scale)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols, sign, prev, pr = [], 1, 1, 0
    for pc in range(ncols):
        found = next((i for i in range(pr, nrows) if rows[i][pc] != 0), None)
        if found is None:
            continue
        if found != pr:
            rows[pr], rows[found] = rows[found], rows[pr]
            scales[pr], scales[found] = scales[found], scales[pr]
            sign = -sign
        piv = rows[pr][pc]
        for i in range(pr + 1, nrows):
            if all(x == 0 for x in rows[i]):
                continue
            factor = rows[i][pc]
            for j in range(ncols):
                rows[i][j] = (rows[i][j] * piv - factor * rows[pr][j]) // prev
        prev = piv
        pivot_cols.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivot_cols, sign, scales


def primitive(row):
    """``row`` divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g else list(row)


# Mostly zeros, so that rows vanish at pivot columns and whole rows vanish.
sparse_int = st.one_of(st.just(0), st.just(0), st.integers(-6, 6), big)
sparse_frac = st.one_of(st.just(0), sparse_int, entries)


def _sparse_matrix(entry):
    def rows(n):
        row = st.lists(entry, min_size=n, max_size=n)
        return st.lists(st.one_of(row, st.just([0] * n)), min_size=1, max_size=6)
    return st.integers(1, 6).flatmap(rows)


@settings(max_examples=150)
@given(st.one_of(_sparse_matrix(sparse_int), _sparse_matrix(sparse_frac)))
def test_echelon_matches_the_full_row_bareiss_loop(m):
    original = [list(r) for r in m]
    ech = linalg.echelon(m)
    ref_rows, ref_pivots, ref_sign, ref_scales = ref_echelon(m)
    assert (ech.pivot_cols, ech.swap_sign) == (ref_pivots, ref_sign)
    assert len(ech.rows) == len(ref_rows)
    for row, ref in zip(ech.rows, ref_rows):
        assert row in (primitive(ref), [-x for x in primitive(ref)])
    assert m == original  # the input is not mutated
    assert all(type(x) is int for row in ech.rows for x in row)
    if len(m) == len(m[0]):  # the last Bareiss pivot is the scaled determinant
        det = ref_rows[-1][-1] if len(ref_pivots) == len(m) else 0
        assert linalg.determinant(m) == Fraction(ref_sign * det, prod(ref_scales))


# -- the solution contract against Fraction Gauss-Jordan ---------------------------

def gauss_jordan(matrix, rhs=None):
    """Reduced row echelon form over Fraction (oracle), skipping zeros.

    Returns (particular solution with free variables 0, or None when
    inconsistent; kernel basis with one free variable 1 per vector)."""
    ncols = len(matrix[0])
    rows = [[Fraction(x) for x in r] + [Fraction(rhs[i] if rhs else 0)]
            for i, r in enumerate(matrix)]
    pivots = []
    for col in range(ncols):
        pr = len(pivots)
        found = next((i for i in range(pr, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[pr], rows[found] = rows[found], rows[pr]
        piv = rows[pr][col]
        rows[pr] = [x / piv for x in rows[pr]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != pr and f:
                rows[i] = [a - f * b if b else a for a, b in zip(row, rows[pr])]
        pivots.append(col)
    if any(r[ncols] for r in rows[len(pivots):]):
        particular = None
    else:
        particular = [Fraction(0)] * ncols
        for i, col in enumerate(pivots):
            particular[col] = rows[i][ncols]
    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(ncols)]
        for i, col in enumerate(pivots):
            v[col] = -rows[i][free]
        kernel.append(v)
    return particular, kernel


def _as_fractions(solution):
    y, d = solution
    assert type(d) is int and d > 0
    assert all(type(c) is int for c in y)
    return [Fraction(c, d) for c in y]


def assert_solution_contract(matrix, rhs):
    """solve and nullspace keep A·y == d·b and A·y == 0 with d > 0, and
    agree with Gauss-Jordan over Fraction."""
    particular, kernel = gauss_jordan(matrix, rhs)
    sol, nullity = linalg.solve(matrix, rhs)
    assert nullity == len(kernel)
    if particular is None:
        assert sol is None
    else:
        y, d = sol
        for row, b in zip(matrix, rhs):
            assert dot(row, y) == d * b
        assert _as_fractions(sol) == particular
    basis = linalg.nullspace(matrix, len(matrix[0]))
    for y, d in basis:
        for row in matrix:
            assert dot(row, y) == 0
    assert [_as_fractions(v) for v in basis] == kernel


@settings(max_examples=80)
@given(st.one_of(_sparse_matrix(sparse_int), _sparse_matrix(sparse_frac)), st.data())
def test_solve_and_nullspace_agree_with_gauss_jordan(m, data):
    rhs = data.draw(st.lists(sparse_frac, min_size=len(m), max_size=len(m)))
    assert_solution_contract(m, rhs)


@lru_cache(maxsize=None)
def _corpus_orientations():
    """Every corpus instance at its document covector and its first 3
    searched ones."""
    out = []
    for inst in map(corpus, corpus_names()):
        for xi in [inst.xi] + find_index_increasing_xi(inst.graph, count=3):
            out.append((inst.name, orient(inst.graph, xi)))
    return out


@pytest.mark.parametrize("name", corpus_names())
def test_thom_systems_keep_the_solution_contract(name):
    for inst_name, og in _corpus_orientations():
        if inst_name != name:
            continue
        g = og.graph
        for vid in g.vertex_ids():
            for direction in ("plus", "minus"):
                system = cohomology._thom_system(og, vid, direction)
                support = (og.ascending_reachable(vid) if direction == "plus"
                           else og.descending_reachable(vid))
                # vid's value is known: no columns and no normalization rows.
                assert system.unknowns == sorted(support - {vid})
                assert system.ncols == (system.degree + 1) * (len(support) - 1)
                assert len(system.rows) == len(system.rhs) == sum(
                    1 for e in g.edges if {e.first, e.second} & support)
                assert all(type(x) is int for row in system.rows for x in row)
                assert all(type(b) is int for b in system.rhs)
                assert_solution_contract(system.rows, system.rhs)


def test_every_solved_class_passes_the_congruence_check():
    # The classes element_from builds are not re-checked; the oracle agrees.
    for _, og in _corpus_orientations():
        g = og.graph
        for vid in g.vertex_ids():
            for direction in ("plus", "minus"):
                tau = cohomology.thom_class(og, vid, direction)
                assert cohomology._first_violation(g, tau.values) is None
                assert tau.value(vid) == euler_class(og, vid, direction)
        for d in range(g.valence + 1):
            for element in cohomology.basis(g, d):
                assert cohomology._first_violation(g, element.values) is None
                assert element.degree == d


def _flip_first_entry(monkeypatch, calls, reader):
    """Make the next answer of the linalg function ``reader`` (the one that
    reads ``solve``'s or ``nullspace``'s answer off the elimination) have
    y[0] one larger."""
    real = getattr(linalg, reader)

    def flipped(*args):
        y, d = real(*args)
        if not calls:
            y = [y[0] + 1] + y[1:]
        calls.append(args)
        return y, d

    monkeypatch.setattr(linalg, reader, flipped)


def test_a_flipped_solver_answer_is_a_gkm_error_naming_its_row(monkeypatch):
    inst = corpus("cp3-k4")
    og = orient(inst.graph, inst.xi)  # fresh: no class stored yet
    vid = og.o_vertex()
    system = cohomology._thom_system(og, vid, "plus")
    row = next(i for i, r in enumerate(system.rows) if r[0])
    calls = []
    _flip_first_entry(monkeypatch, calls, "_back_substitute")
    with pytest.raises(GkmError) as info:
        cohomology.thom_class(og, vid, "plus")
    assert type(info.value) is GkmError and calls
    assert str(info.value).startswith(f"the solution fails row {row}: ")
    monkeypatch.undo()
    tau = cohomology.thom_class(og, vid, "plus")  # nothing wrong was stored
    assert cohomology._first_violation(og.graph, tau.values) is None

    rows = cohomology._System(inst.graph, 1, inst.graph.vertex_ids()).rows
    row = next(i for i, r in enumerate(rows) if r[0])
    calls = []
    _flip_first_entry(monkeypatch, calls, "_kernel_vector")
    with pytest.raises(GkmError) as info:
        cohomology.basis(inst.graph, 1)
    assert type(info.value) is GkmError
    assert str(info.value).startswith(f"kernel vector 0 fails row {row}: ")


def test_a_thom_class_with_no_unknown_solves_or_is_infeasible(monkeypatch):
    # At the top vertex the plus support is the vertex alone: no columns,
    # and each edge row only asks the Euler factor to be divisible by its
    # weight.
    inst = corpus("cp3-k4")
    og = orient(inst.graph, inst.xi)
    r = og.r_vertex()
    system = cohomology._thom_system(og, r, "plus")
    assert system.ncols == 0 and len(system.rows) == 3 and system.rhs == [0, 0, 0]
    tau = cohomology.thom_class(og, r, "plus")
    assert tau.support() == {r} and tau.value(r) == euler_class(og, r, "plus")
    # A factor that a weight at r does not divide: that row's right-hand
    # side pivots.
    x1, x2 = Polynomial.variable(0), Polynomial.variable(1)
    og = orient(inst.graph, inst.xi)
    monkeypatch.setattr(cohomology, "euler_class", lambda *args: x1 ** 3 + x2 ** 3)
    assert any(cohomology._thom_system(og, r, "plus").rhs)
    with pytest.raises(Infeasible, match=f"no class with the required support exists for {r}"):
        cohomology.thom_class(og, r, "plus")
    # No edge at all: no rows and no columns, and the class is 1.
    monkeypatch.undo()
    point = GkmGraph(2, 0, [Vertex("o", Vector((0, 0)))], [])
    og = orient(point, Vector((1, 3)))
    system = cohomology._thom_system(og, "o", "plus")
    assert system.rows == system.rhs == [] and system.ncols == 0
    assert cohomology.thom_class(og, "o", "minus").value("o") == Polynomial.constant(1)
