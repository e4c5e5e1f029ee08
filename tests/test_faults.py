"""Fault injection: a corrupted orientation fails exactly the report checks
that should catch it, each with a detail naming what broke.

Each case corrupts one stored value or one function on a valid corpus
orientation.  The failing checks and their details are pinned as text.
The rows here trip ``unique-extrema``, ``betti-structure``,
``index-two-adjacent-o``, ``index-four-adjacent-r``, ``classify-type``,
``coefficient-pairs``, ``sign-conditions`` (twice: its side-of-line
criterion, and alone its convex-cycle positivity, on a concave cycle
relabelled convex), ``column-independence``, ``type-g-determinant``,
``hr-determinants`` (naming the failing entry), ``kronecker-pairing`` and
``hr2-mixed-equivalence``; the last two are north-star cross-checks, and
each catches a corruption that every other check misses.  ``cycle-shapes``, ``pairing-identity`` and
``low-degree-vanishing`` are tripped in ``tests/test_lefschetz.py``.
``six-dim-scope`` needs no corruption: tol-d has generic covectors that
are not index-increasing, and the report stops at that check.

On consistent data the two adjacency checks are implied by the checks
that stop the report before them.  On an index-increasing orientation an
index-two vertex has one down-neighbour, of index 0, which is o once
``unique-extrema`` holds; likewise an index-four vertex's one up-neighbour
is r.  So their rows corrupt the graph's adjacency lookup for one edge.
The edge from r lies on an ascending cycle, so the cycle checks fail with
``index-four-adjacent-r``: nothing trips it alone.
"""

import dataclasses
from fractions import Fraction
from types import MappingProxyType

import pytest

from gkm import geometry, lefschetz, linalg
from gkm.cohomology import equivariant_symplectic_class, thom_class
from gkm.corpus import corpus
from gkm.graph import orient
from gkm.lefschetz import coefficient_pairs, hard_lefschetz_report, mixed_hr2_matrix
from gkm.polynomial import Polynomial, Vector


def _first_index_two_vertex_loses_its_down_edge(og, monkeypatch):
    """The stored orientation gets a second vertex of down-degree 0."""
    og._down[og.vertices_of_index(1)[0]].clear()


def _unequal_middle_betti_numbers(og, monkeypatch):
    b0, b1, b2, b3 = og.betti()
    monkeypatch.setattr(og, "betti", lambda: (b0, b1, b2 + 1, b3))


def _adjacency_lookup_misses(og, monkeypatch, u, v):
    """The graph's adjacency lookup, with the edge u-v missing."""
    adjacent = og.graph.adjacent
    monkeypatch.setattr(og.graph, "adjacent", lambda a, b: {a, b} != {u, v} and adjacent(a, b))


def _first_index_two_vertex_misses_o(og, monkeypatch):
    _adjacency_lookup_misses(og, monkeypatch, og.vertices_of_index(1)[0], og.o_vertex())


def _first_index_four_vertex_misses_r(og, monkeypatch):
    _adjacency_lookup_misses(og, monkeypatch, og.vertices_of_index(2)[0], og.r_vertex())


def _nonzero_coefficient_on_a_pair_not_adjacent(og, monkeypatch):
    """thom_coefficient, 1 on the first (index-two, index-four) pair that is not adjacent."""
    pair = next((p, q) for p in og.vertices_of_index(1) for q in og.vertices_of_index(2)
                if not og.graph.adjacent(p, q))
    thom_coefficient = lefschetz.thom_coefficient
    monkeypatch.setattr(lefschetz, "thom_coefficient", lambda og, p, q: (
        Fraction(1) if (p, q) == pair else thom_coefficient(og, p, q)))


def _no_classification_row(og, monkeypatch):
    monkeypatch.setattr(geometry, "_TABLE", {})


def _flip_first_adjacent_coefficient(og, monkeypatch):
    """The stored coefficient pairs, with the first nonzero coefficient negated."""
    pairs = coefficient_pairs(og)
    i = next(k for k, c in enumerate(pairs) if c.adjacent)
    pairs[i] = dataclasses.replace(pairs[i], thom_coefficient=-pairs[i].thom_coefficient)
    og._derived["coefficient_pairs"] = pairs


def _concave_cycle_relabelled_convex(og, monkeypatch):
    """The stored cycle shapes, with p1's concave cycle labelled convex."""
    shapes = lefschetz._cycle_shapes(og)
    shapes["p1"] = dataclasses.replace(shapes["p1"], tetra_class="convex")
    og._derived["cycle_shapes"] = shapes


def _column_operation_kills_second_column(og, monkeypatch):
    """The stored 2x2 pairing matrix, with a[1][1] set so that the column
    operation a[1][1] + t0 * a[1][0], t0 = -a[0][1] / a[0][0], is zero."""
    a = mixed_hr2_matrix(og)
    a[1][1] = a[0][1] / a[0][0] * a[1][0]
    og._derived["mixed_hr2_matrix"] = a


def _doubled_bottom_minus_thom_class(og, monkeypatch):
    """The stored tau_o^-, o the bottom vertex, times 2."""
    key = ("thom", og.o_vertex(), "minus")
    og._derived[key] = 2 * thom_class(og, *key[1:])


def _zero_degree_two_pairing(og, monkeypatch):
    """hr_matrix with every degree-2 entry 0: the plus-basis pairing looks singular."""
    hr_matrix = lefschetz.hr_matrix
    monkeypatch.setattr(lefschetz, "hr_matrix", lambda og, k: [
        [Fraction(0)] * len(row) if k == 2 else row for row in hr_matrix(og, k)])


def _moved_symplectic_value_at_top(og, monkeypatch):
    """The stored values of omega, with x1 added at the top vertex: no
    longer a class, so its localization sums are not constants."""
    values = dict(equivariant_symplectic_class(og.graph).values)
    values[og.r_vertex()] += Polynomial.variable(0)
    og.graph._derived["omega"] = MappingProxyType(values)


def _negated_determinant(og, monkeypatch):
    determinant = linalg.determinant
    monkeypatch.setattr(linalg, "determinant", lambda matrix: -determinant(matrix))


_CASES = {
    "unique-extrema": ("cp3-k4", _first_index_two_vertex_loses_its_down_edge, {
        "unique-extrema": "expected a unique down-degree-0 vertex, found ['D', 'A']",
    }),
    "betti-structure": ("cp3-k4", _unequal_middle_betti_numbers, {
        "betti-structure": "betti (1, 1, 2, 1) incompatible with vertex count",
    }),
    "index-two-adjacent-o": ("cp3-k4", _first_index_two_vertex_misses_o, {
        "index-two-adjacent-o": "an index-two vertex misses the bottom vertex",
    }),
    "index-four-adjacent-r": ("cp3-k4", _first_index_four_vertex_misses_r, {
        "index-four-adjacent-r": "an index-four vertex misses the top vertex",
        "classify-type": "cycle edge B-C missing from the graph",
        "cycle-shapes": "cycle edge B-C missing from the graph",
        "sign-conditions": "cycle edge B-C missing from the graph",
    }),
    "coefficient-pairs": ("cp1xcp2", _nonzero_coefficient_on_a_pair_not_adjacent, {
        "coefficient-pairs": "pair (100, 001): adjacency False, ratio 0, coefficient 1 "
                             "violate the nonzero biconditional",
        "pairing-identity": "pair (100, 001): adjacency False, ratio 0, coefficient 1 "
                            "violate the nonzero biconditional",
        "sign-conditions": "pair (100, 001): adjacency False, ratio 0, coefficient 1 "
                           "violate the nonzero biconditional",
    }),
    "classify-type": ("cp3-k4", _no_classification_row, {
        "classify-type": "no classification row matches ('triangle', 4, True, 0)",
    }),
    "sign-conditions": ("cp3-k4", _flip_first_adjacent_coefficient, {
        "pairing-identity": "entry (B, A) = -1 but -coefficient*ratio = 1",
        "sign-conditions": "pair (A, B): same-side=True but coefficient -1",
    }),
    "convex-cycle-positivity": ("tol-d", _concave_cycle_relabelled_convex, {
        "sign-conditions": "convex cycle at p1 but coefficient at q1 is -3/5",
    }),
    "column-independence": ("tol-d", _column_operation_kills_second_column, {
        "pairing-identity": "entry (q2, p1) = 8/45 but -coefficient*ratio = -3/5",
        "column-independence": "column operation with t0=1/3 leaves second combination 0",
    }),
    "type-g-determinant": ("cube-g", _negated_determinant, {
        "type-g-determinant": "permuted type (g) determinant does not match the 3-cycle formula",
    }),
    "hr-determinants": ("cp3-k4", _moved_symplectic_value_at_top, {
        "hr-determinants": "degree-0 entry (D, D): localization sum did not reduce "
                           "to a constant",
    }),
    "kronecker-pairing": ("cp3-k4", _doubled_bottom_minus_thom_class, {
        "kronecker-pairing": "pairing of D, D gave 2",
    }),
    "hr2-mixed-equivalence": ("cp3-k4", _zero_degree_two_pairing, {
        "hr2-mixed-equivalence": "mixed determinant -1 and plus-basis degree-2 "
                                 "determinant 0 disagree on nonsingularity",
    }),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_a_corruption_fails_exactly_the_checks_that_catch_it(case, monkeypatch):
    name, corrupt, expected = _CASES[case]
    inst = corpus(name)
    og = orient(inst.graph, inst.xi)
    corrupt(og, monkeypatch)
    report = hard_lefschetz_report(og)
    assert {c["name"]: c["detail"] for c in report.checks if not c["ok"]} == expected
    assert not report.ok


def test_a_covector_that_is_not_index_increasing_stops_the_report_at_six_dim_scope():
    og = orient(corpus("tol-d").graph, Vector((-7, -6)))
    report = hard_lefschetz_report(og)
    assert report.checks == [{"name": "six-dim-scope", "ok": False,
                              "detail": "orientation is not index-increasing"}]
    assert not report.index_increasing and not report.ok
