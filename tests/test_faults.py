"""Fault injection: a corrupted orientation fails exactly the report checks
that should catch it, each with a detail naming what broke.

Each case corrupts one stored value or one function on a valid corpus
orientation.  The failing checks and their details are pinned as text.
``cycle-shapes``, ``pairing-identity`` and ``low-degree-vanishing`` are
tripped in ``tests/test_lefschetz.py``.
"""

import dataclasses

import pytest

from gkm import geometry, linalg
from gkm.corpus import corpus
from gkm.graph import orient
from gkm.lefschetz import coefficient_pairs, hard_lefschetz_report, mixed_hr2_matrix


def _first_index_two_vertex_loses_its_down_edge(og, monkeypatch):
    """The stored orientation gets a second vertex of down-degree 0."""
    og._down[og.vertices_of_index(1)[0]].clear()


def _no_classification_row(og, monkeypatch):
    monkeypatch.setattr(geometry, "_TABLE", {})


def _flip_first_adjacent_coefficient(og, monkeypatch):
    """The stored coefficient pairs, with the first nonzero coefficient negated."""
    pairs = coefficient_pairs(og)
    i = next(k for k, c in enumerate(pairs) if c.adjacent)
    pairs[i] = dataclasses.replace(pairs[i], thom_coefficient=-pairs[i].thom_coefficient)
    og._derived["coefficient_pairs"] = pairs


def _column_operation_kills_second_column(og, monkeypatch):
    """The stored 2x2 pairing matrix, with a[1][1] set so that the column
    operation a[1][1] + t0 * a[1][0], t0 = -a[0][1] / a[0][0], is zero."""
    a = mixed_hr2_matrix(og)
    a[1][1] = a[0][1] / a[0][0] * a[1][0]
    og._derived["mixed_hr2_matrix"] = a


def _negated_determinant(og, monkeypatch):
    determinant = linalg.determinant
    monkeypatch.setattr(linalg, "determinant", lambda matrix: -determinant(matrix))


_CASES = {
    "unique-extrema": ("cp3-k4", _first_index_two_vertex_loses_its_down_edge, {
        "unique-extrema": "expected a unique down-degree-0 vertex, found ['D', 'A']",
    }),
    "classify-type": ("cp3-k4", _no_classification_row, {
        "classify-type": "no classification row matches ('triangle', 4, True, 0)",
    }),
    "sign-conditions": ("cp3-k4", _flip_first_adjacent_coefficient, {
        "pairing-identity": "entry (B, A) = -1 but -coefficient*ratio = 1",
        "sign-conditions": "pair (A, B): same-side=True but coefficient -1",
    }),
    "column-independence": ("tol-d", _column_operation_kills_second_column, {
        "pairing-identity": "entry (q2, p1) = 8/45 but -coefficient*ratio = -3/5",
        "column-independence": "column operation with t0=1/3 leaves second combination 0",
    }),
    "type-g-determinant": ("cube-g", _negated_determinant, {
        "type-g-determinant": "permuted type (g) determinant does not match the 3-cycle formula",
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
