"""Graph cohomology: membership, degree slices, Thom classes."""

from fractions import Fraction
from math import comb

import pytest

from gkm.cohomology import (
    CohomologyElement,
    basis,
    equivariant_symplectic_class,
    is_class,
    monomials,
    scalar_multiple_of_weight,
    slice_dimension,
    thom_class,
    unity,
    zero_class,
)
from gkm.corpus import corpus, corpus_names
from gkm.errors import GkmError, NotAClass
from gkm.graph import orient
from gkm.localization import euler_class
from gkm.polynomial import Polynomial, Vector, lin_form

x1 = Polynomial.variable(2, 0)
x2 = Polynomial.variable(2, 1)


@pytest.fixture(scope="module")
def cp3():
    return corpus("cp3-k4").graph


@pytest.fixture(scope="module")
def cp3_oriented(cp3):
    return orient(cp3, Vector((1, 3)))


def oriented(name):
    inst = corpus(name)
    return orient(inst.graph, inst.xi)


# -- membership -----------------------------------------------------------------

def test_constant_assignment_is_class(cp3):
    c = Polynomial.constant(2, Fraction(5, 3))
    assert is_class(cp3, {v: c for v in cp3.vertex_ids()})


def test_moment_linear_forms_are_class(cp3):
    assert is_class(cp3, {v: lin_form(cp3.mu(v)) for v in cp3.vertex_ids()})


def test_single_vertex_linear_value_is_not_class(cp3):
    values = {v: Polynomial.zero(2) for v in cp3.vertex_ids()}
    values["A"] = x2
    assert not is_class(cp3, values)
    with pytest.raises(NotAClass):
        CohomologyElement(cp3, values)


# -- pointwise operations ---------------------------------------------------------

def test_additive_and_multiplicative_identities(cp3):
    om = equivariant_symplectic_class(cp3)
    assert om + zero_class(cp3) == om
    assert unity(cp3) * om == om


def test_unity_is_idempotent_thom_class(cp3_oriented):
    tau_o = thom_class(cp3_oriented, cp3_oriented.o_vertex(), "plus")
    assert tau_o == unity(cp3_oriented.graph)
    assert tau_o * tau_o == tau_o


# -- degree slices ----------------------------------------------------------------

def test_degree_zero_slice_is_constants(cp3):
    b = basis(cp3, 0)
    assert len(b) == 1
    assert b[0].degree == 0


@pytest.mark.parametrize("name", ["cp3-k4", "flag-su3"])
def test_hilbert_series_dimensions(name):
    og = oriented(name)
    g = og.graph
    for d in range(0, 5):
        expected = sum(
            comb(d - og.down_degree(v) + 1, 1)
            for v in g.vertex_ids()
            if d - og.down_degree(v) >= 0
        )
        elements = basis(g, d)
        assert len(elements) == expected, f"{name} degree {d}"
        assert slice_dimension(g, d) == expected
        for el in elements:
            assert el.degree in (d, None)


def test_cp3_low_degree_dimensions(cp3):
    assert slice_dimension(cp3, 1) == 3
    assert slice_dimension(cp3, 2) == 6


def test_no_degree_two_class_supported_on_one_vertex():
    # A nonzero degree-2 class cannot live on a single vertex of a 3-valent
    # graph: its value would need three pairwise independent linear factors.
    for inst in map(corpus, corpus_names()):
        g = inst.graph
        for vid in g.vertex_ids():
            weights = [e.weight_from(vid) for e in g.edges_at(vid)]
            rows = []
            from gkm.cohomology import _System

            system = _System(g, 2, [vid])
            for w in weights:
                system.add_divisibility(vid, w)
            from gkm import linalg

            assert linalg.nullspace(system.rows, ncols=len(system.columns)) == []


# -- Thom classes -------------------------------------------------------------------

def test_cp3_thom_class_of_A_matches_hand_solve(cp3_oriented):
    tau = thom_class(cp3_oriented, "A", "plus")
    assert tau.value("A") == -x1 - 2 * x2
    assert tau.value("B") == -2 * x1 - 2 * x2
    assert tau.value("C") == -x1 - 3 * x2
    assert tau.value("D").is_zero()


def test_thom_class_at_top_vertex(cp3_oriented):
    r = cp3_oriented.r_vertex()
    tau = thom_class(cp3_oriented, r, "plus")
    assert tau.support() == {r}
    assert tau.value(r) == euler_class(cp3_oriented, r, "plus")


def test_thom_postconditions_everywhere():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        n = inst.graph.valence
        for vid in inst.graph.vertex_ids():
            for direction in ("plus", "minus"):
                tau = thom_class(og, vid, direction)
                d = og.down_degree(vid)
                expected_degree = d if direction == "plus" else n - d
                reach = (og.ascending_reachable(vid) if direction == "plus"
                         else og.descending_reachable(vid))
                assert tau.degree in (expected_degree, None)
                assert tau.support() <= reach
                assert tau.value(vid) == euler_class(
                    og, vid, "plus" if direction == "plus" else "minus"
                )


def test_thom_duality_under_reversed_covector():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        rev = orient(inst.graph, -inst.xi)
        for vid in inst.graph.vertex_ids():
            assert thom_class(og, vid, "plus").values == \
                thom_class(rev, vid, "minus").values


def test_thom_uniqueness_breaks_without_index_increasing():
    # tol-d under (1,3) is generic but not index-increasing; the solver must
    # refuse rather than produce something unverified.
    inst = corpus("tol-d")
    og = orient(inst.graph, Vector((1, 3)))
    from gkm.errors import NotIndexIncreasing

    with pytest.raises(NotIndexIncreasing):
        thom_class(og, "p1", "plus")


# -- equivariant symplectic class ------------------------------------------------

def test_symplectic_class_values(cp3):
    om = equivariant_symplectic_class(cp3)
    assert om.value("D") == -x1 - 2 * x2


def test_symplectic_shift_vanishes_at_base(cp3):
    om = equivariant_symplectic_class(cp3)
    for p in cp3.vertex_ids():
        shifted = om - lin_form(cp3.mu(p))
        assert shifted.value(p).is_zero()


def test_translation_changes_symplectic_class_by_constant(cp3):
    from gkm.graph import GkmGraph, Vertex

    shift = Vector((7, -2))
    moved = GkmGraph(
        cp3.rank, cp3.valence,
        [Vertex(v.id, v.mu + shift) for v in cp3.vertices],
        cp3.edges,
    )
    om0 = equivariant_symplectic_class(cp3)
    om1 = equivariant_symplectic_class(moved)
    delta = lin_form(shift)
    for v in cp3.vertex_ids():
        assert om1.value(v) == om0.value(v) + delta


# -- scalar extraction -------------------------------------------------------------

def test_scalar_multiple_across_edge(cp3_oriented):
    # tau_A^+ vanishes at D; across the B-D edge its value at B is a
    # multiple of the weight read from B toward D.
    tau = thom_class(cp3_oriented, "A", "plus")
    edge = cp3_oriented.graph.edge_between("B", "D")
    k = scalar_multiple_of_weight(tau, edge)
    assert k * lin_form(edge.weight_from("B")) == tau.value("B")
    assert k == 1


def test_scalar_multiple_zero_for_doubly_vanishing(cp3_oriented):
    tau_r = thom_class(cp3_oriented, "C", "plus")  # supported on {C}
    edge = cp3_oriented.graph.edge_between("A", "B")
    assert scalar_multiple_of_weight(tau_r, edge) == 0


def test_scalar_multiple_requires_a_vanishing_endpoint(cp3_oriented):
    om = equivariant_symplectic_class(cp3_oriented.graph)
    shifted = om - lin_form(Vector((5, 5)))  # vanishes nowhere on cp3-k4
    edge = cp3_oriented.graph.edge_between("A", "B")
    with pytest.raises(ValueError):
        scalar_multiple_of_weight(shifted, edge)
    with pytest.raises(GkmError, match="vanishes at neither endpoint"):
        scalar_multiple_of_weight(shifted, edge)


def test_scalar_multiple_requires_a_degree_one_class(cp3_oriented):
    tau_top = thom_class(cp3_oriented, "C", "plus")  # degree 3, vanishes at A
    edge = cp3_oriented.graph.edge_between("A", "C")
    with pytest.raises(GkmError, match="degree-1"):
        scalar_multiple_of_weight(tau_top, edge)


def test_degree_of_inhomogeneous_assignment_is_a_gkm_error(cp3):
    mixed = CohomologyElement(cp3, {"A": x1, "B": x1 * x2}, check=False)
    with pytest.raises(GkmError, match="mixed degrees"):
        mixed.degree
    lumpy = CohomologyElement(cp3, {"A": x1 + x1 * x2}, check=False)
    with pytest.raises(GkmError, match="not homogeneous"):
        lumpy.degree


def test_scalar_multiple_of_shifted_symplectic(cp3_oriented):
    # omega~ - mu(tail) vanishes at the tail; the scalar against the weight
    # read from the head toward the tail is minus the moment ratio.
    g = cp3_oriented.graph
    om = equivariant_symplectic_class(g)
    for e in g.edges:
        tail, head = cp3_oriented.tail(e), cp3_oriented.head(e)
        shifted = om - lin_form(g.mu(tail))
        ratio = (g.mu(head) - g.mu(tail)).parallel_ratio(e.weight_from(tail))
        assert scalar_multiple_of_weight(shifted, e) == -ratio


# -- monomial enumeration -----------------------------------------------------------

def test_monomials_graded_lex_order():
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
