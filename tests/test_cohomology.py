"""Graph cohomology: membership, degree slices, Thom classes."""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkm import cohomology, linalg
from gkm.cohomology import (
    CohomologyElement,
    basis,
    equivariant_symplectic_class,
    monomials,
    slice_dimension,
    thom_class,
    unity,
)
from gkm.corpus import corpus, corpus_names
from gkm.errors import GkmError, NotAClass, PreconditionError, ScopeError
from gkm.graph import Edge, GkmGraph, Vertex, orient
from gkm.lefschetz import thom_coefficient
from gkm.localization import euler_class
from gkm.polynomial import Polynomial, Vector, congruent_mod_linear, lin_form

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


def is_class(graph, values):
    """Every edge congruence holds for a complete assignment."""
    return cohomology._first_violation(graph, values) is None


def graded_values(p, point):
    """Each nonzero homogeneous part's value at an integer point, by degree."""
    sums, den = p.graded_numerators(point)
    return {d: Fraction(s, den) for d, s in sums.items()}


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


def test_not_a_class_names_edge_degree_and_value(cp3):
    # omega plus x2^2 at A: the degree-1 parts still agree on every edge,
    # the degree-2 part at A is b^2 at the edge's point (a, b).
    values = dict(equivariant_symplectic_class(cp3).values)
    values["A"] = values["A"] + x2 * x2
    e, (a, b) = next((e, p) for e, p in zip(cp3.edges, cp3.edge_points())
                     if "A" in (e.first, e.second))
    sign = 1 if e.first == "A" else -1
    assert b != 0
    with pytest.raises(NotAClass) as info:
        CohomologyElement(cp3, values)
    assert str(info.value) == (
        f"edge congruence fails across {e}: the degree-2 part of "
        f"f({e.first}) - f({e.second}) is {sign * b * b} at {(a, b)}, not 0")


def test_values_at_unknown_vertices_are_a_precondition_error(cp3):
    with pytest.raises(PreconditionError, match="unknown vertices"):
        CohomologyElement(cp3, {"A": x1, "Z": x2})


def test_every_way_in_checks_once_and_ring_operations_never(monkeypatch):
    og = oriented("cp3-k4")  # a fresh orientation: no Thom class is stored yet
    g = og.graph
    checks = []
    real = cohomology._first_violation
    monkeypatch.setattr(cohomology, "_first_violation",
                        lambda *args: checks.append(args) or real(*args))
    f = equivariant_symplectic_class(g)
    assert len(checks) == 1
    assert CohomologyElement(g, f.values) == f
    assert len(checks) == 2
    h = thom_class(og, og.vertices_of_index(1)[0], "plus")
    assert len(checks) == 3
    thom_class(og, og.vertices_of_index(1)[0], "plus")  # stored, not solved again
    thom_class(og, og.r_vertex(), "minus")
    assert len(checks) == 4
    checks.clear()
    p = x1 * x2 + 3
    for result in (f + h, f - h, -f, f * h, 2 * f, Fraction(1, 3) * f, f * p,
                   f ** 2, unity(g), f + 1, 1 - f):
        assert isinstance(result, CohomologyElement)
    assert checks == []


def test_equivariant_symplectic_class_and_solver_output_are_checked():
    # A moment image that the edge weight does not follow.
    g = GkmGraph(2, 1, [Vertex("a", Vector((0, 0))), Vertex("b", Vector((1, 1)))],
                 [Edge("a", "b", Vector((1, 0)))])
    with pytest.raises(NotAClass, match="across a-b: the degree-1 part"):
        equivariant_symplectic_class(g)
    cp3 = corpus("cp3-k4").graph
    system = cohomology._System(cp3, 1, cp3.vertex_ids())
    coeffs = [0] * system.ncols
    n = len(system.monomials)
    coeffs[system.support.index("A") * n + system.monomials.index((1, 0))] = 1  # x1 at A only
    with pytest.raises(NotAClass, match="across A-"):
        system.element_from(coeffs, 1)


def test_stored_classes_are_read_only(cp3_oriented):
    g = cp3_oriented.graph
    om = equivariant_symplectic_class(g)
    tau = thom_class(cp3_oriented, "A", "plus")
    for element in (om, tau, om * tau):
        with pytest.raises(TypeError):
            element.values["A"] = x2 * x2
    assert equivariant_symplectic_class(g) is om
    assert om.value("A") == lin_form(g.mu("A")) and is_class(g, om.values)
    assert thom_class(cp3_oriented, "A", "plus") is tau and is_class(g, tau.values)


def test_elements_on_different_graphs_do_not_combine(cp3):
    other = GkmGraph(cp3.rank, cp3.valence, cp3.vertices, cp3.edges)
    with pytest.raises(PreconditionError, match="different graphs"):
        equivariant_symplectic_class(cp3) + equivariant_symplectic_class(other)


# -- the congruence test agrees with division -------------------------------------

@lru_cache(maxsize=None)
def corpus_classes(name):
    """Thom classes (both directions), omega and unity of an instance."""
    og = oriented(name)
    g = og.graph
    taus = [thom_class(og, v, d) for v in g.vertex_ids() for d in ("plus", "minus")]
    return g, taus + [equivariant_symplectic_class(g), unity(g)]


small_forms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4,
).map(lambda d: Polynomial(2, d))


@st.composite
def perturbed_assignments(draw, name):
    """A sum of corpus classes of several degrees (so values are mixed and
    non-homogeneous), with some vertex values moved by a multiple of one
    incident weight, which keeps that edge and may break the others, or
    by an arbitrary form."""
    g, classes = corpus_classes(name)
    picks = draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
    values = dict(sum(picks[1:], picks[0]).values)
    for vid in draw(st.lists(st.sampled_from(g.vertex_ids()), max_size=3)):
        extra = draw(small_forms)
        if draw(st.booleans()):
            e = draw(st.sampled_from(g.edges_at(vid)))
            extra = lin_form(e.weight) * extra
        values[vid] = values[vid] + extra
    return g, values


@pytest.mark.parametrize("name", corpus_names())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_point_test_agrees_with_division(name, data):
    g, values = data.draw(perturbed_assignments(name))
    failing = []
    for e, point in zip(g.edges, g.edge_points()):
        f, h = values[e.first], values[e.second]
        holds = congruent_mod_linear(f, h, lin_form(e.weight))
        assert (graded_values(f, point) == graded_values(h, point)) == holds
        if not holds:
            failing.append(e)
    assert is_class(g, values) == (not failing)
    if failing:
        with pytest.raises(NotAClass, match=f"across {failing[0]}:"):
            CohomologyElement(g, values)


def test_edge_points_are_primitive_perpendiculars():
    contents = set()
    for inst in map(corpus, corpus_names()):
        g = inst.graph
        for e, (a, b) in zip(g.edges, g.edge_points()):
            perp = e.weight.perp()
            assert gcd(a, b) == 1
            ratio = Vector((a, b)).parallel_ratio(perp)
            assert ratio is not None and ratio > 0
            contents.add(1 / ratio)
    assert {2, 3, 5, 6} <= contents  # tol-d's weights


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(corpus_names()), st.data())
def test_sums_differences_and_products_of_classes_are_classes(name, data):
    g, classes = corpus_classes(name)
    f, h = data.draw(st.lists(st.sampled_from(classes), min_size=2, max_size=2))
    k = data.draw(st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5,
                                                   max_denominator=6))
    p = data.draw(small_forms)
    for result in (f + h, f - h, f * h, k * f + h, f * (h - k), -f, f ** 2,
                   p * f, f + p, k - f):
        assert is_class(g, result.values)


# -- pointwise operations ---------------------------------------------------------

def test_additive_and_multiplicative_identities(cp3):
    om = equivariant_symplectic_class(cp3)
    assert om + 0 == om
    assert unity(cp3) * om == om


def test_powers_take_only_non_negative_int_exponents(cp3):
    om = equivariant_symplectic_class(cp3)
    assert om ** 0 == unity(cp3) and om ** 2 == om * om
    for n in (-1, 2.0, True, False):
        with pytest.raises(PreconditionError, match=f"exponent must be an int >= 0, got {n}"):
            om ** n


def test_unity_is_idempotent_thom_class(cp3_oriented):
    tau_o = thom_class(cp3_oriented, cp3_oriented.o_vertex(), "plus")
    assert tau_o == unity(cp3_oriented.graph)
    assert tau_o * tau_o == tau_o


# -- degree slices ----------------------------------------------------------------

def test_degree_zero_slice_is_constants(cp3):
    b = basis(cp3, 0)
    assert len(b) == 1
    assert b[0].degree == 0


@pytest.mark.parametrize("name", corpus_names())
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
            system = cohomology._System(g, 2, [vid])
            assert system.monomials == [(2, 0), (1, 1), (0, 2)]
            # Exactly the divisibility rows: each edge at vid gives the
            # monomials at its weight's primitive perpendicular, signed by
            # the end vid is on.
            divisibility = []
            for e in g.edges_at(vid):
                a, b = e.weight_from(vid).primitive_perp()
                sign = 1 if e.first == vid else -1
                divisibility.append([sign * a * a, sign * a * b, sign * b * b])
            assert sorted(system.rows) == sorted(divisibility)
            assert linalg.nullspace(system.rows, ncols=system.ncols) == []


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


def test_thom_class_unknown_direction_is_a_gkm_error(cp3_oriented):
    with pytest.raises(GkmError, match="direction must be 'plus' or 'minus', got 'up'"):
        thom_class(cp3_oriented, "A", "up")


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
    # multiple of the weight read from B toward D, the coefficient that
    # the degree-2 pairing formula reads.
    tau = thom_class(cp3_oriented, "A", "plus")
    edge = cp3_oriented.graph.edge_between("B", "D")
    form = lin_form(edge.weight_from("B"))
    assert tau.value("D").is_zero()
    k = tau.value("B").parallel_ratio(form)
    assert k * form == tau.value("B")
    assert k == 1
    assert thom_coefficient(cp3_oriented, "A", "B") == k


def test_degree_of_inhomogeneous_assignment_is_a_gkm_error(cp3_oriented):
    og, g = cp3_oriented, cp3_oriented.graph
    p = og.vertices_of_index(1)[0]
    mixed = thom_class(og, p, "minus") + thom_class(og, og.r_vertex(), "plus")
    with pytest.raises(GkmError, match="mixed degrees"):
        mixed.degree
    lumpy = unity(g) + equivariant_symplectic_class(g)
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
        assert shifted.value(tail).is_zero()
        assert shifted.value(head).parallel_ratio(lin_form(e.weight_from(head))) == -ratio


# -- monomial enumeration -----------------------------------------------------------

def test_monomials_graded_lex_order():
    assert monomials(2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(1) == [(1, 0), (0, 1)]
    assert monomials(0) == [(0, 0)]
    assert monomials(-1) == []


# -- rank-2 rows: divisibility is vanishing at the perpendicular ----------------------

binary_forms = st.integers(0, 3).flatmap(
    lambda d: st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1).map(
        lambda cs: Polynomial(2, {(d - i, i): c for i, c in enumerate(cs)})))
nonzero_weights = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(Vector).filter(
    lambda v: not v.is_zero())


@settings(max_examples=80)
@given(binary_forms, nonzero_weights, st.booleans())
def test_divisible_iff_vanishes_at_perpendicular(h, w, times_weight):
    g = lin_form(w) * h if times_weight else h
    assert congruent_mod_linear(g, 0, lin_form(w)) == (g.evaluate(w.perp()) == 0)


def test_systems_outside_rank_two_are_a_scope_error():
    # CP^3 with its standard T^3 action: a valid rank-3 moment graph.
    mu = {"A": (0, 0, 0), "B": (1, 0, 0), "C": (0, 1, 0), "D": (0, 0, 1)}
    names = sorted(mu)
    edges = [Edge(u, v, Vector(b - a for a, b in zip(mu[u], mu[v])))
             for i, u in enumerate(names) for v in names[i + 1:]]
    g = GkmGraph(3, 3, [Vertex(v, Vector(p)) for v, p in mu.items()], edges)
    assert g.validate().ok
    og = orient(g, Vector((1, 2, 4)))
    assert og.is_index_increasing()
    with pytest.raises(ScopeError):
        basis(g, 1)
    with pytest.raises(ScopeError):
        thom_class(og, "B", "plus")
    with pytest.raises(ScopeError):
        equivariant_symplectic_class(g)
