"""Graph cohomology: membership, degree slices, Thom classes."""

import re
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
    slice_dimension,
    thom_class,
    unity,
)
from gkm.corpus import corpus, corpus_names
from gkm.errors import DegreeError, GkmError, NotAClass, PreconditionError, ScopeError
from gkm.graph import Edge, GkmGraph, Vertex, orient
from gkm.lefschetz import thom_coefficient
from gkm.localization import euler_class
from gkm.polynomial import Polynomial, Vector, congruent_mod_linear, lin_form

x1 = Polynomial.variable(0)
x2 = Polynomial.variable(1)


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


# -- membership -----------------------------------------------------------------

def test_constant_assignment_is_class(cp3):
    c = Polynomial.constant(Fraction(5, 3))
    assert is_class(cp3, {v: c for v in cp3.vertex_ids()})


def test_moment_linear_forms_are_class(cp3):
    assert is_class(cp3, {v: lin_form(cp3.mu(v)) for v in cp3.vertex_ids()})


def test_single_vertex_linear_value_is_not_class(cp3):
    values = {v: Polynomial.zero() for v in cp3.vertex_ids()}
    values["A"] = x2
    assert not is_class(cp3, values)
    with pytest.raises(NotAClass):
        CohomologyElement(cp3, values)


def test_not_a_class_names_edge_degree_and_value(cp3):
    # omega^2 plus x2^2 at A: omega^2 agrees on every edge, and the extra
    # term at A is b^2 at the edge's point (a, b).
    values = dict((equivariant_symplectic_class(cp3) ** 2).values)
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


@pytest.mark.parametrize("values, message", [
    ({"A": 1}, "the value at A has type int, not Polynomial"),
    ({"A": x1, "B": "x1"}, "the value at B has type str, not Polynomial"),
    ([1], "expected a class or a mapping of vertex ids to polynomials, got list"),
    (0, "expected a class .*, got int"),
], ids=["int-value", "str-value", "list", "int"])
def test_values_that_are_not_polynomials_are_a_precondition_error(cp3, values, message):
    with pytest.raises(PreconditionError, match=message):
        CohomologyElement(cp3, values)


def test_mixed_degree_values_are_refused_on_construction(cp3):
    # x1 at A and x1^2 at B: each value is a form, but the class has no degree.
    with pytest.raises(DegreeError, match=r"class values have mixed degrees \[1, 2\]"):
        CohomologyElement(cp3, {"A": x1, "B": x1 * x1})


def test_a_class_plus_a_constant_is_a_degree_error(cp3):
    om = equivariant_symplectic_class(cp3)
    with pytest.raises(DegreeError, match="degrees 1 and 0"):
        om + 1
    assert om + 0 == om and (om * 0).degree is None


def test_every_way_in_checks_once_and_ring_operations_never(monkeypatch):
    # Values from outside meet _first_violation; a solved class meets the
    # check linalg runs on its solver answer, and nothing else.
    og = oriented("cp3-k4")  # a fresh orientation: no Thom class is stored yet
    g = og.graph
    checks, solver_checks = [], []
    real, real_solver = cohomology._first_violation, linalg._check
    monkeypatch.setattr(cohomology, "_first_violation",
                        lambda *args: checks.append(args) or real(*args))
    monkeypatch.setattr(linalg, "_check",
                        lambda *args: solver_checks.append(args) or real_solver(*args))
    f = equivariant_symplectic_class(g)
    assert len(checks) == 1
    assert CohomologyElement(g, f.values) == f
    assert len(checks) == 2
    h = thom_class(og, og.vertices_of_index(1)[0], "plus")
    assert len(solver_checks) == 1
    thom_class(og, og.vertices_of_index(1)[0], "plus")  # stored, not solved again
    thom_class(og, og.r_vertex(), "minus")
    assert len(solver_checks) == 2
    assert len(basis(g, 1)) == 3 and len(solver_checks) == 5
    assert len(checks) == 2
    checks.clear()
    solver_checks.clear()
    p = x1 * x2 + 3 * x2 ** 2
    for result in (f + h, f - h, -f, f * h, 2 * f, Fraction(1, 3) * f, f * p,
                   f ** 2, unity(g), f + x1, x2 - f):
        assert isinstance(result, CohomologyElement)
    with pytest.raises(DegreeError, match="degrees 1 and 0"):
        f + 1
    assert checks == [] and solver_checks == []


def test_equivariant_symplectic_class_and_solver_output_are_checked():
    # A moment image that the edge weight does not follow.
    g = GkmGraph(2, 1, [Vertex("a", Vector((0, 0))), Vertex("b", Vector((1, 1)))],
                 [Edge("a", "b", Vector((1, 0)))])
    with pytest.raises(NotAClass, match="across a-b: the degree-1 part"):
        equivariant_symplectic_class(g)
    # x1 at A only, offered as a solver answer: the check in linalg names
    # the first row it fails, and over every vertex row i is edge i, the
    # edge _first_violation names too.
    cp3 = corpus("cp3-k4").graph
    system = cohomology._System(cp3, 1, cp3.vertex_ids())
    coeffs = [0] * system.ncols
    coeffs[system.unknowns.index("A") * 2] = 1
    row = next(i for i, r in enumerate(system.rows) if r[system.unknowns.index("A") * 2])
    e = cp3.edges[row]
    zeros = [0] * len(system.rows)
    with pytest.raises(GkmError, match=f"fails row {row}: "):
        linalg._check(system.rows, zeros, (coeffs, 1), "x1 at A")
    element = system.element_from(coeffs, 1)  # trusted: element_from does not check
    assert cohomology._first_violation(cp3, element.values).startswith(
        f"edge congruence fails across {e}:")


def test_stored_classes_are_read_only(cp3_oriented):
    g = cp3_oriented.graph
    om = equivariant_symplectic_class(g)
    tau = thom_class(cp3_oriented, "A", "plus")
    for element in (om, tau, om * tau):
        with pytest.raises(TypeError):
            element.values["A"] = x2 * x2
    assert equivariant_symplectic_class(g).values is om.values
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


def small_forms(d):
    """Binary forms of degree d, or zero: terms with exponents (d - i, i)."""
    return st.dictionaries(
        st.integers(0, d).map(lambda i: (d - i, i)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4,
    ).map(Polynomial)


def classes_by_degree(name):
    """The corpus classes of an instance, keyed by their degree."""
    g, classes = corpus_classes(name)
    by_degree = {}
    for c in classes:
        by_degree.setdefault(c.degree, []).append(c)
    return g, by_degree


@st.composite
def perturbed_assignments(draw, name):
    """A sum of corpus classes of one drawn degree d, with some vertex
    values moved by a weight form of one incident edge times a form of
    degree d - 1, which keeps that edge and may break the others, or by an
    arbitrary form of degree d."""
    g, by_degree = classes_by_degree(name)
    d = draw(st.sampled_from(sorted(by_degree)))
    picks = draw(st.lists(st.sampled_from(by_degree[d]), min_size=1, max_size=3))
    values = dict(sum(picks[1:], picks[0]).values)
    for vid in draw(st.lists(st.sampled_from(g.vertex_ids()), max_size=3)):
        if d and draw(st.booleans()):
            e = draw(st.sampled_from(g.edges_at(vid)))
            extra = lin_form(e.weight) * draw(small_forms(d - 1))
        else:
            extra = draw(small_forms(d))
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
        assert (f.evaluate(point) == h.evaluate(point)) == holds
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
            point = Vector((a, b))
            assert point.cross(perp) == 0 and point.dot(perp) > 0
            contents.add(perp.dot(perp) / point.dot(perp))
    assert {2, 3, 5, 6} <= contents  # tol-d's weights


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(corpus_names()), st.data())
def test_sums_differences_and_products_of_classes_are_classes(name, data):
    # f and h share a degree d, so they and the constant class of a form p
    # of degree d can be added; the class c, of any degree, multiplies.
    g, by_degree = classes_by_degree(name)
    d = data.draw(st.sampled_from(sorted(by_degree)))
    f, h = data.draw(st.lists(st.sampled_from(by_degree[d]), min_size=2, max_size=2))
    c = data.draw(st.sampled_from(corpus_classes(name)[1]))
    k = data.draw(st.integers(-5, 5) | st.fractions(min_value=-5, max_value=5,
                                                   max_denominator=6))
    p = data.draw(small_forms(d))
    q = data.draw(small_forms(data.draw(st.integers(0, 2))))
    for result in (f + h, f - h, f * c, k * f + h, c * (h - k * f), -f, f ** 2,
                   q * f, f + p, p - f):
        assert is_class(g, result.values)
    if d:
        with pytest.raises(DegreeError, match=f"degrees {d} and 0"):
            f + 1


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


@pytest.mark.parametrize("degree", [1.0, "a", True, False, -1, None, Fraction(1)])
@pytest.mark.parametrize("call", [basis, slice_dimension])
def test_a_slice_degree_that_is_not_an_int_at_least_0_is_a_degree_error(cp3, call, degree):
    # True == 1 and hashes alike, so the check comes before the store lookup:
    # a stored degree-1 dimension must not answer for True.
    slice_dimension(cp3, 1)
    message = f"degree must be an int >= 0, got {degree!r}"
    with pytest.raises(DegreeError, match=re.escape(message)):
        call(cp3, degree)


def test_no_degree_two_class_supported_on_one_vertex():
    # A nonzero degree-2 class cannot live on a single vertex of a 3-valent
    # graph: its value would need three pairwise independent linear factors.
    for inst in map(corpus, corpus_names()):
        g = inst.graph
        for vid in g.vertex_ids():
            system = cohomology._System(g, 2, [vid])
            assert system.ncols == 3
            # Exactly the divisibility rows: each edge at vid gives the
            # power row x1^2, x1*x2, x2^2 at its weight's primitive
            # perpendicular, signed by the end vid is on.
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


def test_an_euler_factor_of_another_degree_is_a_degree_error():
    # cp3-k4 without the edge A-B is 3-valent by declaration only.  At
    # (0, 1) it is index-increasing, and A has one ascending edge, so its
    # minus Euler factor has degree 1 where the class has degree 3 - 1 = 2.
    # In three_up_edges_graph, o has four ascending edges and degree 3 - 0.
    from test_graph import three_up_edges_graph

    cp3 = corpus("cp3-k4").graph
    g = GkmGraph(2, 3, cp3.vertices,
                 [e for e in cp3.edges if {e.first, e.second} != {"A", "B"}])
    og = orient(g, Vector((0, 1)))
    assert og.is_index_increasing()
    with pytest.raises(DegreeError, match="minus Euler factor at A has degree 1, "
                                          "but its Thom class has degree 2"):
        thom_class(og, "A", "minus")
    with pytest.raises(DegreeError, match="minus Euler factor at o has degree 4, "
                                          "but its Thom class has degree 3"):
        thom_class(three_up_edges_graph(), "o", "minus")


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
    # A class carries its degree, so a sum of classes of two degrees is
    # refused at once, even with disjoint supports; so is the checked
    # constructor on their values together, and a sum of two forms of
    # different degrees.
    og, g = cp3_oriented, cp3_oriented.graph
    p = og.vertices_of_index(1)[0]
    minus, plus = thom_class(og, p, "minus"), thom_class(og, og.r_vertex(), "plus")
    assert not minus.support() & plus.support()
    with pytest.raises(GkmError, match="mixed degrees"):
        minus + plus
    with pytest.raises(DegreeError, match="degrees 3 and 2"):
        plus - minus
    mixed = {v: minus.value(v) + plus.value(v) for v in g.vertex_ids()}
    with pytest.raises(DegreeError, match=r"class values have mixed degrees \[2, 3\]"):
        CohomologyElement(g, mixed)
    with pytest.raises(DegreeError, match="degrees 0 and 1"):
        unity(g) + equivariant_symplectic_class(g)


def test_a_class_keeps_the_degree_it_was_made_with(cp3_oriented):
    og, g = cp3_oriented, cp3_oriented.graph
    om, tau = equivariant_symplectic_class(g), thom_class(og, "A", "plus")
    assert (unity(g).degree, om.degree, tau.degree) == (0, 1, og.down_degree("A"))
    assert (om * tau).degree == 1 + tau.degree and (-om).degree == 1
    assert (om + om).degree == 1 and (om ** 3).degree == 3
    # The zero class has no degree, as the zero form has none.
    assert (om - om).degree is None and (om * 0).degree is None
    assert ((om - om) + 1).degree == 0 and (om * (om - om)).degree is None


def test_scalar_multiple_of_shifted_symplectic(cp3_oriented):
    # omega~ - mu(tail) vanishes at the tail; the scalar against the weight
    # read from the head toward the tail is minus the moment ratio.
    g = cp3_oriented.graph
    om = equivariant_symplectic_class(g)
    for e in g.edges:
        up = e.weight.dot(cp3_oriented.xi) > 0
        tail, head = (e.first, e.second) if up else (e.second, e.first)
        shifted = om - lin_form(g.mu(tail))
        step, w = g.mu(head) - g.mu(tail), e.weight_from(tail)
        assert step.cross(w) == 0
        ratio = step.dot(w) / w.dot(w)
        assert shifted.value(tail).is_zero()
        assert shifted.value(head).parallel_ratio(lin_form(e.weight_from(head))) == -ratio


# -- rank-2 rows: divisibility is vanishing at the perpendicular ----------------------

binary_forms = st.integers(0, 3).flatmap(
    lambda d: st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1).map(
        lambda cs: Polynomial({(d - i, i): c for i, c in enumerate(cs)})))
nonzero_weights = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(Vector).filter(
    lambda v: not v.is_zero())


@settings(max_examples=80)
@given(binary_forms, nonzero_weights, st.booleans())
def test_divisible_iff_vanishes_at_perpendicular(h, w, times_weight):
    g = lin_form(w) * h if times_weight else h
    assert congruent_mod_linear(g, 0, lin_form(w)) == (g.evaluate(w.perp()) == 0)


def test_systems_outside_rank_two_are_a_scope_error():
    # CP^3 with its standard T^3 action is a rank-3 moment graph.  None of its
    # data can be built, so no cohomology function is ever handed such a system.
    mu = {"A": (0, 0, 0), "B": (1, 0, 0), "C": (0, 1, 0), "D": (0, 0, 1)}
    for p in mu.values():
        with pytest.raises(ScopeError, match="rank 2"):
            Vector(p)
    cp3 = corpus("cp3-k4").graph
    with pytest.raises(ValueError, match="rank must be 2"):
        GkmGraph(3, 3, cp3.vertices, cp3.edges)
    with pytest.raises(ScopeError, match="rank 2"):
        orient(cp3, (1, 2, 4))
