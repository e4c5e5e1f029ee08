"""Fixed-point localization: Euler data, exact integrals, vanishing sums."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkm import lefschetz, localization
from gkm.cohomology import (
    basis,
    equivariant_symplectic_class,
    thom_class,
    unity,
)
from gkm.corpus import corpus, corpus_names
from gkm.errors import (
    DegreeError,
    GkmError,
    NonConstant,
    NonZero,
    PreconditionError,
    ScopeError,
)
from gkm.graph import Edge, GkmGraph, Vertex, find_index_increasing_xi, orient
from gkm.localization import (
    check_low_degree_vanishing,
    euler_class,
    evaluation_points,
    integrate,
    sum_at_point,
)
from gkm.polynomial import Polynomial, Vector, lin_form


def oriented(name):
    inst = corpus(name)
    return orient(inst.graph, inst.xi)


@pytest.fixture(scope="module")
def cp3():
    return oriented("cp3-k4")


# -- Euler classes -----------------------------------------------------------------

def test_empty_products_at_extremes(cp3):
    one = Polynomial.constant(1)
    assert euler_class(cp3, cp3.o_vertex(), "plus") == one
    assert euler_class(cp3, cp3.r_vertex(), "minus") == one


def test_euler_class_at_D_matches_outward_weights(cp3):
    expected = (
        lin_form(Vector((1, 2)))
        * lin_form(Vector((2, 2)))
        * lin_form(Vector((1, 3)))
    )
    assert euler_class(cp3, "D", "full") == expected


def test_euler_class_unknown_variant_is_a_gkm_error(cp3):
    with pytest.raises(GkmError, match="got 'half'"):
        euler_class(cp3, "A", "half")


def test_euler_factorization_everywhere():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        for v in inst.graph.vertex_ids():
            assert euler_class(og, v, "full") == \
                euler_class(og, v, "plus") * euler_class(og, v, "minus")


# -- integrate ----------------------------------------------------------------------

def test_integrate_top_thom_class_is_one():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        tau_r = thom_class(og, og.r_vertex(), "plus")
        assert integrate(og, tau_r) == 1


def test_integrate_symplectic_cube_cp3(cp3):
    # Oracle first: the localization sum evaluated at two generic rational
    # points.  Both give -1, so -1 is the frozen expected value; the exact
    # quotient must agree.  (|value| = 3! * unit-simplex volume = 1; the
    # sign is forced by the outward-weight Euler convention.)
    om = equivariant_symplectic_class(cp3.graph)
    cube = om * om * om
    pts = evaluation_points(cp3, count=2)
    oracle = {sum_at_point(cp3, cube, p) for p in pts}
    assert oracle == {Fraction(-1)}
    assert integrate(cp3, cube) == -1


def test_evaluation_points_count_zero_is_empty_and_negative_is_a_precondition_error(cp3):
    assert evaluation_points(cp3, count=0) == []
    with pytest.raises(PreconditionError, match="count must be >= 0, got -2"):
        evaluation_points(cp3, count=-2)


@pytest.mark.parametrize("count", [1.5, Fraction(2), True, "2"])
def test_evaluation_points_count_must_be_an_int(cp3, count):
    message = re.escape(f"count must be an int, got {count!r}")
    with pytest.raises(PreconditionError, match=message):
        evaluation_points(cp3, count=count)


def test_integrate_kronecker_pairing():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        ids = inst.graph.vertex_ids()
        for v in ids:
            for w in ids:
                if og.down_degree(v) != og.down_degree(w):
                    continue
                value = integrate(
                    og, thom_class(og, v, "plus") * thom_class(og, w, "minus")
                )
                assert value == (1 if v == w else 0), (inst.name, v, w)


def test_integrate_is_linear(cp3):
    om = equivariant_symplectic_class(cp3.graph)
    tau = thom_class(cp3, "A", "plus")
    f = om * om * om
    g = tau * thom_class(cp3, "A", "minus")
    a, b = Fraction(3, 7), Fraction(-5, 2)
    assert integrate(cp3, a * f + b * g) == a * integrate(cp3, f) + b * integrate(cp3, g)


def test_integrate_degree_error(cp3):
    om = equivariant_symplectic_class(cp3.graph)
    with pytest.raises(DegreeError):
        integrate(cp3, om)


def test_integrate_rejects_a_sum_that_is_not_constant(cp3):
    # A top-degree assignment that is no class: its localization numerator
    # is no rational multiple of prod_v nu_v.
    x1 = Polynomial.variable(0)
    with pytest.raises(NonConstant):
        integrate(cp3, {"A": x1**3})


def test_integrate_agrees_with_point_evaluation():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        om = equivariant_symplectic_class(inst.graph)
        cube = om * om * om
        exact = integrate(og, cube)
        for p in evaluation_points(og, count=2):
            assert sum_at_point(og, cube, p) == exact, inst.name


def test_symplectic_cube_magnitudes_match_model_volumes():
    # Magnitudes are 3! times the source-polytope volumes of the models the
    # instances were projected from (simplex 1/6, prism 1/2, unit cube 1,
    # orbit of (2,1,0) volume 1); projecting to rank 2 does not change the
    # localization constant.  The common sign is the outward-weight Euler
    # convention.  tol-d is abstract and has no model volume.
    expected = {
        "cp3-k4": Fraction(-1),
        "cp3-square": Fraction(-1),
        "cp1xcp2": Fraction(-3),
        "flag-su3": Fraction(-6),
        "cube-g": Fraction(-6),
        "tol-d": Fraction(-41, 45),
    }
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        om = equivariant_symplectic_class(inst.graph)
        assert integrate(og, om * om * om) == expected[inst.name], inst.name


# -- low-degree vanishing --------------------------------------------------------------

def test_unity_vanishes(cp3):
    check_low_degree_vanishing(cp3, unity(cp3.graph))


def test_symplectic_class_vanishes(cp3):
    om = equivariant_symplectic_class(cp3.graph)
    check_low_degree_vanishing(cp3, om)


def test_all_low_degree_basis_elements_vanish():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        for d in range(0, inst.graph.valence):
            for el in basis(inst.graph, d):
                check_low_degree_vanishing(og, el)


def test_vanishing_rejects_broken_data(cp3):
    # A non-class assignment must trip the exact-zero assertion.
    g = cp3.graph
    fake = {v: Polynomial.zero() for v in g.vertex_ids()}
    fake["A"] = Polynomial.variable(0)
    with pytest.raises(NonZero):
        check_low_degree_vanishing(cp3, fake)


# -- unknown vertices -----------------------------------------------------------------

def test_values_at_unknown_vertices_are_a_precondition_error(cp3):
    x1 = Polynomial.variable(0)
    message = r"values for unknown vertices: \['Y', 'Z'\]"
    with pytest.raises(PreconditionError, match=message):
        integrate(cp3, {"A": x1**3, "Z": x1**3, "Y": x1**3})
    with pytest.raises(PreconditionError, match=message):
        check_low_degree_vanishing(cp3, {"Z": x1, "Y": x1})
    with pytest.raises(PreconditionError, match=message):
        sum_at_point(cp3, {"Z": x1, "Y": x1}, evaluation_points(cp3, 1)[0])


@pytest.mark.parametrize("integrand, message", [
    ({"A": 1}, "the value at A has type int, not Polynomial"),
    ({"A": Polynomial.variable(0), "B": Fraction(1, 2)},
     "the value at B has type Fraction, not Polynomial"),
    (0, "expected a class or a mapping of vertex ids to polynomials, got int"),
    ([Polynomial.variable(0)], "expected a class .*, got list"),
], ids=["int-value", "fraction-value", "int", "list"])
@pytest.mark.parametrize("call", [
    integrate,
    check_low_degree_vanishing,
    lambda og, f: sum_at_point(og, f, evaluation_points(og, 1)[0]),
], ids=["integrate", "check_low_degree_vanishing", "sum_at_point"])
def test_integrands_that_are_not_classes_or_polynomial_maps_are_rejected(
        cp3, call, integrand, message):
    with pytest.raises(PreconditionError, match=message):
        call(cp3, integrand)


@pytest.mark.parametrize("call", [
    integrate,
    check_low_degree_vanishing,
    lambda og, f: sum_at_point(og, f, evaluation_points(og, 1)[0]),
], ids=["integrate", "check_low_degree_vanishing", "sum_at_point"])
def test_a_class_of_another_graph_is_a_precondition_error(cp3, call):
    # cp3-square has vertices A..D too, so its values would be read at cp3-k4's
    # vertices; integrating its omega^3 there used to be a NonConstant.
    other = equivariant_symplectic_class(corpus("cp3-square").graph)
    for f in (other, other ** 3):
        with pytest.raises(PreconditionError, match="the class lives on another graph"):
            call(cp3, f)


def test_integrate_reads_the_degree_a_class_was_made_with(cp3, monkeypatch):
    om = equivariant_symplectic_class(cp3.graph)
    tau = thom_class(cp3, cp3.r_vertex(), "minus") * om ** 3
    expected = integrate(cp3, dict(tau.values))

    def rescan(values):
        raise AssertionError("the degree of a class was scanned again")

    monkeypatch.setattr(localization, "class_degree", rescan)
    assert tau.degree == 3 and integrate(cp3, tau) == expected
    check_low_degree_vanishing(cp3, om ** 2)


@pytest.mark.parametrize("point", [(0, 0), (1, 0)])
def test_a_point_that_kills_an_euler_class_is_a_precondition_error(cp3, point):
    ones = {v: Polynomial.constant(1) for v in cp3.graph.vertex_ids()}
    with pytest.raises(PreconditionError, match="evaluation point kills the Euler class at A"):
        sum_at_point(cp3, ones, Vector(point))


# -- the common multiple L of the Euler classes ----------------------------------------

def _reference_products(og):
    """prod_{w != v} nu_w for each v, and prod_v nu_v: the full-product
    denominator, by prefix and suffix products of the Euler classes."""
    ids = og.graph.vertex_ids()
    eulers = [euler_class(og, v) for v in ids]
    one = Polynomial.constant(1)
    prefix = [one]
    for nu in eulers:
        prefix.append(prefix[-1] * nu)
    suffix = [one]
    for nu in reversed(eulers):
        suffix.append(suffix[-1] * nu)
    suffix.reverse()
    return {v: prefix[i] * suffix[i + 1] for i, v in enumerate(ids)}, prefix[-1]


def _reference(og, f):
    """What the full-product denominator makes of f: the integral, "nonconstant",
    "vanishes" or "nonzero"."""
    values = f if isinstance(f, dict) else f.values
    products, denominator = _reference_products(og)
    numerator = Polynomial.zero()
    for v, p in products.items():
        numerator = numerator + values.get(v, Polynomial.zero()) * p
    if localization.class_degree(values) == og.graph.valence:
        ratio = numerator.parallel_ratio(denominator)
        return "nonconstant" if ratio is None else ratio
    return "vanishes" if numerator.is_zero() else "nonzero"


def _under_common_multiple(og, f):
    values = f if isinstance(f, dict) else f.values
    try:
        if localization.class_degree(values) == og.graph.valence:
            return integrate(og, f)
        check_low_degree_vanishing(og, f)
        return "vanishes"
    except NonConstant:
        return "nonconstant"
    except NonZero as exc:
        assert "expected 0" in str(exc)
        return "nonzero"


def _corpus_orientations():
    for name in corpus_names():
        inst = corpus(name)
        xis = [inst.xi]
        xis += [xi for xi in find_index_increasing_xi(inst.graph, 3) if xi != inst.xi]
        for xi in xis:
            yield name, orient(inst.graph, xi)


def _report_integrands(og, monkeypatch):
    """Every class the report integrates or checks for vanishing."""
    seen = []
    for name in ("integrate", "check_low_degree_vanishing"):
        real = getattr(lefschetz, name)
        monkeypatch.setattr(lefschetz, name,
                            lambda og, f, real=real: seen.append(f) or real(og, f))
    assert lefschetz.hard_lefschetz_report(og).ok
    monkeypatch.undo()
    return seen


def test_common_multiple_gives_the_full_product_answers_on_every_corpus_orientation(
        monkeypatch):
    # hr_matrix, mixed-matrix, Kronecker and Thom-class vanishing integrands
    # from each report, and every basis element of degree below the valence.
    for name, og in _corpus_orientations():
        point = evaluation_points(og, 1)[0]
        low = [el for d in range(og.graph.valence) for el in basis(og.graph, d)]
        integrands = _report_integrands(og, monkeypatch) + low
        assert len(integrands) > len(low)
        for f in integrands:
            expected = _reference(og, f)
            assert _under_common_multiple(og, f) == expected, (name, og.xi)
            at_point = sum_at_point(og, f, point)
            assert at_point == (0 if expected == "vanishes" else expected), (name, og.xi)


def test_perturbed_integrands_still_fail_loudly(cp3):
    x1 = Polynomial.variable(0)
    top = thom_class(cp3, "A", "plus") * thom_class(cp3, "A", "minus")
    broken = dict(top.values)
    broken["B"] = broken["B"] + x1**3
    assert _reference(cp3, broken) == "nonconstant"
    with pytest.raises(NonConstant):
        integrate(cp3, broken)
    low = dict(thom_class(cp3, "A", "plus").values)
    low["C"] = low["C"] + x1
    assert _reference(cp3, low) == "nonzero"
    with pytest.raises(NonZero, match="numerator sum is .* expected 0"):
        check_low_degree_vanishing(cp3, low)


@pytest.mark.parametrize("name, directions", [
    ("cp3-k4", 6), ("cp3-square", 4), ("tol-d", 7), ("cp1xcp2", 4),
    ("flag-su3", 3), ("cube-g", 3),
])
def test_common_multiple_has_one_form_per_weight_direction(name, directions):
    og = oriented(name)
    quotients, common = localization._common_multiple(og)
    assert common.homogeneous_degree == directions
    assert quotients.keys() == set(og.graph.vertex_ids())
    for v, q in quotients.items():
        assert euler_class(og, v) * q == common, v
        if name in ("flag-su3", "cube-g"):
            assert q.homogeneous_degree == 0, v


@pytest.fixture(scope="module")
def parallel():
    """K4 in rank 2 whose weights at A include (1, 0) and (2, 0): it fails
    the pairwise-independence axiom, and direction (1, 0) has m_d = 2."""
    mu = {"A": (0, 0), "B": (1, 0), "C": (2, 0), "D": (0, 1)}
    weights = {("A", "B"): (1, 0), ("A", "C"): (2, 0), ("A", "D"): (0, 1),
               ("B", "C"): (1, 1), ("B", "D"): (-1, 2), ("C", "D"): (-2, 1)}
    g = GkmGraph(2, 3, [Vertex(v, Vector(p)) for v, p in mu.items()],
                 [Edge(u, v, Vector(w)) for (u, v), w in weights.items()])
    assert not g.validate().ok
    return orient(g, Vector((3, 5)))


def _four_forms(d):
    coefficients = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    return st.lists(coefficients, min_size=4, max_size=4).map(lambda cs: (d, cs))


def test_parallel_weights_double_their_direction_in_the_common_multiple(parallel):
    quotients, common = localization._common_multiple(parallel)
    assert common.homogeneous_degree == 6  # (1, 0) twice, four other directions once
    expected = lin_form(Vector((1, 0))) ** 2
    for w in ((0, 1), (1, 1), (-1, 2), (-2, 1)):
        expected = expected * lin_form(Vector(w))
    assert common.parallel_ratio(expected) is not None
    for v, q in quotients.items():
        assert euler_class(parallel, v) * q == common, v


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(_four_forms), st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.booleans())
def test_parallel_weights_integrate_like_the_full_product(parallel, form, scales, perturbed):
    # In degree 3, c_v * nu_v (integral sum c_v), perturbed or not by an
    # arbitrary form per vertex; in lower degrees the arbitrary forms alone.
    degree, coefficients = form
    ids = parallel.graph.vertex_ids()
    values = {}
    for v, c, cs in zip(ids, scales, coefficients):
        arbitrary = Polynomial({(degree - i, i): a for i, a in enumerate(cs)})
        if degree == 3:
            arbitrary = c * euler_class(parallel, v) + (arbitrary if perturbed else 0)
        values[v] = arbitrary
    if localization.class_degree(values) is None:
        return
    expected = _reference(parallel, values)
    assert _under_common_multiple(parallel, values) == expected
    if expected not in ("nonconstant", "nonzero"):
        point = evaluation_points(parallel, 1)[0]
        assert sum_at_point(parallel, values, point) == (0 if expected == "vanishes"
                                                          else expected)


def test_rational_weights_give_exact_euler_classes_and_common_multiple(parallel):
    # The parallel K4 with every weight scaled by its own positive rational:
    # each factor is an integer pair over a denominator, and each scale s_e
    # of the common multiple an integer numerator over a denominator.
    g = parallel.graph
    scales = [Fraction(1, 2), Fraction(3, 5), 7, Fraction(2, 9), Fraction(5, 4), Fraction(1, 3)]
    scaled = GkmGraph(2, 3, g.vertices, [Edge(e.first, e.second, e.weight * s)
                                         for e, s in zip(g.edges, scales)])
    og = orient(scaled, parallel.xi)
    quotients, common = localization._common_multiple(og)
    for v in scaled.vertex_ids():
        reference = Polynomial.constant(1)
        for e in scaled.edges_at(v):
            reference = reference * lin_form(e.weight_from(v))
        assert euler_class(og, v) == reference, v
        assert euler_class(og, v) * quotients[v] == common, v


def test_nu_multiples_integrate_to_their_coefficient_sum_with_parallel_weights(parallel):
    ids = parallel.graph.vertex_ids()
    values = {v: (i + 1) * euler_class(parallel, v) for i, v in enumerate(ids)}
    assert integrate(parallel, values) == 10 == _reference(parallel, values)


def test_integration_outside_rank_two_is_a_scope_error():
    # Integrating over the rank-3 CP^3 would need a three-component generic
    # direction and classes in three variables; neither can be built.
    with pytest.raises(ScopeError, match="rank 2"):
        orient(corpus("cp3-k4").graph, (1, 2, 4))
    with pytest.raises(ValueError, match="bad exponent"):
        Polynomial({(3, 0, 0): 1})
