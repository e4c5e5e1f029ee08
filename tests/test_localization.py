"""Fixed-point localization: Euler data, exact integrals, vanishing sums."""

from fractions import Fraction

import pytest

from gkm.cohomology import (
    basis,
    equivariant_symplectic_class,
    thom_class,
    unity,
)
from gkm.corpus import corpus, corpus_names
from gkm.errors import DegreeError, GkmError, NonConstant, NonZero, PreconditionError
from gkm.graph import orient
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
    one = Polynomial.constant(2, 1)
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
    x1 = Polynomial.variable(2, 0)
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
    assert check_low_degree_vanishing(cp3, unity(cp3.graph))


def test_symplectic_class_vanishes(cp3):
    om = equivariant_symplectic_class(cp3.graph)
    assert check_low_degree_vanishing(cp3, om)


def test_all_low_degree_basis_elements_vanish():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        for d in range(0, inst.graph.valence):
            for el in basis(inst.graph, d):
                assert check_low_degree_vanishing(og, el), (inst.name, d)


def test_vanishing_rejects_broken_data(cp3):
    # A non-class assignment must trip the exact-zero assertion.
    g = cp3.graph
    fake = {v: Polynomial.zero(2) for v in g.vertex_ids()}
    fake["A"] = Polynomial.variable(2, 0)
    with pytest.raises(NonZero):
        check_low_degree_vanishing(cp3, fake)
