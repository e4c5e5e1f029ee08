"""Fixed-point localization: Euler data, exact integrals, vanishing sums."""

import re
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import example, given, settings, strategies as st

from gkm import cohomology, lefschetz, localization
from gkm.cohomology import (
    CohomologyElement,
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
    pairing,
    sum_at_point,
)
from gkm.polynomial import Polynomial, Vector, _make, lin_form


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

    monkeypatch.setattr(cohomology, "class_degree", rescan)
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
    if cohomology.class_degree(values) == og.graph.valence:
        ratio = numerator.parallel_ratio(denominator)
        return "nonconstant" if ratio is None else ratio
    return "vanishes" if numerator.is_zero() else "nonzero"


def _under_common_multiple(og, f):
    values = f if isinstance(f, dict) else f.values
    try:
        if cohomology.class_degree(values) == og.graph.valence:
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


def _report_calls(og, monkeypatch):
    """The arguments of every pairing the report computes and of every
    class it checks for vanishing."""
    pairings, vanishing = [], []
    monkeypatch.setattr(lefschetz, "pairing", lambda *args, real=lefschetz.pairing: (
        pairings.append(args) or real(*args)))
    monkeypatch.setattr(lefschetz, "check_low_degree_vanishing",
                        lambda og, f, real=lefschetz.check_low_degree_vanishing: (
                            vanishing.append(f) or real(og, f)))
    assert lefschetz.hard_lefschetz_report(og).ok
    monkeypatch.undo()
    return pairings, vanishing


def _full_product(og, f, g, power):
    """The class f * g * omega^power."""
    return f * g * equivariant_symplectic_class(og.graph) ** power


def test_common_multiple_gives_the_full_product_answers_on_every_corpus_orientation(
        monkeypatch):
    # Each pairing of the report (hr_matrix, mixed-matrix and Kronecker
    # entries) is its full product class's integral, and each Thom class it
    # checks for vanishing, like every basis element of degree below the
    # valence, gives the full-product denominator's answer.
    captured = 0
    for name, og in _corpus_orientations():
        point = evaluation_points(og, 1)[0]
        pairings, vanishing = _report_calls(og, monkeypatch)
        assert pairings and vanishing
        captured += len(pairings) + len(vanishing)
        for og_, *args in pairings:
            assert og_ is og
            product = _full_product(og, *args)
            value = pairing(og, *args)
            expected = _reference(og, product)  # "vanishes" for a zero product
            expected = 0 if expected == "vanishes" else expected
            assert value == integrate(og, product) == expected, (name, args)
            assert sum_at_point(og, product, point) == value, (name, args)
        low = [el for d in range(og.graph.valence) for el in basis(og.graph, d)]
        for f in vanishing + low:
            expected = _reference(og, f)
            assert _under_common_multiple(og, f) == expected, (name, og.xi)
            at_point = sum_at_point(og, f, point)
            assert at_point == (0 if expected == "vanishes" else expected), (name, og.xi)
    # As many integrands as the reports had when each built its product class.
    assert captured >= 513


def test_the_report_forms_no_class_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the report formed a class product or power")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(CohomologyElement, name, refuse)
    for name, og in _corpus_orientations():
        assert lefschetz.hard_lefschetz_report(og).ok, (name, og.xi)


def test_a_kronecker_pairing_meets_one_vertex_at_most():
    # supp tau_v^+ & supp tau_w^- is {v} when v == w and empty otherwise, for
    # v and w of one down-degree: so each Kronecker entry has one term or none.
    pairs = 0
    for name, og in _corpus_orientations():
        ids = og.graph.vertex_ids()
        for v in ids:
            for w in ids:
                if og.down_degree(v) == og.down_degree(w):
                    meet = (thom_class(og, v, "plus").support()
                            & thom_class(og, w, "minus").support())
                    assert meet == ({v} if v == w else set()), (name, og.xi, v, w)
                    pairs += 1
    assert pairs == 178


# -- class products and sums visit only the support ------------------------------

def _thom_classes(og):
    return [thom_class(og, v, d) for v in og.graph.vertex_ids() for d in ("plus", "minus")]


def _counting(monkeypatch, cls, name):
    """A one-item list counting the calls of ``cls.name`` from now on."""
    calls, real = [0], getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_a_product_of_thom_classes_is_pointwise_on_every_corpus_orientation():
    products = 0
    for name, og in _corpus_orientations():
        classes = _thom_classes(og)
        for f in classes:
            for g in classes:
                h = f * g
                assert h.support() == f.support() & g.support(), (name, og.xi)
                for v in og.graph.vertex_ids():
                    assert h.value(v) == f.value(v) * g.value(v), (name, og.xi, v)
                products += 1
    assert products == 2512


def test_a_class_product_multiplies_forms_only_where_both_are_nonzero(monkeypatch):
    # One Polynomial product per vertex of supp f & supp g, not one per vertex.
    calls = _counting(monkeypatch, Polynomial, "__mul__")
    for name, og in _corpus_orientations():
        classes = _thom_classes(og)
        for f in classes:
            for g in classes:
                meet = len(f.support() & g.support())
                before = calls[0]
                f * g
                assert calls[0] - before == meet, (name, og.xi)


def test_a_power_starts_from_the_class_itself(cp3, monkeypatch):
    om = equivariant_symplectic_class(cp3.graph)
    repeated = [unity(cp3.graph), om, om * om, om * om * om]
    calls = _counting(monkeypatch, CohomologyElement, "__mul__")
    for n, expected in enumerate(repeated):
        before = calls[0]
        power = om ** n
        assert calls[0] - before == max(n - 1, 0), n
        assert power == expected and power.degree == n, n
    assert om ** 0 == unity(cp3.graph)


def test_a_plain_dict_sums_like_the_class_built_from_it():
    # A full dict, and one in reverse vertex order without its zero values.
    def dicts(f):
        return (dict(f.values),
                {v: p for v, p in reversed(f.values.items()) if not p.is_zero()})

    for name, og in _corpus_orientations():
        graph = og.graph
        omega = equivariant_symplectic_class(graph)
        for f in _thom_classes(og):
            for values in dicts(f):
                assert CohomologyElement(graph, values) == f, (name, og.xi)
        for p in graph.vertex_ids():
            f = thom_class(og, p, "plus")
            for q in graph.vertex_ids():
                g = thom_class(og, q, "minus")
                power = graph.valence - f.degree - g.degree
                if power < 0:
                    continue
                expected = pairing(og, f, g, power)
                top = integrate(og, f * g * omega ** power)
                assert top == expected, (name, og.xi, p, q)
                for f_values, g_values in zip(dicts(f), dicts(g)):
                    assert pairing(og, f_values, g_values, power) == expected, (name, p, q)
                for values in dicts(f * g * omega ** power):
                    assert integrate(og, values) == top, (name, og.xi, p, q)
        for element in (el for d in range(graph.valence) for el in basis(graph, d)):
            assert check_low_degree_vanishing(og, element) is None
            for values in dicts(element):
                assert check_low_degree_vanishing(og, values) is None


@pytest.mark.parametrize("power, message", [
    (-1, "power -1 is not an int in 0..3"),
    (4, "power 4 is not an int in 0..3"),
    (True, "power True is not an int in 0..3"),
])
def test_a_power_outside_the_table_is_a_precondition_error(cp3, power, message):
    tau = thom_class(cp3, cp3.o_vertex(), "plus")
    with pytest.raises(PreconditionError, match=re.escape(message)):
        pairing(cp3, tau, tau, power)


def test_each_mixed_entry_is_its_shifted_product_integral_on_every_corpus_orientation():
    # The mixed entry integrates tau_p^+ * tau_q^- * (omega - omega(p)).  The
    # shift adds omega(p) times the integral of tau_p^+ * tau_q^-, a class of
    # degree 2 < n, which is 0: so the pairing through one plain omega is it.
    entries = 0
    for name, og in _corpus_orientations():
        omega = equivariant_symplectic_class(og.graph)
        for p in og.vertices_of_index(1):
            tau_p = thom_class(og, p, "plus")
            for q in og.vertices_of_index(2):
                tau_q = thom_class(og, q, "minus")
                product = tau_p * tau_q * (omega - omega.value(p))
                assert pairing(og, tau_p, tau_q, 1) == integrate(og, product), (name, og.xi, p, q)
                entries += 1
    assert entries == 70


def test_no_localization_sum_makes_an_intermediate_form(monkeypatch):
    # Each numerator is one integer row, and the answer is read off it.  A
    # first report on each of the 19 distinct corpus orientations (each
    # document covector and the first 3 searched) builds the Thom classes and
    # the table t[v][p]; then every pairing it computed (hr_matrix, mixed
    # matrix, Kronecker), the integral of each pairing's product class and
    # every class it checked for vanishing run again with Polynomial
    # arithmetic refused, and call ``_make`` through localization 0 times.
    # The mixed matrix's single-vertex shortcut, the independent second way,
    # keeps its Polynomial arithmetic and is not rerun.  A failing vanishing
    # check makes one form, the sum its NonZero message names.
    recorded = []
    for name, og in _corpus_orientations():
        pairings, vanishing = _report_calls(og, monkeypatch)
        products = [(args, _full_product(*args), pairing(*args)) for args in pairings]
        recorded.append((name, og, products, vanishing))
    assert len(recorded) == 19

    def refuse(*args):
        raise AssertionError("a localization sum made an intermediate form")

    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(Polynomial, op, refuse)
    with pytest.raises(AssertionError, match="intermediate form"):
        Polynomial.variable(0) + Polynomial.variable(1)
    made = []
    monkeypatch.setattr(localization, "_make", lambda *args: made.append(args) or _make(*args))
    for name, og, products, vanishing in recorded:
        for args, product, value in products:
            assert pairing(*args) == integrate(og, product) == value, (name, og.xi, args[3:])
        for f in vanishing:
            check_low_degree_vanishing(og, f)
    assert made == []
    name, og, _, _ = recorded[0]  # cp3-k4 at (1, 3); the sum is Q_A itself
    assert (name, og.graph.vertex_ids()[0]) == ("cp3-k4", "A")
    with pytest.raises(NonZero, match=re.escape(
            "numerator sum is -x1^3 - 3*x1^2*x2 + x1*x2^2 + 3*x2^3, expected 0")):
        check_low_degree_vanishing(og, {"A": Polynomial.constant(1)})
    assert len(made) == 1


def test_a_zero_table_entry_is_skipped():
    # omega is 0 at A, the vertex of cp3-k4 whose moment is the origin, so
    # t[A][p] is the zero form for p >= 1: its term is skipped, not convolved
    # into a row of another degree.  D is the minimum at (1, 3), so tau_D^+ = 1.
    og = orient(corpus("cp3-k4").graph, Vector((1, 3)))
    omega = equivariant_symplectic_class(og.graph)
    tau = thom_class(og, "D", "plus")
    assert omega.value("A").is_zero() and tau.value("A") == 1
    assert pairing(og, tau, tau, 3) == integrate(og, omega * omega * omega) == -1


@st.composite
def _form(draw, degree, zero=True, den=None):
    """A form of ``degree``, small integer numerators over ``den``, else over
    a denominator in 1..12; the zero form now and then when ``zero``, never
    without it."""
    if zero and draw(st.integers(0, 5)) == 0:
        return Polynomial.zero()
    den = den or draw(st.integers(1, 12))
    numerators = draw(st.lists(st.integers(-4, 4), min_size=degree + 1, max_size=degree + 1))
    if not (zero or any(numerators)):
        numerators[0] = 1
    return Polynomial({(degree - i, i): Fraction(c, den) for i, c in enumerate(numerators)})


@st.composite
def _term(draw, degree, zero=True, den=None):
    """One to four forms whose degrees add up to ``degree``."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), max_size=3)))
    return [draw(_form(b - a, zero, den)) for a, b in zip([0, *cuts], [*cuts, degree])]


def _product_sum(terms):
    rows = [[(f.numerators, f.denominator) for f in term] for term in terms]
    return _make(*localization._product_sum(rows))


# Now and then every form has one denominator, 1 or 3, so that terms with
# the running sum's denominator take the branch that adds without rescaling;
# the example pins one such sum.
@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 4), st.sampled_from([None, None, 1, 3])).flatmap(
    lambda c: st.lists(_term(c[0], den=c[1]), max_size=5)))
@example([[Polynomial({(1, 0): Fraction(1, 3)})], [Polynomial({(0, 1): Fraction(2, 3)})],
          [Polynomial({(1, 0): Fraction(-1, 3)})]])
def test_the_product_sum_is_the_sum_of_the_products(terms):
    assert _product_sum(terms) == reduce(add, (reduce(mul, t) for t in terms), Polynomial.zero())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(1, 2), st.booleans(), st.data())
def test_terms_of_two_degrees_are_a_degree_error_even_after_a_cancellation(
        degree, step, cancel, data):
    first = data.draw(_term(degree, zero=False))
    other = data.draw(_term(degree + step, zero=False))
    terms = [first, [-first[0], *first[1:]], other] if cancel else [first, other]
    message = f"cannot add forms of degrees {degree} and {degree + step}"
    with pytest.raises(DegreeError, match=message):
        _product_sum(terms)
    if cancel:  # a running sum of forms is zero before ``other`` and passes it
        assert reduce(add, (reduce(mul, t) for t in terms)) == reduce(mul, other)


def test_pairing_reads_the_degree_of_its_classes(cp3):
    tau = thom_class(cp3, cp3.o_vertex(), "plus")
    with pytest.raises(DegreeError, match="integrand has polynomial degree 2, expected 3"):
        pairing(cp3, tau, tau, 2)
    assert pairing(cp3, tau, 0 * tau, 3) == 0


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


# Invertible integer matrices with entries up to 2^16 in size, as the
# benchmark's moved instances have.
_MOVES = [((65536, -3), (7, 2)), ((-40961, 65535), (12345, -65536)), ((2, 1), (-65536, 1))]


def _moved(name, matrix):
    """The corpus instance with every moment and weight multiplied by
    ``matrix``, oriented by xi' = adj(A)^T xi, so <A w, xi'> = det A <w, xi>."""
    inst = corpus(name)
    (a, b), (c, d) = matrix

    def apply(v):
        return Vector((a * v[0] + b * v[1], c * v[0] + d * v[1]))

    graph = GkmGraph(2, inst.graph.valence,
                     [Vertex(v.id, apply(v.mu)) for v in inst.graph.vertices],
                     [Edge(e.first, e.second, apply(e.weight)) for e in inst.graph.edges])
    x, y = inst.xi
    return orient(graph, Vector((d * x - c * y, a * y - b * x)))


@pytest.mark.parametrize("matrix", _MOVES)
@pytest.mark.parametrize("name", corpus_names())
def test_each_quotient_times_its_euler_class_is_the_common_multiple_on_moved_graphs(
        name, matrix):
    og = _moved(name, matrix)
    assert og.graph.validate().ok and og.is_index_increasing()
    quotients, common = localization._common_multiple(og)
    for v, q in quotients.items():
        assert euler_class(og, v) * q == common, (name, matrix, v)


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
    if cohomology.class_degree(values) is None:
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
