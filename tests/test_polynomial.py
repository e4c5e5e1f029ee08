"""Exact binary forms: examples, ring axioms, division properties."""

import json
import re
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from gkm.corpus import corpus
from gkm.errors import DegreeError, NotDivisible, ParseError, PreconditionError, ScopeError
from gkm.graph import GkmGraph, orient
from gkm.jsonio import graph_to_document, loads
from gkm.polynomial import (
    Polynomial, Vector, _make, _row_ratio, congruent_mod_linear, lin_form, power_row)


def terms(p):
    """(exponents, coefficient) pairs of p read off its numerators,
    x1-heavy first."""
    d = len(p.numerators) - 1
    return [((d - i, i), Fraction(n, p.denominator)) for i, n in enumerate(p.numerators) if n]


x1 = Polynomial.variable(0)
x2 = Polynomial.variable(1)


# -- lin_form -----------------------------------------------------------------

def test_lin_form_basis_vector():
    assert lin_form(Vector((1, 0))) == x1


def test_lin_form_zero_vector():
    assert lin_form(Vector((0, 0))) == Polynomial.zero()


def test_lin_form_general():
    assert lin_form(Vector((-1, -2))) == -x1 - 2 * x2


# -- multiply -----------------------------------------------------------------

def test_multiply_variables():
    assert x1 * x2 == Polynomial({(1, 1): 1})


def test_multiply_difference_of_squares():
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2


def test_multiply_scalar():
    assert (2 * x1) * Fraction(1, 2) == x1


# -- divide_by_linear ---------------------------------------------------------

def test_divide_difference_of_squares():
    assert (x1**2 - x2**2).divide_by_linear(x1 - x2) == x1 + x2


def test_divide_zero():
    assert Polynomial.zero().divide_by_linear(x1) == Polynomial.zero()


def test_divide_not_divisible():
    with pytest.raises(NotDivisible):
        x1.divide_by_linear(x2)


def test_divide_rejects_nonlinear_divisor():
    with pytest.raises(ValueError):
        x1.divide_by_linear(x1 * x1)
    with pytest.raises(ValueError):
        x1.divide_by_linear(Polynomial.constant(3))
    with pytest.raises(DegreeError, match="degrees 1 and 0"):
        x1.divide_by_linear(x1 + 1)


# -- congruent_mod_linear -----------------------------------------------------

def test_congruent_squares():
    assert congruent_mod_linear(x1**2, x2**2, x1 - x2)


def test_congruent_identity():
    f = 3 * x1 * x2 - x2**2 + 7 * x1**2
    assert congruent_mod_linear(f, f, x1 + 5 * x2)
    with pytest.raises(DegreeError, match="degrees 2 and 0"):
        congruent_mod_linear(f, 7, x1 + 5 * x2)


def test_congruent_false():
    assert not congruent_mod_linear(x1, Polynomial.zero(), x2)


# -- evaluate -------------------------------------------------------------------

def test_evaluate_product_point():
    assert (x1 * x2).evaluate((2, 3)) == 6


def test_evaluate_at_zero_gives_constant_term():
    assert Polynomial.constant(Fraction(7, 3)).evaluate((0, 0)) == Fraction(7, 3)
    assert (x1**2 + 5 * x1 * x2).evaluate((0, 0)) == 0
    with pytest.raises(DegreeError, match="degrees 2 and 1"):
        x1**2 + 5 * x2 + Fraction(7, 3)


def test_evaluate_difference_of_squares_diagonal():
    assert (x1**2 - x2**2).evaluate((1, 1)) == 0


def test_evaluate_rejects_floats():
    with pytest.raises(TypeError):
        x1.evaluate((0.5, 1))


# -- text form ------------------------------------------------------------------

def test_str_matches_documented_form():
    f = x1**2 - 2 * x1 * x2 + Fraction(1, 3) * x2**2
    assert str(f) == "x1^2 - 2*x1*x2 + 1/3*x2^2"
    assert str(Polynomial.constant(Fraction(-1, 3))) == "-1/3"
    with pytest.raises(DegreeError, match="degrees 2 and 0"):
        x1**2 - 2 * x1 * x2 + Fraction(1, 3)


def test_str_zero():
    assert str(Polynomial.zero()) == "0"


def test_str_leading_negative_unit():
    assert str(-x1 - 2 * x2) == "-x1 - 2*x2"


# -- property tests -------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
degrees = st.integers(0, 3)


def forms_of_degree(d, coefficients=coeffs):
    """Binary forms of degree d, or zero: terms with exponents (d - i, i)."""
    return st.dictionaries(st.integers(0, d).map(lambda i: (d - i, i)), coefficients,
                           max_size=5)


polys = degrees.flatmap(forms_of_degree).map(Polynomial)


def same_degree(count):
    """``count`` forms of one drawn degree, so that they can be added."""
    return degrees.flatmap(lambda d: st.tuples(*[forms_of_degree(d).map(Polynomial)] * count))


vectors2 = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(Vector)
nonzero_vectors2 = vectors2.filter(lambda v: not v.is_zero())


@settings(max_examples=60)
@given(same_degree(3), polys)
def test_ring_axioms(abc, p):
    # Sums take forms of one degree; p, of any degree, multiplies them.
    a, b, c = abc
    assert a + b == b + a
    assert p * a == a * p
    assert (a + b) + c == a + (b + c)
    assert (p * a) * b == p * (a * b)
    assert p * (b + c) == p * b + p * c


@settings(max_examples=60)
@given(polys, nonzero_vectors2)
def test_divide_after_multiply_roundtrip(q, w):
    ell = lin_form(w)
    assert (q * ell).divide_by_linear(ell) == q


@settings(max_examples=60)
@given(same_degree(2), nonzero_vectors2)
def test_congruence_iff_difference_divisible(fg, w):
    f, g = fg
    ell = lin_form(w)
    try:
        (f - g).divide_by_linear(ell)
        divisible = True
    except NotDivisible:
        divisible = False
    assert congruent_mod_linear(f, g, ell) == divisible


@settings(max_examples=60)
@given(polys, same_degree(2), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_evaluate_is_ring_homomorphism(p, ab, pt):
    a, b = ab
    assert (p * b).evaluate(pt) == p.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


# -- constructors ----------------------------------------------------------------

def test_constructor_rejects_float_coefficient():
    with pytest.raises(TypeError):
        Polynomial({(1, 0): 0.5})


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0)])
def test_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        Polynomial({exps: 1})


@pytest.mark.parametrize("make, message", [
    (lambda: Vector(None), "components must be iterable, got None"),
    (lambda: Vector(5), "components must be iterable, got 5"),
    (lambda: orient(corpus("cp3-k4").graph, None), "xi must be iterable, got None"),
    (lambda: orient(corpus("cp3-k4").graph, 7), "xi must be iterable, got 7"),
    (lambda: x1.evaluate(None), "point must be iterable, got None"),
    (lambda: Polynomial([1]), "terms must be a mapping of exponent pairs to coefficients, "
                              "got [1]"),
    (lambda: Polynomial({5: 1}), "bad exponent vector 5"),
], ids=["vector-none", "vector-int", "orient-none", "orient-int", "evaluate-none",
        "terms-list", "exponents-int"])
def test_an_argument_of_the_wrong_shape_is_a_precondition_error_naming_it(make, message):
    # Each used to escape as a bare TypeError or AttributeError.
    with pytest.raises(PreconditionError, match="^" + re.escape(message) + "$"):
        make()


@pytest.mark.parametrize("exps", [(1.5, 0), (Fraction(3, 2), 0), ("1", 0), (True, 0),
                                  (1.0, 0), (Fraction(1), 0)])
def test_constructor_takes_only_int_exponents(exps):
    # int() would truncate 1.5 and 3/2 to 1 and read "1" and True as 1.
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial({exps: 1})


@pytest.mark.parametrize("make, message", [
    (lambda: x1 + 1, "cannot add forms of degrees 1 and 0"),
    (lambda: 1 - x1, "cannot add forms of degrees 1 and 0"),
    (lambda: x1 * x2 - x2, "cannot add forms of degrees 2 and 1"),
    (lambda: Polynomial({(1, 0): 1, (0, 0): 1}), r"terms have degrees \[0, 1\]"),
    (lambda: Polynomial({(2, 0): 1, (0, 1): Fraction(1, 2)}), r"terms have degrees \[1, 2\]"),
], ids=["add-constant", "rsub-constant", "sub", "constructor", "constructor-fraction"])
def test_two_degrees_are_a_degree_error(make, message):
    with pytest.raises(DegreeError, match=message):
        make()


def test_zero_terms_of_another_degree_are_dropped():
    assert Polynomial({(1, 0): 1, (0, 0): 0}) == x1
    assert Polynomial({(1, 0): 1, (0, 0): 0, (2, 0): Fraction(0)}) == x1
    assert Polynomial({(1, 1): 0, (3, 0): 0}) == Polynomial.zero()
    assert x1 + Polynomial.zero() == x1 == Polynomial.zero() + x1
    assert (x1 + 0, 0 - x1) == (x1, -x1)
    assert [p.homogeneous_degree for p in (Polynomial.zero(), x1 ** 0, x1 * x2)] == [None, 0, 2]


@pytest.mark.parametrize("numerators", [(), (0,), [0, 0], (0, 0, 0, 0)])
@pytest.mark.parametrize("den", [1, 2, 7, 2 ** 70])
def test_all_zero_numerators_make_the_one_shared_zero_form(numerators, den):
    zero = _make(numerators, den)
    assert zero is Polynomial.zero()
    assert (zero.numerators, zero.denominator, zero.homogeneous_degree) == ((), 1, None)
    assert x1 - x1 is Polynomial.zero() is 0 * (x1 * x2)


@pytest.mark.parametrize("index", [True, False, 1.0, "1", -1, 2])
def test_variable_index_must_be_an_int_in_range(index):
    with pytest.raises(ValueError, match="variable index must be an int in 0..1"):
        Polynomial.variable(index)


@pytest.mark.parametrize("n", [-1, 2.0, True, False])
def test_powers_take_only_non_negative_int_exponents(n):
    # A bool is an int subclass: x1 ** True would otherwise return x1.
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        x1 ** n


@settings(max_examples=60)
@given(same_degree(2), polys, nonzero_vectors2)
def test_arithmetic_results_are_canonical(ab, p, w):
    a, b = ab
    ell = lin_form(w)
    results = [a + b, a - b, a * b, p * a, -a, (a * ell).divide_by_linear(ell), ell]
    for p in results:
        rebuilt = Polynomial(dict(terms(p)))
        assert p == rebuilt
        assert hash(p) == hash(rebuilt)
        assert str(p) == str(rebuilt)
        assert all(c != 0 for _, c in terms(p))


# -- division with x2 as the pivot ---------------------------------------------------

def test_divide_pivot_second_variable():
    ell = lin_form(Vector((0, Fraction(-3, 2))))
    q = x1 ** 2 * x2 - 5 * x1 * x2 ** 2 + Fraction(1, 7) * x2 ** 3
    assert (q * ell).divide_by_linear(ell) == q
    with pytest.raises(NotDivisible):
        (q * ell + x1 ** 4).divide_by_linear(ell)


# -- congruence against an evaluation oracle ----------------------------------------

@settings(max_examples=80)
@given(degrees.flatmap(lambda d: st.tuples(
    forms_of_degree(d).map(Polynomial), forms_of_degree(d).map(Polynomial),
    forms_of_degree(d - 1).map(Polynomial) if d else st.just(Polynomial.zero()))),
    nonzero_vectors2, st.booleans())
def test_congruence_matches_evaluation_oracle(fgq, w, shift):
    # ell_w vanishes exactly on the line through (w2, -w1), so ell_w divides
    # a form h iff h vanishes at that point; q has one degree less than f.
    f, g, q = fgq
    ell = lin_form(w)
    if shift:
        g = f + q * ell
    h = f - g
    point = (w[1], -w[0])
    oracle = ref_value(dict(terms(h)), point) == 0
    assert congruent_mod_linear(f, g, ell) == oracle
    if shift:
        assert oracle


# -- floats are rejected on every way in -----------------------------------------

@pytest.mark.parametrize("make", [
    lambda: Polynomial.constant(0.5),
    lambda: Polynomial({(1, 0): 0.5}),
    lambda: x1 * 0.5,
    lambda: x1 + 0.5,
    lambda: Vector((0.5, 1)),
    lambda: Vector((1, 2, 0.5)),  # component types are checked before the count
    lambda: Vector((1, 2)) * 0.5,
    lambda: 0.5 * Vector((1, 2)),
], ids=["constant", "constructor", "multiply", "add", "vector", "vector-3", "vector-scale",
        "vector-rscale"])
def test_floats_are_rejected_on_every_way_in(make):
    with pytest.raises(TypeError):
        make()


_CP3 = corpus("cp3-k4")


def _rank_3_document():
    return json.dumps({**graph_to_document(_CP3.graph, _CP3.xi), "rank": 3})


@pytest.mark.parametrize("make, error, message", [
    (lambda: Vector((1,)), ScopeError, "vectors are planar"),
    (lambda: Vector((1, 2, 3)), ScopeError, "vectors are planar"),
    (lambda: Vector(iter((1,))), ScopeError, r"planar \(rank 2\), got 1 components"),
    (lambda: Vector([]), ScopeError, r"planar \(rank 2\), got 0 components"),
    (lambda: lin_form((1, 2, 3)), ScopeError, "vectors are planar"),
    (lambda: x1.evaluate((1, 2, 3)), ScopeError, "vectors are planar"),
    (lambda: GkmGraph(1, 3, _CP3.graph.vertices, _CP3.graph.edges), PreconditionError,
     "rank must be 2"),
    (lambda: GkmGraph(3, 3, _CP3.graph.vertices, _CP3.graph.edges), PreconditionError,
     "rank must be 2"),
    (lambda: loads(_rank_3_document()), ParseError, "^rank: expected 2"),
], ids=["vector-1", "vector-3", "vector-iterator-1", "vector-0", "lin_form", "evaluate",
        "graph-1", "graph-3", "document"])
def test_inputs_outside_rank_two_are_rejected(make, error, message):
    """Every entry point that takes outside input rejects anything but the plane."""
    with pytest.raises(error, match=message) as exc:
        make()
    assert type(exc.value) is error


@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("make", [
    lambda rank: lin_form(Vector((1,) * rank)),
    lambda rank: lin_form((1,) * rank),
], ids=["lin_form", "lin_form-tuple"])
def test_ranks_other_than_two_are_a_scope_error(make, rank):
    with pytest.raises(ScopeError, match="rank 2"):
        make(rank)


@pytest.mark.parametrize("make", [
    lambda: Polynomial({(1, 0): "3/2"}),
    lambda: Polynomial({(1, 0): True}),
    lambda: Polynomial.constant("7"),
    lambda: Polynomial.constant(False),
    lambda: x1 + "1",
    lambda: x1 * True,
    lambda: Vector(("1/2", True)),
    lambda: Vector((1, True)),
    lambda: Vector((1, 2)) * "2",
    lambda: x1.evaluate(("1", 2)),
], ids=["constructor-str", "constructor-bool", "constant-str", "constant-bool",
        "add-str", "multiply-bool", "vector-str", "vector-bool", "vector-scale-str",
        "evaluate-str"])
def test_strings_and_bools_are_not_numbers(make):
    with pytest.raises(TypeError):
        make()


# -- every operation against a dict-of-Fraction reference ---------------------------
#
# The reference keeps each polynomial as a plain {exponents: Fraction} dict
# with no zero values and implements each operation the textbook way.

def ref_clean(a):
    return {e: c for e, c in a.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_value(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for x, k in zip(point, e):
            c *= Fraction(x) ** k
        total += c
    return total


def ref_ratio(a, b):
    if not a:
        return Fraction(0)
    if a.keys() != b.keys():
        return None
    ratios = {a[e] / b[e] for e in a}
    return ratios.pop() if len(ratios) == 1 else None


def ref_order(a):
    return sorted(a.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def ref_str(a):
    out = ""
    for e, c in ref_order(a):
        names = [f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k]
        body = "*".join(names if abs(c) == 1 and names else [str(abs(c))] + names)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out or "0"


def ref_degree(a):
    """The one degree of a reference form's terms; None for zero."""
    degrees = {sum(e) for e in a}
    assert len(degrees) <= 1
    return degrees.pop() if degrees else None


def assert_matches(p, ref):
    # Canonical form: d + 1 integer numerators, not all zero, for a form of
    # degree d, and none for zero, over one positive denominator in lowest
    # terms, which is 1 for the zero polynomial.
    assert type(p.denominator) is int and p.denominator > 0
    assert type(p.numerators) is tuple and (p.numerators == () or any(p.numerators))
    assert all(type(c) is int for c in p.numerators)
    assert p.homogeneous_degree == ref_degree(ref)
    assert len(p.numerators) == (0 if not ref else ref_degree(ref) + 1)
    assert gcd(p.denominator, *p.numerators) == 1
    assert terms(p) == ref_order(ref)
    assert str(p) == ref_str(ref)
    rebuilt = Polynomial(ref)
    assert p == rebuilt and hash(p) == hash(rebuilt)


rationals = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-2**40, 2**40).map(Fraction),
)


@st.composite
def oracle_cases(draw):
    # a and b share a degree in at least half the cases, so that their sum
    # is a form; q has degree dq and the remainder r degree dq + 1.
    da = draw(degrees)
    db = draw(st.one_of(st.just(da), degrees))
    dq = draw(degrees)
    a, b, q, r = (draw(forms_of_degree(d, rationals)) for d in (da, db, dq, dq + 1))
    entries = st.fractions(-4, 4, max_denominator=5)
    # Half the divisors have no x1 term, so x2 is the pivot.
    w = draw(st.one_of(st.tuples(entries, entries).filter(any),
                       entries.filter(bool).map(lambda c: (Fraction(0), c))))
    pivot = next(i for i, c in enumerate(w) if c)
    # A remainder free of ell's pivot variable is unique, so a nonzero one
    # makes q * ell + r indivisible.
    r = ref_clean({e: c for e, c in r.items() if e[pivot] == 0})
    return (ref_clean(a), ref_clean(b), ref_clean(q), r, w,
            draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4))),
            draw(st.tuples(rationals, rationals)),
            draw(st.integers(0, 3)), draw(rationals), draw(st.integers(1, 6)))


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_every_operation_matches_the_fraction_reference(case):
    a, b, q, r, w, int_point, point, n, s, g = case
    pa, pb = Polynomial(a), Polynomial(b)
    assert_matches(pa, a)
    assert_matches(Polynomial.zero(), {})
    assert_matches(Polynomial.constant(s), ref_clean({(0, 0): s}))
    if a and b and ref_degree(a) != ref_degree(b):
        for sign in (1, -1):
            with pytest.raises(DegreeError, match=f"degrees {ref_degree(a)} and {ref_degree(b)}"):
                pa + sign * pb
    else:
        assert_matches(pa + pb, ref_add(a, b))
        assert_matches(pa - pb, ref_add(a, b, -1))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(-pa, ref_add({}, a, -1))
    power = {(0, 0): Fraction(1)}
    for _ in range(n):
        power = ref_mul(power, a)
    assert_matches(pa**n, power)
    assert pa.evaluate(point) == ref_value(a, point)
    value = sum(map(mul, pa.numerators, power_row(int_point, ref_degree(a) or 0)))
    assert type(value) is int
    assert Fraction(value, pa.denominator) == ref_value(a, int_point)
    assert (pa == pb) == (a == b)
    assert (pa == pb) <= (hash(pa) == hash(pb))

    # parallel_ratio against b: a itself, s * b, s * b with one coefficient
    # moved (same support and no multiple when b has two terms and s != -1),
    # and zero.  The row rule it calls, _row_ratio, reads the same ratio off
    # each of those rows with every numerator and the denominator times g,
    # 0 off an all-zero row and None off a nonzero row of another length.
    if b:
        multiple = ref_mul(b, {(0, 0): s})
        moved = ref_add(multiple, dict([next(iter(b.items()))]))
        for left in (a, multiple, moved, {}):
            pl = Polynomial(left)
            ratio = pl.parallel_ratio(pb)
            assert ratio == ref_ratio(left, b)
            assert ratio is None or type(ratio) is Fraction  # never a float
            row = [c * g for c in pl.numerators]
            assert _row_ratio(row, pl.denominator * g, pb.numerators, pb.denominator) == ratio
        zero, longer = [0] * len(pb.numerators), [g, *pb.numerators]
        for row, expected in ((zero, 0), (longer, None)):
            assert _make(row, g).parallel_ratio(pb) == expected
            assert _row_ratio(row, g, pb.numerators, pb.denominator) == expected
    with pytest.raises(ValueError):
        pa.parallel_ratio(Polynomial.zero())

    ell = lin_form(Vector(w))
    assert_matches(ell, ref_clean({(1, 0): w[0], (0, 1): w[1]}))
    f = Polynomial(ref_add(ref_mul(q, dict(terms(ell))), r))
    if r:
        with pytest.raises(NotDivisible):
            f.divide_by_linear(ell)
    else:
        assert_matches(f.divide_by_linear(ell), q)


# -- Vector against a Fraction-pair reference ------------------------------------
#
# The reference keeps a vector as a tuple of two Fractions, as the class
# itself once did, and does each operation componentwise.

scalars = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))


def assert_vector_matches(v, ref):
    """v has the components ``ref``, prints as they do, and is stored as
    coprime int numerators over a positive int denominator."""
    assert list(v) == list(ref) and (v[0], v[1]) == ref
    assert all(type(c) is Fraction for c in v)
    assert repr(v) == "Vector(%s, %s)" % ref
    assert all(type(n) is int for n in (v.x, v.y, v.denominator))
    assert v.denominator > 0 and gcd(v.x, v.y, v.denominator) == 1


def assert_exact(value, ref, integral):
    """An int over a denominator product of 1, a Fraction otherwise."""
    assert value == ref
    assert type(value) is (int if integral else Fraction)


@settings(max_examples=150)
@given(st.tuples(scalars, scalars), st.tuples(scalars, scalars), scalars)
def test_vector_matches_the_fraction_pair_reference(a, b, s):
    u, v = Vector(a), Vector(b)
    (p, q), (r, t) = map(Fraction, a), map(Fraction, b)
    assert_vector_matches(u, (p, q))
    assert_vector_matches(u + v, (p + r, q + t))
    assert_vector_matches(u - v, (p - r, q - t))
    assert_vector_matches(-u, (-p, -q))
    assert_vector_matches(u * s, (p * s, q * s))
    assert_vector_matches(s * u, (p * s, q * s))
    assert_vector_matches(u.perp(), (-q, p))
    integral = u.denominator * v.denominator == 1
    assert_exact(u.dot(v), p * r + q * t, integral)
    assert_exact(u.cross(v), p * t - q * r, integral)
    assert u.is_zero() == (p == q == 0)
    if not u.is_zero():
        m, n = u.primitive_perp()
        assert type(m) is int and type(n) is int and gcd(m, n) == 1
        assert m * p + n * q == 0 and -m * q + n * p > 0  # a positive multiple of perp
    assert (u == v) == ((p, q) == (r, t))
    assert (u == v) <= (hash(u) == hash(v))
    assert (u < v) == ((p, q) < (r, t))
    assert u == Vector((p, q)) == Vector(iter(a)) and hash(u) == hash(Vector((p, q)))


def test_unreduced_components_give_the_same_vector():
    assert Vector((Fraction(4, 2), 1)) == Vector((2, 1))
    assert hash(Vector((Fraction(4, 2), 1))) == hash(Vector((2, 1)))
    assert Vector((Fraction(6, 4), Fraction(1, 2))) == Vector((Fraction(3, 2), Fraction(1, 2)))
    assert Vector((Fraction(1, 2), Fraction(1, 2))) * 2 == Vector((1, 1))
