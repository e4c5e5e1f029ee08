"""Exact polynomial ring: examples, ring axioms, division properties."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkm.errors import NotDivisible, RankMismatch
from gkm.polynomial import Polynomial, Vector, congruent_mod_linear, lin_form


def P(rank, terms):
    return Polynomial(rank, terms)


x1 = Polynomial.variable(2, 0)
x2 = Polynomial.variable(2, 1)


# -- lin_form -----------------------------------------------------------------

def test_lin_form_basis_vector():
    assert lin_form(Vector((1, 0))) == x1


def test_lin_form_zero_vector():
    assert lin_form(Vector((0, 0))) == Polynomial.zero(2)


def test_lin_form_general():
    assert lin_form(Vector((-1, -2))) == -x1 - 2 * x2


# -- multiply -----------------------------------------------------------------

def test_multiply_variables():
    assert x1 * x2 == P(2, {(1, 1): 1})


def test_multiply_difference_of_squares():
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2


def test_multiply_scalar():
    assert (2 * x1) * Fraction(1, 2) == x1


def test_multiply_rank_mismatch():
    with pytest.raises(RankMismatch):
        x1 * Polynomial.variable(3, 0)


# -- divide_by_linear ---------------------------------------------------------

def test_divide_difference_of_squares():
    assert (x1**2 - x2**2).divide_by_linear(x1 - x2) == x1 + x2


def test_divide_zero():
    assert Polynomial.zero(2).divide_by_linear(x1) == Polynomial.zero(2)


def test_divide_not_divisible():
    with pytest.raises(NotDivisible):
        x1.divide_by_linear(x2)


def test_divide_rejects_nonlinear_divisor():
    with pytest.raises(ValueError):
        x1.divide_by_linear(x1 * x1)
    with pytest.raises(ValueError):
        x1.divide_by_linear(x1 + 1)


# -- congruent_mod_linear -----------------------------------------------------

def test_congruent_squares():
    assert congruent_mod_linear(x1**2, x2**2, x1 - x2)


def test_congruent_identity():
    f = 3 * x1 * x2 - x2**2 + 7
    assert congruent_mod_linear(f, f, x1 + 5 * x2)


def test_congruent_false():
    assert not congruent_mod_linear(x1, Polynomial.zero(2), x2)


# -- evaluate -------------------------------------------------------------------

def test_evaluate_product_point():
    assert (x1 * x2).evaluate((2, 3)) == 6


def test_evaluate_at_zero_gives_constant_term():
    f = x1**2 + 5 * x2 + Fraction(7, 3)
    assert f.evaluate((0, 0)) == Fraction(7, 3)


def test_evaluate_difference_of_squares_diagonal():
    assert (x1**2 - x2**2).evaluate((1, 1)) == 0


def test_evaluate_rejects_floats():
    with pytest.raises(TypeError):
        x1.evaluate((0.5, 1))


# -- text form ------------------------------------------------------------------

def test_str_matches_documented_form():
    f = x1**2 - 2 * x1 * x2 + Fraction(1, 3)
    assert str(f) == "x1^2 - 2*x1*x2 + 1/3"


def test_str_zero():
    assert str(Polynomial.zero(2)) == "0"


def test_str_leading_negative_unit():
    assert str(-x1 - 2 * x2) == "-x1 - 2*x2"


# -- property tests -------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda d: Polynomial(2, d))
vectors2 = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(Vector)
nonzero_vectors2 = vectors2.filter(lambda v: not v.is_zero())


@settings(max_examples=60)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(polys, nonzero_vectors2)
def test_divide_after_multiply_roundtrip(q, w):
    ell = lin_form(w)
    assert (q * ell).divide_by_linear(ell) == q


@settings(max_examples=60)
@given(polys, polys, nonzero_vectors2)
def test_congruence_iff_difference_divisible(f, g, w):
    ell = lin_form(w)
    try:
        (f - g).divide_by_linear(ell)
        divisible = True
    except NotDivisible:
        divisible = False
    assert congruent_mod_linear(f, g, ell) == divisible


@settings(max_examples=60)
@given(polys, polys, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_evaluate_is_ring_homomorphism(a, b, pt):
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


# -- constructors ----------------------------------------------------------------

def test_constructor_rejects_float_coefficient():
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0)])
def test_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        Polynomial(2, {exps: 1})


@pytest.mark.parametrize("exps", [(1.5, 0), (Fraction(3, 2), 0), ("1", 0), (True, 0),
                                  (1.0, 0), (Fraction(1), 0)])
def test_constructor_takes_only_int_exponents(exps):
    # int() would truncate 1.5 and 3/2 to 1 and read "1" and True as 1.
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial(2, {exps: 1})


@pytest.mark.parametrize("index", [True, False, 1.0, "1", -1, 2])
def test_variable_index_must_be_an_int_in_range(index):
    with pytest.raises(ValueError, match="variable index must be an int in 0..1"):
        Polynomial.variable(2, index)


@pytest.mark.parametrize("n", [-1, 2.0, True, False])
def test_powers_take_only_non_negative_int_exponents(n):
    # A bool is an int subclass: x1 ** True would otherwise return x1.
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        x1 ** n


@settings(max_examples=60)
@given(polys, polys, nonzero_vectors2)
def test_arithmetic_results_are_canonical(a, b, w):
    ell = lin_form(w)
    results = [a + b, a - b, a * b, -a, (a * ell).divide_by_linear(ell), ell]
    for p in results:
        rebuilt = Polynomial(p.rank, dict(p.terms()))
        assert p == rebuilt
        assert hash(p) == hash(rebuilt)
        assert str(p) == str(rebuilt)
        assert all(c != 0 for _, c in p.terms())


# -- rank 3 division, pivot not the first variable --------------------------------

exponents3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys3 = st.dictionaries(exponents3, coeffs, max_size=5).map(lambda d: Polynomial(3, d))
nonzero_vectors3 = st.one_of(
    st.just(Vector((0, 2, -3))),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).map(Vector),
).filter(lambda v: not v.is_zero())


def test_divide_rank3_pivot_second_variable():
    y = [Polynomial.variable(3, i) for i in range(3)]
    ell = lin_form(Vector((0, 2, -3)))
    q = y[0] ** 2 * y[2] - 5 * y[1] + Fraction(1, 7)
    assert (q * ell).divide_by_linear(ell) == q
    with pytest.raises(NotDivisible):
        (q * ell + y[0] * y[2]).divide_by_linear(ell)


@settings(max_examples=60)
@given(polys3, nonzero_vectors3)
def test_divide_after_multiply_roundtrip_rank3(q, w):
    ell = lin_form(w)
    assert (q * ell).divide_by_linear(ell) == q


@settings(max_examples=60)
@given(polys3, polys3, nonzero_vectors3)
def test_nonzero_remainder_is_not_divisible_rank3(q, r, w):
    # A remainder free of the pivot variable (the first one ell uses) is
    # unique, so adding a nonzero one must break divisibility.
    ell = lin_form(w)
    pivot = next(i for i, c in enumerate(w) if c != 0)
    r = Polynomial(3, {e: c for e, c in r.terms() if e[pivot] == 0})
    assume(not r.is_zero())
    with pytest.raises(NotDivisible):
        (q * ell + r).divide_by_linear(ell)


# -- congruence against an evaluation oracle ----------------------------------------

@settings(max_examples=80)
@given(polys, polys, polys, nonzero_vectors2, st.booleans())
def test_congruence_matches_evaluation_oracle(f, g, q, w, shift):
    # ell_w vanishes exactly on the line through (w2, -w1), so ell_w divides
    # h iff every homogeneous component of h vanishes at that point.
    ell = lin_form(w)
    if shift:
        g = f + q * ell
    h = f - g
    point = (w[1], -w[0])
    terms = dict(h.terms())
    oracle = all(
        ref_value(ref_component(terms, d), point) == 0
        for d in {sum(e) for e in terms}
    )
    assert congruent_mod_linear(f, g, ell) == oracle
    if shift:
        assert oracle


# -- floats are rejected on every way in -----------------------------------------

@pytest.mark.parametrize("make", [
    lambda: Polynomial.constant(2, 0.5),
    lambda: Polynomial(2, {(1, 0): 0.5}),
    lambda: x1 * 0.5,
    lambda: x1 + 0.5,
], ids=["constant", "constructor", "multiply", "add"])
def test_floats_are_rejected_on_every_way_in(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: Polynomial.zero(0),
    lambda: Polynomial.constant(0, 1),
    lambda: Polynomial(0, {}),
], ids=["zero", "constant", "constructor"])
def test_rank_below_one_is_rejected(make):
    with pytest.raises(ValueError, match="rank must be >= 1"):
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


def ref_component(a, degree):
    return {e: c for e, c in a.items() if sum(e) == degree}


def ref_graded_values(a, point):
    values = {d: ref_value(ref_component(a, d), point) for d in {sum(e) for e in a}}
    return {d: v for d, v in values.items() if v}


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


def assert_matches(p, ref):
    # Canonical form: integer numerators, none zero, over one positive
    # denominator in lowest terms, which is 1 for the zero polynomial.
    assert isinstance(p._den, int) and p._den > 0
    assert all(isinstance(c, int) and c != 0 for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    terms = list(p.terms())
    assert terms == ref_order(ref)
    assert all(type(c) is Fraction for _, c in terms)
    for e, c in ref.items():
        assert p.coefficient(e) == c
    constant = (0,) * p.rank
    assert p.coefficient(constant) == ref.get(constant, 0)
    assert str(p) == ref_str(ref)
    rebuilt = Polynomial(p.rank, ref)
    assert p == rebuilt and hash(p) == hash(rebuilt)


rationals = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-2**40, 2**40).map(Fraction),
)


@st.composite
def oracle_cases(draw):
    rank = draw(st.integers(1, 3))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * rank), rationals, max_size=5)
    a, b, q, r = draw(polys), draw(polys), draw(polys), draw(polys)
    w = draw(st.tuples(*[st.fractions(-4, 4, max_denominator=5)] * rank).filter(any))
    pivot = next(i for i, c in enumerate(w) if c)
    # A remainder free of ell's pivot variable is unique, so a nonzero one
    # makes q * ell + r indivisible.
    r = ref_clean({e: c for e, c in r.items() if e[pivot] == 0})
    return (rank, ref_clean(a), ref_clean(b), ref_clean(q), r, w,
            draw(st.tuples(*[st.integers(-4, 4)] * rank)),
            draw(st.tuples(*[rationals] * rank)),
            draw(st.integers(0, 3)), draw(rationals))


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_every_operation_matches_the_fraction_reference(case):
    rank, a, b, q, r, w, int_point, point, n, s = case
    pa, pb = Polynomial(rank, a), Polynomial(rank, b)
    assert_matches(pa, a)
    assert_matches(Polynomial.zero(rank), {})
    assert_matches(Polynomial.constant(rank, s), ref_clean({(0,) * rank: s}))
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, b, -1))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(-pa, ref_add({}, a, -1))
    power = {(0,) * rank: Fraction(1)}
    for _ in range(n):
        power = ref_mul(power, a)
    assert_matches(pa**n, power)
    assert pa.evaluate(point) == ref_value(a, point)
    sums, den = pa.graded_numerators(int_point)
    assert den == pa._den and all(type(v) is int and v for v in sums.values())
    assert {d: Fraction(v, den) for d, v in sums.items()} == \
        ref_graded_values(a, int_point)
    assert (pa == pb) == (a == b)
    assert (pa == pb) <= (hash(pa) == hash(pb))

    # parallel_ratio against b: a itself, s * b, s * b with one coefficient
    # moved (same support and no multiple when b has two terms and s != -1),
    # and zero.
    if b:
        multiple = ref_mul(b, {(0,) * rank: s})
        moved = ref_add(multiple, dict([next(iter(b.items()))]))
        for left in (a, multiple, moved, {}):
            ratio = Polynomial(rank, left).parallel_ratio(pb)
            assert ratio == ref_ratio(left, b)
            assert ratio is None or type(ratio) is Fraction  # never a float
    with pytest.raises(ValueError):
        pa.parallel_ratio(Polynomial.zero(rank))

    ell = lin_form(Vector(w))
    assert_matches(ell, ref_clean({tuple(int(i == j) for j in range(rank)): c
                                   for i, c in enumerate(w)}))
    f = Polynomial(rank, ref_add(ref_mul(q, dict(ell.terms())), r))
    if r:
        with pytest.raises(NotDivisible):
            f.divide_by_linear(ell)
    else:
        assert_matches(f.divide_by_linear(ell), q)
