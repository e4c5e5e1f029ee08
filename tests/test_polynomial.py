"""Exact binary forms: examples, ring axioms, division properties."""

import json
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from gkm.corpus import corpus
from gkm.errors import NotDivisible, ParseError, ScopeError
from gkm.graph import GkmGraph
from gkm.jsonio import graph_to_document, loads
from gkm.polynomial import Polynomial, Vector, congruent_mod_linear, lin_form, power_row


def terms(p):
    """(exponents, coefficient) pairs of p read off its rows, graded-lex
    descending: highest degree first, then x1-heavy first."""
    return [((d - i, i), Fraction(n, p.denominator))
            for d in range(len(p.rows) - 1, -1, -1) for i, n in enumerate(p.rows[d]) if n]


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
        x1.divide_by_linear(x1 + 1)


# -- congruent_mod_linear -----------------------------------------------------

def test_congruent_squares():
    assert congruent_mod_linear(x1**2, x2**2, x1 - x2)


def test_congruent_identity():
    f = 3 * x1 * x2 - x2**2 + 7
    assert congruent_mod_linear(f, f, x1 + 5 * x2)


def test_congruent_false():
    assert not congruent_mod_linear(x1, Polynomial.zero(), x2)


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
    assert str(Polynomial.zero()) == "0"


def test_str_leading_negative_unit():
    assert str(-x1 - 2 * x2) == "-x1 - 2*x2"


# -- property tests -------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(Polynomial)
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
        Polynomial({(1, 0): 0.5})


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 0)])
def test_constructor_rejects_bad_exponents(exps):
    with pytest.raises(ValueError):
        Polynomial({exps: 1})


@pytest.mark.parametrize("exps", [(1.5, 0), (Fraction(3, 2), 0), ("1", 0), (True, 0),
                                  (1.0, 0), (Fraction(1), 0)])
def test_constructor_takes_only_int_exponents(exps):
    # int() would truncate 1.5 and 3/2 to 1 and read "1" and True as 1.
    with pytest.raises(ValueError, match="bad exponent vector"):
        Polynomial({exps: 1})


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
@given(polys, polys, nonzero_vectors2)
def test_arithmetic_results_are_canonical(a, b, w):
    ell = lin_form(w)
    results = [a + b, a - b, a * b, -a, (a * ell).divide_by_linear(ell), ell]
    for p in results:
        rebuilt = Polynomial(dict(terms(p)))
        assert p == rebuilt
        assert hash(p) == hash(rebuilt)
        assert str(p) == str(rebuilt)
        assert all(c != 0 for _, c in terms(p))


# -- division with x2 as the pivot ---------------------------------------------------

def test_divide_pivot_second_variable():
    ell = lin_form(Vector((0, Fraction(-3, 2))))
    q = x1 ** 2 * x2 - 5 * x1 + Fraction(1, 7)
    assert (q * ell).divide_by_linear(ell) == q
    with pytest.raises(NotDivisible):
        (q * ell + x1 ** 3).divide_by_linear(ell)


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
    h_terms = dict(terms(h))
    oracle = all(
        ref_value(ref_component(h_terms, d), point) == 0
        for d in {sum(e) for e in h_terms}
    )
    assert congruent_mod_linear(f, g, ell) == oracle
    if shift:
        assert oracle


# -- floats are rejected on every way in -----------------------------------------

@pytest.mark.parametrize("make", [
    lambda: Polynomial.constant(0.5),
    lambda: Polynomial({(1, 0): 0.5}),
    lambda: x1 * 0.5,
    lambda: x1 + 0.5,
], ids=["constant", "constructor", "multiply", "add"])
def test_floats_are_rejected_on_every_way_in(make):
    with pytest.raises(TypeError):
        make()


_CP3 = corpus("cp3-k4")


def _rank_3_document():
    return json.dumps({**graph_to_document(_CP3.graph, _CP3.xi), "rank": 3})


@pytest.mark.parametrize("make, error, message", [
    (lambda: Vector((1,)), ScopeError, "vectors are planar"),
    (lambda: Vector((1, 2, 3)), ScopeError, "vectors are planar"),
    (lambda: lin_form((1, 2, 3)), ScopeError, "vectors are planar"),
    (lambda: x1.evaluate((1, 2, 3)), ScopeError, "vectors are planar"),
    (lambda: GkmGraph(1, 3, _CP3.graph.vertices, _CP3.graph.edges), ValueError,
     "rank must be 2"),
    (lambda: GkmGraph(3, 3, _CP3.graph.vertices, _CP3.graph.edges), ValueError,
     "rank must be 2"),
    (lambda: loads(_rank_3_document()), ParseError, "^rank: expected 2"),
], ids=["vector-1", "vector-3", "lin_form", "evaluate", "graph-1", "graph-3", "document"])
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
    # Canonical form: row d empty or d + 1 integer numerators, not all zero,
    # the last row nonempty, over one positive denominator in lowest terms,
    # which is 1 for the zero polynomial.
    assert type(p.denominator) is int and p.denominator > 0
    assert type(p.rows) is tuple and (not p.rows or p.rows[-1])
    for d, row in enumerate(p.rows):
        assert type(row) is tuple and (row == () or (len(row) == d + 1 and any(row)))
        assert all(type(c) is int for c in row)
    assert gcd(p.denominator, *(c for row in p.rows for c in row)) == 1
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
    polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals,
                            max_size=5)
    a, b, q, r = draw(polys), draw(polys), draw(polys), draw(polys)
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
            draw(st.integers(0, 3)), draw(rationals))


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
def test_every_operation_matches_the_fraction_reference(case):
    a, b, q, r, w, int_point, point, n, s = case
    pa, pb = Polynomial(a), Polynomial(b)
    assert_matches(pa, a)
    assert_matches(Polynomial.zero(), {})
    assert_matches(Polynomial.constant(s), ref_clean({(0, 0): s}))
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, b, -1))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(-pa, ref_add({}, a, -1))
    power = {(0, 0): Fraction(1)}
    for _ in range(n):
        power = ref_mul(power, a)
    assert_matches(pa**n, power)
    assert pa.evaluate(point) == ref_value(a, point)
    sums = {d: sum(map(mul, row, power_row(int_point, d))) for d, row in enumerate(pa.rows)}
    assert all(type(v) is int for v in sums.values())
    assert {d: Fraction(v, pa.denominator) for d, v in sums.items() if v} == \
        ref_graded_values(a, int_point)
    assert (pa == pb) == (a == b)
    assert (pa == pb) <= (hash(pa) == hash(pb))

    # parallel_ratio against b: a itself, s * b, s * b with one coefficient
    # moved (same support and no multiple when b has two terms and s != -1),
    # and zero.
    if b:
        multiple = ref_mul(b, {(0, 0): s})
        moved = ref_add(multiple, dict([next(iter(b.items()))]))
        for left in (a, multiple, moved, {}):
            ratio = Polynomial(left).parallel_ratio(pb)
            assert ratio == ref_ratio(left, b)
            assert ratio is None or type(ratio) is Fraction  # never a float
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
