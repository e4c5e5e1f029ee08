"""Pairing coefficients, matrices, determinants, and the verdict report."""

import gc
import weakref
from fractions import Fraction

import pytest

from gkm import cohomology, lefschetz, linalg, localization
from gkm.cohomology import equivariant_symplectic_class, slice_dimension
from gkm.corpus import corpus, corpus_names
from gkm.errors import DegreeError, GkmError, NotDivisible, TypeMismatch
from gkm.graph import (
    Edge,
    GkmGraph,
    OrientedGkmGraph,
    Vertex,
    find_index_increasing_xi,
    orient,
)
from gkm.lefschetz import (
    check_column_independence,
    check_pairing_identity,
    check_sign_conditions,
    coefficient_pairs,
    hard_lefschetz_report,
    hr_matrix,
    mixed_hr2_matrix,
    moment_ratio,
    thom_coefficient,
)
from gkm.localization import euler_class
from gkm.polynomial import Polynomial, Vector, lin_form


def oriented(name):
    inst = corpus(name)
    return orient(inst.graph, inst.xi)


@pytest.fixture(scope="module")
def cp3():
    return oriented("cp3-k4")


@pytest.fixture(scope="module")
def tol():
    return oriented("tol-d")


@pytest.fixture(scope="module")
def flag():
    return oriented("flag-su3")


# -- moment ratio and restriction coefficient -----------------------------------------

def test_cp3_ratio_and_coefficient(cp3):
    assert moment_ratio(cp3, "A", "B") == 1
    assert thom_coefficient(cp3, "A", "B") == 1


def test_thom_coefficient_with_swapped_indices_is_a_gkm_error(cp3):
    with pytest.raises(GkmError, match="index-two p and an index-four q"):
        thom_coefficient(cp3, "B", "A")


def test_thom_coefficient_is_the_restriction_to_an_index_four_neighbor():
    # Over 24 orientations (each instance at its document covector and its
    # first 3 searched ones): for every adjacent index-two p and index-four
    # q, tau_p^+ vanishes at q's other below-neighbor v, and the coefficient
    # times the weight form read from q toward v is tau_p^+(q).
    orientations = pairs = 0
    for inst in map(corpus, corpus_names()):
        for xi in [inst.xi] + find_index_increasing_xi(inst.graph, 3):
            og = orient(inst.graph, xi)
            orientations += 1
            for p in og.vertices_of_index(1):
                tau = cohomology.thom_class(og, p, "plus")
                for q in og.vertices_of_index(2):
                    if not og.graph.adjacent(p, q):
                        continue
                    v = lefschetz.below_neighbor(og, q, excluding=p)
                    weight = og.graph.edge_between(q, v).weight_from(q)
                    assert tau.value(v).is_zero(), (inst.name, xi, p, q)
                    assert thom_coefficient(og, p, q) * lin_form(weight) == tau.value(q)
                    pairs += 1
    assert orientations == 24
    assert pairs > orientations


def test_thom_coefficient_off_the_weight_is_not_divisible(cp3, monkeypatch):
    # A degree-2 stand-in for tau_A^+ is no multiple of a weight form at B.
    omega = equivariant_symplectic_class(cp3.graph)
    monkeypatch.setattr(lefschetz, "thom_class",
                        lambda og, vid, direction="plus": omega * omega)
    with pytest.raises(NotDivisible, match="value at B is no multiple of the weight of"):
        thom_coefficient(cp3, "A", "B")


def test_nonadjacent_pairs_give_zeros():
    # Each index-two vertex of the 8-vertex instance misses exactly one
    # index-four vertex, so the zero branch is genuinely exercised.
    og = oriented("cube-g")
    pairs = coefficient_pairs(og)
    nonadj = [c for c in pairs if not c.adjacent]
    assert len(nonadj) == 3
    for c in nonadj:
        assert c.moment_ratio == 0
        assert c.thom_coefficient == 0


def test_doubling_positions_doubles_ratios():
    from gkm.graph import GkmGraph, Vertex

    inst = corpus("cp3-k4")
    g = inst.graph
    doubled = GkmGraph(
        g.rank, g.valence,
        [Vertex(v.id, v.mu * 2) for v in g.vertices],
        g.edges,
    )
    og, og2 = orient(g, inst.xi), orient(doubled, inst.xi)
    for p in og.vertices_of_index(1):
        for q in og.vertices_of_index(2):
            assert moment_ratio(og2, p, q) == 2 * moment_ratio(og, p, q)


def test_tol_d_interior_coefficient_negative(tol):
    # The interior adjacent pair: restriction coefficient is negative, and
    # equals -3/5 for the derived axial function.
    assert thom_coefficient(tol, "p1", "q1") == Fraction(-3, 5)
    assert moment_ratio(tol, "p1", "q1") == Fraction(1, 3)


def test_all_other_tol_coefficients_positive(tol):
    for c in coefficient_pairs(tol):
        if c.adjacent and (c.p, c.q) != ("p1", "q1"):
            assert c.thom_coefficient > 0, (c.p, c.q)


# -- the degree-2 mixed matrix ----------------------------------------------------------

def test_cp3_mixed_matrix_is_minus_one(cp3):
    assert mixed_hr2_matrix(cp3) == [[Fraction(-1)]]


def test_tol_d_mixed_matrix_matches_hand_computation(tol):
    # Rows q1, q2 (by pairing), columns p2, p1.  Entries -c*l with the
    # hand-derived ratios (3/5, 2/3, 1/3, 3/5) and coefficients
    # (1, 4/5, -3/5, 1); determinant 7/15.
    expected = [
        [Fraction(-3, 5), Fraction(1, 5)],
        [Fraction(-8, 15), Fraction(-3, 5)],
    ]
    assert mixed_hr2_matrix(tol) == expected
    assert linalg.determinant(expected) == Fraction(7, 15)


def test_flag_mixed_matrix_matches_hand_computation(flag):
    expected = [
        [Fraction(-1), Fraction(-2)],
        [Fraction(-2), Fraction(-1)],
    ]
    assert mixed_hr2_matrix(flag) == expected
    assert linalg.determinant(expected) == Fraction(-3)


def test_pairing_identity_on_all_instances():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        witnesses = check_pairing_identity(og)
        assert witnesses, inst.name
        b2 = og.betti()[1]
        assert len(witnesses) == b2 * b2


def test_entry_zero_iff_nonadjacent():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        ps = og.vertices_of_index(1)
        qs = og.vertices_of_index(2)
        a = mixed_hr2_matrix(og)
        for j, q in enumerate(qs):
            for k, p in enumerate(ps):
                assert (a[j][k] == 0) == (not og.graph.adjacent(p, q))


# -- HR matrices --------------------------------------------------------------------------

def test_cp3_hr_determinants(cp3):
    assert linalg.determinant(hr_matrix(cp3, 0)) == -1
    assert linalg.determinant(hr_matrix(cp3, 2)) == -1
    assert linalg.determinant(hr_matrix(cp3, 4)) == 1
    assert linalg.determinant(hr_matrix(cp3, 6)) == 1


def test_hr_top_pairing_is_identity_entry(cp3):
    assert hr_matrix(cp3, 6) == [[Fraction(1)]]


def test_hr_rejects_odd_degree(cp3):
    with pytest.raises(DegreeError):
        hr_matrix(cp3, 3)


@pytest.mark.parametrize("k", ["2", 2.0, Fraction(2), True, False, None])
def test_hr_rejects_a_degree_that_is_not_an_int(cp3, k):
    # False is an int subclass equal to 0, which would pass the range check.
    with pytest.raises(DegreeError, match="k must be an even int in 0..6"):
        hr_matrix(cp3, k)


def test_flag_hr2_two_by_two_nonsingular(flag):
    m = hr_matrix(flag, 2)
    assert len(m) == len(m[0]) == 2
    assert linalg.determinant(m) != 0


def test_hr2_and_mixed_nonsingularity_agree():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        det_mixed = linalg.determinant(mixed_hr2_matrix(og))
        det_plus = linalg.determinant(hr_matrix(og, 2))
        assert (det_mixed != 0) == (det_plus != 0), inst.name


# -- column independence -------------------------------------------------------------------

def test_column_independence_on_d_and_f():
    for name in ("tol-d", "flag-su3"):
        witness = check_column_independence(oriented(name))
        assert Fraction(witness["t0"]) != 0
        assert Fraction(witness["second_combination"]) != 0
        assert Fraction(witness["collinearity"]) != 0


def test_column_independence_type_mismatch(cp3):
    with pytest.raises(TypeMismatch):
        check_column_independence(cp3)


# -- sign conditions --------------------------------------------------------------------------

def test_sign_conditions_hold_everywhere():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        witnesses = check_sign_conditions(og)
        assert witnesses, inst.name


def test_tol_d_side_criterion_detects_negative(tol):
    witnesses = check_sign_conditions(tol)
    interior = [w for w in witnesses
                if w.get("p") == "p1" and w.get("q") == "q1"
                and w["check"] == "side-criterion"]
    assert len(interior) == 1
    assert interior[0]["same_side"] is False


# -- the report ---------------------------------------------------------------------------------

def test_reports_on_all_instances():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        report = hard_lefschetz_report(og)
        assert report.ok, f"{inst.name}:\n{report.to_text()}"
        assert report.hard_lefschetz is inst.expected_hl
        assert report.betti == inst.expected_betti
        assert report.table.label == inst.expected_type
        assert report.verdicts == {k: True for k in (0, 2, 4, 6)}


def test_type_g_determinant_negative():
    og = oriented("cube-g")
    report = hard_lefschetz_report(og)
    check = [c for c in report.checks if c["name"] == "type-g-determinant"]
    assert check and check[0]["ok"]
    # With zeros permuted onto the diagonal the determinant reduces to the
    # two 3-cycle products; with every cycle convex each factor is negative,
    # so the permuted determinant is negative (the raw one differs by the
    # permutation sign but is equally nonzero).
    a = mixed_hr2_matrix(og)
    zero_cols = [next(k for k, entry in enumerate(row) if entry == 0) for row in a]
    b = [[a[j][zero_cols[k]] for k in range(3)] for j in range(3)]
    formula = b[0][1] * b[1][2] * b[2][0] + b[0][2] * b[1][0] * b[2][1]
    assert linalg.determinant(b) == formula < 0
    assert all(entry < 0 for j, row in enumerate(b)
               for k, entry in enumerate(row) if j != k)
    assert report.mixed_determinant != 0


def test_report_identical_across_xi_choices():
    for inst in map(corpus, corpus_names()):
        keys = []
        for xi in find_index_increasing_xi(inst.graph, count=3):
            report = hard_lefschetz_report(orient(inst.graph, xi))
            assert report.ok
            keys.append((report.hard_lefschetz, report.betti))
        assert len(set(keys)) == 1, inst.name


def test_report_ok_under_reversed_covector():
    # Reversing the covector swaps the roles of the extremes; the verdict
    # and the (palindromic) Betti numbers survive.
    for inst in map(corpus, corpus_names()):
        base = hard_lefschetz_report(orient(inst.graph, inst.xi))
        flipped = hard_lefschetz_report(orient(inst.graph, -inst.xi))
        assert flipped.ok, inst.name
        assert flipped.hard_lefschetz == base.hard_lefschetz
        assert flipped.betti == tuple(reversed(base.betti))
        assert (flipped.o, flipped.r) == (base.r, base.o)


def test_report_invariant_under_positive_scaling():
    for inst in map(corpus, corpus_names()):
        a = hard_lefschetz_report(orient(inst.graph, inst.xi))
        b = hard_lefschetz_report(orient(inst.graph, inst.xi * Fraction(7, 3)))
        assert a.to_jsonable() == b.to_jsonable(), inst.name


def _scaled(name, s):
    """The corpus instance with every weight and moment multiplied by s."""
    inst = corpus(name)
    g = inst.graph
    return inst, GkmGraph(g.rank, g.valence, [Vertex(v.id, v.mu * s) for v in g.vertices],
                          [Edge(e.first, e.second, e.weight * s) for e in g.edges])


def _assert_exact_results(og):
    """dot, cross, mu_xi, moment_ratio and evaluate give an int or a Fraction,
    never a float; moment_ratio and evaluate always give a Fraction."""
    g, exact = og.graph, (int, Fraction)
    for e in g.edges:
        step = g.mu(e.second) - g.mu(e.first)
        for value in (e.weight.dot(og.xi), step.dot(e.weight), step.cross(e.weight),
                      g.mu(e.first).cross(g.mu(e.second))):
            assert type(value) in exact, (e, value)
        assert type(moment_ratio(og, e.first, e.second)) is Fraction
        assert type(moment_ratio(og, e.second, e.first)) is Fraction
    for v in g.vertex_ids():
        assert type(og.mu_xi(v)) in exact
        nu = euler_class(og, v)
        for point in [*localization.evaluation_points(og), g.mu(v)]:
            assert type(nu.evaluate(point)) is Fraction


def _verdict(report):
    payload = report.to_jsonable()
    checks = [(c["name"], c["ok"]) for c in payload.pop("checks")]
    return checks, {k: payload[k] for k in ("betti", "type", "verdicts", "hard_lefschetz", "ok")}


def test_exact_results_on_corpus_orientations():
    for inst in map(corpus, corpus_names()):
        for xi in {inst.xi, *find_index_increasing_xi(inst.graph, count=3)}:
            _assert_exact_results(orient(inst.graph, xi))


@pytest.mark.parametrize("name", ["tol-d", "cp3-k4"])
@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(3, 5)], ids=str)
def test_exact_results_and_verdicts_under_rational_scaling(name, s):
    """Weights and moments over denominators 2 or 5 leave the integer fast
    path: results stay exact and the verdict is the unscaled one."""
    inst, scaled = _scaled(name, s)
    assert scaled.validate().ok
    assert any(e.weight.denominator != 1 for e in scaled.edges)
    og = orient(scaled, inst.xi)
    _assert_exact_results(og)
    assert _verdict(hard_lefschetz_report(og)) == \
        _verdict(hard_lefschetz_report(orient(inst.graph, inst.xi)))


def test_report_text_renders():
    report = hard_lefschetz_report(oriented("flag-su3"))
    text = report.to_text()
    assert "hard Lefschetz" in text
    assert "(f)" in text


def test_report_degrades_gracefully_without_index_increasing():
    inst = corpus("tol-d")
    og = orient(inst.graph, Vector((1, 3)))
    report = hard_lefschetz_report(og)
    assert not report.ok
    assert not report.index_increasing
    assert report.hard_lefschetz is None


def test_report_turns_helper_errors_into_failing_checks():
    from test_graph import three_up_edges_graph

    report = hard_lefschetz_report(three_up_edges_graph())
    failed = {c["name"]: c["detail"] for c in report.checks if not c["ok"]}
    assert "exactly two" in failed["cycle-shapes"]
    assert not report.ok


# -- each per-orientation quantity is computed once --------------------------------


def _counted(counter: list, fn):
    def wrapper(*args, **kwargs):
        counter.append(args)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("name", ["cube-g", "tol-d"])
def test_report_solves_each_thom_class_once_and_builds_mixed_matrix_once(
        name, monkeypatch):
    solves, nullspaces, bodies, requested = [], [], [], []
    monkeypatch.setattr(linalg, "solve", _counted(solves, linalg.solve))
    monkeypatch.setattr(linalg, "nullspace", _counted(nullspaces, linalg.nullspace))
    monkeypatch.setattr(lefschetz, "_mixed_hr2_entries",
                        _counted(bodies, lefschetz._mixed_hr2_entries))
    monkeypatch.setattr(lefschetz, "thom_class",
                        _counted(requested, lefschetz.thom_class))
    og = oriented(name)
    assert hard_lefschetz_report(og).ok
    distinct = {(vid, direction) for _, vid, direction in requested}
    assert len(requested) > len(distinct) == 2 * len(og.graph.vertices)
    assert len(solves) == len(distinct)
    # No nullspace: low-degree vanishing is certified on the stored Thom
    # classes, and the slice dimensions it compares with come from ranks.
    assert len(nullspaces) == 0
    assert len(bodies) == 1
    # ``oriented`` builds a new graph, so both stores start empty.
    assert hard_lefschetz_report(oriented(name)).ok
    assert len(solves) == 2 * len(distinct) and len(bodies) == 2


@pytest.mark.parametrize("name", ["cp3-k4", "cube-g"])
def test_orientations_of_one_graph_share_its_store_and_keep_their_own(name, monkeypatch):
    checked, ranks, solves = [], [], []
    real = cohomology._first_violation
    monkeypatch.setattr(cohomology, "_first_violation",
                        lambda graph, values: checked.append(values) or real(graph, values))
    monkeypatch.setattr(linalg, "rank", _counted(ranks, linalg.rank))
    monkeypatch.setattr(linalg, "solve", _counted(solves, linalg.solve))
    inst = corpus(name)
    g = inst.graph
    xi = next(xi for xi in find_index_increasing_xi(g, count=2) if xi != inst.xi)
    ogs = orient(g, inst.xi), orient(g, xi)
    assert all(hard_lefschetz_report(og).ok for og in ogs)
    omega = equivariant_symplectic_class(g)
    assert sum(values is omega.values for values in checked) == 1
    assert len(ranks) == g.valence  # one per slice degree below the valence
    for v in g.vertex_ids():
        assert euler_class(ogs[0], v) is euler_class(ogs[1], v)
        assert euler_class(ogs[0], v, "plus") is not euler_class(ogs[1], v, "plus")
    assert localization._common_multiple(ogs[0]) is localization._common_multiple(ogs[1])
    # Thom classes stay per orientation: each one solves all of its own.
    assert len(solves) == 2 * 2 * len(g.vertices)
    fresh = GkmGraph(g.rank, g.valence, g.vertices, g.edges)
    assert equivariant_symplectic_class(fresh).values is not omega.values
    assert slice_dimension(fresh, 1) == slice_dimension(g, 1)
    assert len(ranks) == g.valence + 1


def test_a_reported_graph_is_freed_without_the_cycle_collector():
    """Nothing a report stores refers back to its graph, so the graph and
    its store go with their last reference, not at a later collection."""
    inst = corpus("cp3-k4")  # a new graph, referred to by inst alone
    gc.disable()
    try:
        assert hard_lefschetz_report(orient(inst.graph, inst.xi)).ok
        graph = weakref.ref(inst.graph)
        del inst
        assert graph() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["flag-su3", "cube-g"])
def test_report_classifies_and_shapes_cycles_once(name, monkeypatch):
    # flag-su3 (type f) also runs column-independence, cube-g (type g) the
    # type-g determinant; both run the sign conditions.
    types, shapes = [], []
    monkeypatch.setattr(lefschetz, "classify_type",
                        _counted(types, lefschetz.classify_type))
    monkeypatch.setattr(lefschetz, "cycle_shape", _counted(shapes, lefschetz.cycle_shape))
    og = oriented(name)
    assert hard_lefschetz_report(og).ok
    assert len(types) == 1
    assert len(shapes) == len(og.vertices_of_index(1))


@pytest.mark.parametrize("name", ["cube-g", "tol-d"])
def test_report_finds_and_checks_each_ascending_cycle_once(name, monkeypatch):
    # classify-type and cycle-shapes both read the cycle at each index-two vertex.
    bodies = []
    monkeypatch.setattr(OrientedGkmGraph, "_ascending_cycle",
                        _counted(bodies, OrientedGkmGraph._ascending_cycle))
    og = oriented(name)
    assert hard_lefschetz_report(og).ok
    assert sorted(p for _, p in bodies) == sorted(og.vertices_of_index(1))


# -- low-degree vanishing is certified on the Thom classes --------------------------

def test_broken_weight_fails_low_degree_vanishing_at_a_vertex():
    # Doubling one weight keeps moment compatibility and every congruence
    # (the perpendicular is the same), but the Euler classes change, so a
    # Thom class's localization numerator no longer vanishes.
    inst = corpus("cp3-square")
    g = inst.graph
    first = g.edges[0]
    edges = [Edge(first.first, first.second, first.weight * 2), *g.edges[1:]]
    broken = GkmGraph(g.rank, g.valence, g.vertices, edges)
    report = hard_lefschetz_report(orient(broken, inst.xi))
    failed = {c["name"]: c["detail"] for c in report.checks if not c["ok"]}
    detail = failed["low-degree-vanishing"]
    vertex, _, rest = detail.removeprefix("tau_").partition("^+: ")
    assert vertex in g.vertex_ids()
    assert rest.startswith("numerator sum is ") and rest.endswith(", expected 0")


def test_low_degree_count_failure_names_its_degree(monkeypatch):
    monkeypatch.setattr(lefschetz, "slice_dimension", lambda graph, d: 2)
    report = hard_lefschetz_report(oriented("cp3-k4"))
    failed = {c["name"]: c["detail"] for c in report.checks if not c["ok"]}
    assert failed == {
        "low-degree-vanishing": "degree 0: 1 Thom products but slice dimension 2"
    }


def test_shortcut_failure_names_its_entry(monkeypatch):
    # A degree-3 stand-in for nu_q^+ divides no nonzero degree-2 value, so
    # the first adjacent pair (a nonzero entry) has no shortcut ratio.
    monkeypatch.setattr(lefschetz, "euler_class",
                        lambda og, vid, variant="full": Polynomial.variable(0) ** 3)
    og = oriented("cp3-k4")
    report = hard_lefschetz_report(og)
    failed = {c["name"]: c["detail"] for c in report.checks if not c["ok"]}
    q, p = next((q, p) for q in og.vertices_of_index(2) for p in og.vertices_of_index(1)
                if og.graph.adjacent(p, q))
    assert failed["pairing-identity"] == (
        f"entry ({q}, {p}): shortcut value is no multiple of nu_q^+")


def test_stored_pairing_data_is_handed_out_as_copies(tol):
    matrix = mixed_hr2_matrix(tol)
    matrix[0][0] = 99
    matrix.append([])
    pairs = coefficient_pairs(tol)
    pairs.clear()
    fresh = oriented("tol-d")
    assert mixed_hr2_matrix(tol) == mixed_hr2_matrix(fresh)
    assert coefficient_pairs(tol) == coefficient_pairs(fresh) != []
