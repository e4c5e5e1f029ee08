"""Graph axioms, orientation, Morse data, reachability, ascending cycles."""

import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkm import cohomology, lefschetz, localization
from gkm.corpus import corpus, corpus_names
from gkm.errors import DegreeError, GkmError, NotGeneric, PreconditionError, ScopeError
from gkm.graph import Edge, GkmGraph, Vertex, find_index_increasing_xi, orient
from gkm.jsonio import document_to_graph, graph_to_document
from gkm.polynomial import Vector


@pytest.fixture(scope="module")
def cp3():
    return corpus("cp3-k4").graph


@pytest.fixture(scope="module")
def flag():
    return corpus("flag-su3").graph


# -- construction ---------------------------------------------------------------

def test_cp3_positions_match_projection(cp3):
    assert cp3.mu("A") == Vector((0, 0))
    assert cp3.mu("B") == Vector((1, 0))
    assert cp3.mu("C") == Vector((0, 1))
    assert cp3.mu("D") == Vector((-1, -2))


def test_construction_rejects_multi_edges():
    vs = [Vertex("a", Vector((0, 0))), Vertex("b", Vector((1, 0)))]
    es = [Edge("a", "b", Vector((1, 0))), Edge("b", "a", Vector((-1, 0)))]
    with pytest.raises(ValueError):
        GkmGraph(2, 1, vs, es)


def test_construction_rejects_loops_and_zero_weights():
    vs = [Vertex("a", Vector((0, 0))), Vertex("b", Vector((1, 0)))]
    with pytest.raises(ValueError):
        GkmGraph(2, 1, vs, [Edge("a", "a", Vector((1, 0)))])
    with pytest.raises(ValueError):
        GkmGraph(2, 1, vs, [Edge("a", "b", Vector((0, 0)))])


_A = Vertex("a", Vector((0, 0)))
_B = Vertex("b", Vector((1, 0)))
_AB = Edge("a", "b", Vector((1, 0)))


@pytest.mark.parametrize("args, message", [
    ((2, "3", [_A, _B], [_AB]), "valence must be a non-negative int, got '3'"),
    ((2, True, [_A, _B], [_AB]), "valence must be a non-negative int, got True"),
    ((2, -1, [_A, _B], [_AB]), "valence must be a non-negative int, got -1"),
    ((2.0, 1, [_A, _B], [_AB]), "rank must be 2"),
    ((2, 1, [_A, Vertex(1, Vector((1, 0)))], []), "vertices: Vertex"),
    ((2, 1, [_A, Vertex("", Vector((1, 0)))], []), "vertices: Vertex"),
    ((2, 1, [_A, Vertex("b", (1, 0))], [_AB]), "vertices: Vertex"),
    ((2, 1, [_A, ("b", Vector((1, 0)))], []), "vertices: "),
    ((2, 1, [_A, _B], [Edge("a", "b", (1, 0))]), "edges: Edge"),
    ((2, 1, [_A, _B], [Edge("a", ["b"], Vector((1, 0)))]), "edges: Edge"),
    ((2, 1, [_A, _B], [("a", "b")]), "edges: "),
    ((2, 3, None, []), "vertices must be iterable, got None"),
    ((2, 3, [], 5), "edges must be iterable, got 5"),
], ids=["valence-str", "valence-bool", "valence-negative", "rank-float", "id-int",
        "id-empty", "mu-tuple", "vertex-tuple", "weight-tuple", "endpoint-list", "edge-tuple",
        "vertices-none", "edges-int"])
def test_construction_refuses_wrong_types_with_a_precondition_error(args, message):
    """Each message starts with the argument it refuses."""
    with pytest.raises(PreconditionError, match="^" + re.escape(message)):
        GkmGraph(*args)


def test_betti_numbers_of_a_vertex_above_the_valence_are_a_degree_error():
    """An unvalidated document with a smaller valence than its degrees."""
    inst = corpus("cp3-k4")
    graph, _ = document_to_graph({**graph_to_document(inst.graph), "valence": 1})
    og = orient(graph, inst.xi)
    with pytest.raises(DegreeError, match="^B has down-degree 2, above the valence 1$"):
        og.betti()
    with pytest.raises(DegreeError):
        lefschetz.hard_lefschetz_report(og)


# -- validate -------------------------------------------------------------------

def test_corpus_instances_validate():
    for inst in map(corpus, corpus_names()):
        report = inst.graph.validate()
        assert report.ok, f"{inst.name}:\n{report}"


def test_primitive_weight_breaks_matching(cp3):
    # Replace the B-D weight by its primitive direction: moment compatibility
    # survives but the congruence matching at an edge incident to B fails.
    edges = []
    for e in cp3.edges:
        if e.pair == frozenset(("B", "D")):
            w = e.weight_from("B")
            half = Vector((w[0] / 2, w[1] / 2))
            edges.append(Edge("B", "D", half))
        else:
            edges.append(e)
    g = GkmGraph(2, 3, cp3.vertices, edges)
    report = g.validate()
    failed = {c.name for c in report if not c.ok}
    assert "weight-matching" in failed
    assert "moment-compatibility" not in failed
    matching = next(c for c in report.checks if c.name == "weight-matching")
    assert "B" in matching.detail


def test_single_vertex_graph_is_vacuously_valid():
    g = GkmGraph(2, 0, [Vertex("v", Vector((0, 0)))], [])
    assert g.validate().ok


def test_disconnected_graph_reported():
    vs = [Vertex("a", Vector((0, 0))), Vertex("b", Vector((1, 0))),
          Vertex("c", Vector((0, 1))), Vertex("d", Vector((1, 1)))]
    es = [Edge("a", "b", Vector((1, 0))), Edge("c", "d", Vector((1, 0)))]
    g = GkmGraph(2, 1, vs, es)
    failed = {c.name for c in g.validate() if not c.ok}
    assert "connected" in failed


def _cp3_document(edit):
    doc = graph_to_document(corpus("cp3-k4").graph)
    edit(doc)
    return doc


def _drop_edge_b_d(doc):
    doc["edges"] = [e for e in doc["edges"] if (e["from"], e["to"]) != ("B", "D")]


def _set(path, value):
    def edit(doc):
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value
    return edit


_TWO_SEGMENTS = {
    "rank": 2, "valence": 1,
    "vertices": [{"id": v, "mu": mu} for v, mu in
                 [("a", ["0", "0"]), ("b", ["1", "0"]), ("c", ["0", "1"]), ("d", ["1", "1"])]],
    "edges": [{"from": "a", "to": "b", "weight": ["1", "0"]},
              {"from": "c", "to": "d", "weight": ["1", "0"]}],
}

# One document per validation check, each built to break that check; the
# full report, other checks included, is pinned as text and as JSON.
_BROKEN_DOCUMENTS = {
    "valence": (_cp3_document(_drop_edge_b_d), {
        "valence": "vertices with degree != 3: B, D",
        "edge-count": "2|E|=10 but n|V|=12",
        "weight-matching": "edges without a congruence matching: A-B, A-D, B-C, C-D",
    }),
    "edge-count": (_cp3_document(_set(["valence"], 4)), {
        "valence": "vertices with degree != 4: A, B, C, D",
        "edge-count": "2|E|=12 but n|V|=16",
    }),
    # The A-D weight along A-B: dependent at A, and no longer along mu(D) - mu(A).
    "weight-independence": (_cp3_document(_set(["edges", 2, "weight"], ["2", "0"])), {
        "weight-independence": "linearly dependent weights at: A",
        "moment-compatibility": "edges violating positive parallelism: A-D",
        "weight-matching": "edges without a congruence matching: A-B, A-C, A-D, B-D, C-D",
    }),
    "moment-compatibility": (_cp3_document(_set(["edges", 0, "weight"], ["-1", "0"])), {
        "moment-compatibility": "edges violating positive parallelism: A-B",
        "weight-matching": "edges without a congruence matching: A-C, A-D, B-C, B-D",
    }),
    "weight-matching": (_cp3_document(_set(["edges", 4, "weight"], ["-1", "-1"])), {
        "weight-matching": "edges without a congruence matching: A-B, A-D, B-C, C-D",
    }),
    "connected": (_TWO_SEGMENTS, {"connected": "graph is disconnected"}),
}

_CHECK_NAMES = ["valence", "edge-count", "weight-independence", "moment-compatibility",
                "weight-matching", "connected"]


@pytest.mark.parametrize("broken", list(_BROKEN_DOCUMENTS))
def test_failing_validation_output_is_pinned(broken):
    doc, failed = _BROKEN_DOCUMENTS[broken]
    graph, _ = document_to_graph(doc)
    report = graph.validate()
    assert broken in failed and not report.ok
    assert str(report) == "\n".join(
        f"[FAIL] {name}: {failed[name]}" if name in failed else f"[ok] {name}"
        for name in _CHECK_NAMES)
    assert report.to_jsonable() == [
        {"check": name, "ok": name not in failed, "detail": failed.get(name, "")}
        for name in _CHECK_NAMES]


def _matching_by_search(graph, e):
    """The exhaustive bijection search the cross-product rule replaced: the
    oracle that the rule must agree with."""
    left = [f.weight_from(e.first) for f in graph.edges_at(e.first) if f is not e]
    right = [f.weight_from(e.second) for f in graph.edges_at(e.second) if f is not e]
    return len(left) == len(right) and any(
        all((a - right[j]).cross(e.weight) == 0 for a, j in zip(left, perm))
        for perm in permutations(range(len(right))))


_COMPONENTS = st.one_of(st.integers(-3, 3),
                        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
_WEIGHTS = st.tuples(_COMPONENTS, _COMPONENTS).filter(any).map(Vector)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_cross_product_matching_rule_agrees_with_the_bijection_search(data):
    # One edge u-v of valence n = 3 or 4, its other weights at each end on
    # edges to leaves; every edge, u-v included, is stored either way round,
    # so each weight is read with either sign.  Half the cases have a
    # matching by construction, some of them broken at one weight.
    n = data.draw(st.sampled_from([3, 4]), label="valence")
    w = data.draw(_WEIGHTS, label="weight of u-v")
    others = st.lists(_WEIGHTS, min_size=n - 1, max_size=n - 1)
    left = data.draw(others, label="weights at u")
    if data.draw(st.booleans(), label="matched"):
        shifts = data.draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        right = [a + k * w for a, k in zip(data.draw(st.permutations(left)), shifts)]
        if data.draw(st.booleans(), label="broken"):
            right[0] = data.draw(_WEIGHTS)
        assume(not any(b.is_zero() for b in right))
    else:
        right = data.draw(others, label="weights at v")
    flips = data.draw(st.lists(st.booleans(), min_size=2 * n - 1, max_size=2 * n - 1))

    def edge(u, v, weight, flip):
        return Edge(v, u, -weight) if flip else Edge(u, v, weight)

    e = edge("u", "v", w, flips[0])
    edges = [e] + [edge(end, f"{end}{i}", a, flip)
                   for end, weights, fs in (("u", left, flips[1:n]), ("v", right, flips[n:]))
                   for i, (a, flip) in enumerate(zip(weights, fs))]
    ids = {x for f in edges for x in (f.first, f.second)}
    graph = GkmGraph(2, n, [Vertex(x, Vector((0, 0))) for x in sorted(ids)], edges)
    assert graph._has_weight_matching(e) == _matching_by_search(graph, e)


# -- orientation -----------------------------------------------------------------

def test_cp3_orientation_with_xi_1_3(cp3):
    og = orient(cp3, Vector((1, 3)))
    assert [og.mu_xi(v) for v in "ABCD"] == [0, 1, 3, -7]
    assert {v: og.down_degree(v) for v in "ABCD"} == {"D": 0, "A": 1, "B": 2, "C": 3}
    assert og.o_vertex() == "D"
    assert og.r_vertex() == "C"


def test_cp3_not_generic_xi(cp3):
    with pytest.raises(NotGeneric):
        orient(cp3, Vector((0, 1)))  # orthogonal to the A-B weight (1,0)


def test_orientation_reversal_flips_down_degrees():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        rev = orient(inst.graph, -inst.xi)
        n = inst.graph.valence
        for v in inst.graph.vertex_ids():
            assert rev.down_degree(v) == n - og.down_degree(v)
        assert og.is_index_increasing() == rev.is_index_increasing()


@pytest.mark.parametrize("name", corpus_names())
def test_each_edge_is_stored_once_up_and_once_down(name):
    g = corpus(name).graph
    xis = find_index_increasing_xi(g, count=13)
    assert len(xis) == 13
    for xi in xis + [-xi for xi in xis]:
        og = orient(g, xi)
        ups = [e for v in g.vertex_ids() for e in og.up_edges(v)]
        downs = [e for v in g.vertex_ids() for e in og.down_edges(v)]
        assert sorted(map(str, ups)) == sorted(map(str, downs)) == sorted(map(str, g.edges))
        # An edge ascends from its first end exactly when xi pairs
        # positively with its weight.
        head = {e: e.second if e.weight.dot(xi) > 0 else e.first for e in g.edges}
        for e in g.edges:
            assert e in og.down_edges(head[e]) and e in og.up_edges(e.other(head[e]))
        for v in g.vertex_ids():
            assert og.down_degree(v) + len(og.up_edges(v)) == len(g.edges_at(v))
            # Stored in ``graph.edges`` order, as the filtered adjacency gives them.
            assert og.down_edges(v) == [e for e in g.edges_at(v) if head[e] == v]
            assert og.up_edges(v) == [e for e in g.edges_at(v) if head[e] != v]
        assert sum(og.betti()) == len(g.vertices)


def test_betti_numbers_and_down_degrees():
    expected = {inst.name: inst.expected_betti for inst in map(corpus, corpus_names())}
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        betti = og.betti()
        assert betti == expected[inst.name], inst.name
        assert sum(betti) == len(inst.graph.vertices)
        assert betti[1] == len(inst.graph.vertices) // 2 - 1
        for d, count in enumerate(betti):
            assert sum(og.down_degree(v) == d for v in inst.graph.vertex_ids()) == count


def test_corpus_is_index_increasing():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        assert og.is_index_increasing(), inst.name


def test_index_increasing_fails_for_bad_xi():
    # tol-d under (1, 3): generic but the top vertex is no longer extremal.
    g = corpus("tol-d").graph
    og = orient(g, Vector((1, 3)))
    assert not og.is_index_increasing()


# -- structural invariants for 6-dimensional instances ---------------------------

def test_at_most_eight_vertices_and_adjacency_structure():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        assert len(inst.graph.vertices) <= 8
        o, r = og.o_vertex(), og.r_vertex()
        for p in og.vertices_of_index(1):
            assert inst.graph.adjacent(p, o), f"{inst.name}: {p} not adjacent to {o}"
        for q in og.vertices_of_index(2):
            assert inst.graph.adjacent(q, r), f"{inst.name}: {q} not adjacent to {r}"


# -- reachability -----------------------------------------------------------------

def test_reachability_extremes(cp3):
    og = orient(cp3, Vector((1, 3)))
    assert og.ascending_reachable("D") == frozenset("ABCD")
    assert og.ascending_reachable("C") == frozenset("C")
    assert og.ascending_reachable("A") == frozenset("ABC")
    assert og.descending_reachable("D") == frozenset("D")


def test_reachability_monotone_in_mu_xi():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        for v in inst.graph.vertex_ids():
            base = og.mu_xi(v)
            for w in og.ascending_reachable(v):
                assert og.mu_xi(w) >= base


# -- ascending cycles --------------------------------------------------------------

def test_cp3_cycle_triangular(cp3):
    og = orient(cp3, Vector((1, 3)))
    assert og.ascending_cycle("A") == ("A", "B", "C")


def test_tol_d_interior_cycle_tetragonal():
    inst = corpus("tol-d")
    og = orient(inst.graph, inst.xi)
    cycle = og.ascending_cycle("p1")
    assert len(cycle) == 4
    assert set(cycle) == {"p1", "q1", "q2", "r"}


def test_flag_cycles_both_tetragonal(flag):
    inst = corpus("flag-su3")
    og = orient(inst.graph, inst.xi)
    cycles = [og.ascending_cycle(p) for p in og.vertices_of_index(1)]
    assert [len(c) for c in cycles] == [4, 4]


def test_cycle_scope_error():
    vs = [Vertex("a", Vector((0, 0))), Vertex("b", Vector((1, 0)))]
    g = GkmGraph(2, 1, vs, [Edge("a", "b", Vector((1, 0)))])
    og = orient(g, Vector((1, 1)))
    with pytest.raises(ScopeError):
        og.ascending_cycle("a")


def test_cycle_of_a_vertex_that_is_not_index_two_is_a_gkm_error():
    inst = corpus("tol-d")
    og = orient(inst.graph, inst.xi)
    with pytest.raises(GkmError, match="expected 1"):
        og.ascending_cycle(og.o_vertex())


def three_up_edges_graph():
    """Unvalidated 3-valent-by-declaration graph whose single index-two
    vertex p has three ascending edges (p and o have degree 4)."""
    pos = {"o": (0, 0), "p": (1, 0), "q1": (2, 1), "q2": (2, 2), "q3": (2, 3),
           "r": (3, 0)}
    pairs = [("o", "p"), ("o", "q1"), ("o", "q2"), ("o", "q3"), ("p", "q1"),
             ("p", "q2"), ("p", "q3"), ("q1", "r"), ("q2", "r"), ("q3", "r")]
    edges = [Edge(a, b, Vector(tuple(y - x for x, y in zip(pos[a], pos[b]))))
             for a, b in pairs]
    vertices = [Vertex(v, Vector(m)) for v, m in pos.items()]
    return orient(GkmGraph(2, 3, vertices, edges), Vector((1, 0)))


def test_cycle_with_three_up_edges_is_a_gkm_error():
    og = three_up_edges_graph()
    assert og.is_index_increasing() and og.down_degree("p") == 1
    with pytest.raises(GkmError, match="exactly two"):
        og.ascending_cycle("p")


# -- covector search ---------------------------------------------------------------

def test_find_xi_returns_index_increasing_choices():
    for inst in map(corpus, corpus_names()):
        choices = find_index_increasing_xi(inst.graph, count=3)
        assert len(choices) == 3, inst.name
        for xi in choices:
            og = orient(inst.graph, xi)
            assert og.is_index_increasing()


def test_find_xi_first_hits_are_deterministic():
    g = corpus("cp3-k4").graph
    first = find_index_increasing_xi(g, count=1)[0]
    assert first == Vector((1, 2))


def test_find_xi_count_zero_is_empty_and_negative_is_a_precondition_error():
    g = corpus("cp3-k4").graph
    assert find_index_increasing_xi(g, count=0) == []
    with pytest.raises(PreconditionError, match="count must be >= 0, got -2"):
        find_index_increasing_xi(g, count=-2)


@pytest.mark.parametrize("count", [1.5, Fraction(2), True, "2"])
def test_find_xi_count_must_be_an_int(count):
    g = corpus("cp3-k4").graph
    message = re.escape(f"count must be an int, got {count!r}")
    with pytest.raises(PreconditionError, match=message):
        find_index_increasing_xi(g, count=count)


# -- unknown vertex ids --------------------------------------------------------------

_UNKNOWN_VERTEX_CALLS = {
    "thom_class": lambda og: cohomology.thom_class(og, "Z"),
    "euler_class": lambda og: localization.euler_class(og, "Z"),
    "euler_class_plus": lambda og: localization.euler_class(og, "Z", "plus"),
    "thom_coefficient_p": lambda og: lefschetz.thom_coefficient(og, "Z", "B"),
    "thom_coefficient_q": lambda og: lefschetz.thom_coefficient(og, "A", "Z"),
    "moment_ratio_p": lambda og: lefschetz.moment_ratio(og, "Z", "B"),
    "moment_ratio_q": lambda og: lefschetz.moment_ratio(og, "A", "Z"),
    "mu": lambda og: og.graph.mu("Z"),
    "adjacent": lambda og: og.graph.adjacent("A", "Z"),
    "down_degree": lambda og: og.down_degree("Z"),
    "ascending_cycle": lambda og: og.ascending_cycle("Z"),
}


@pytest.mark.parametrize("entry", sorted(_UNKNOWN_VERTEX_CALLS))
def test_unknown_vertex_id_is_a_precondition_error(entry):
    inst = corpus("cp3-k4")
    og = orient(inst.graph, inst.xi)
    with pytest.raises(PreconditionError, match="unknown vertex 'Z'"):
        _UNKNOWN_VERTEX_CALLS[entry](og)


@pytest.mark.parametrize("method", ["other", "weight_from"])
def test_edge_read_from_a_non_endpoint_is_a_precondition_error(cp3, method):
    edge = cp3.edge_between("A", "B")
    with pytest.raises(PreconditionError, match="'C' is not an endpoint of A-B"):
        getattr(edge, method)("C")
