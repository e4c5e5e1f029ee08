"""Graph axioms, orientation, Morse data, reachability, ascending cycles."""

import pytest

from gkm.corpus import corpus, corpus_names
from gkm.errors import GkmError, NotGeneric, ScopeError
from gkm.graph import Edge, GkmGraph, Vertex, find_index_increasing_xi, orient
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
    failed = {c.name for c in report.failures()}
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
    failed = {c.name for c in g.validate().failures()}
    assert "connected" in failed


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
