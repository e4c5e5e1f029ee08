"""Planar predicates, hulls, tetragon trichotomy, type classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkm.corpus import corpus, corpus_names
from gkm.errors import Degenerate, ScopeError
from gkm.geometry import (
    classify_tetragon,
    classify_type,
    convex_hull,
    cycle_shape,
    is_interior_vertex,
    on_hull_boundary,
    same_side,
)
from gkm.graph import orient
from gkm.polynomial import Vector


def V(*cs):
    return Vector(cs)


def oriented(name):
    inst = corpus(name)
    return orient(inst.graph, inst.xi)


# -- same_side ---------------------------------------------------------------------

def test_same_side_above():
    assert same_side(V(1, 1), V(2, 3), V(1, 0))


def test_same_side_split():
    assert not same_side(V(1, 1), V(1, -1), V(1, 0))


def test_same_side_on_line_counts_as_closure():
    assert same_side(V(3, 0), V(1, -5), V(1, 0))
    assert same_side(V(3, 0), V(1, 5), V(1, 0))


# -- tetragon trichotomy --------------------------------------------------------------

def test_unit_square_convex():
    assert classify_tetragon(V(0, 0), V(1, 0), V(1, 1), V(0, 1)) == "convex"


def test_concave_figure():
    quad = (V(0, 0), V(2, Fraction(3, 2)), V(0, 2), V(Fraction(1, 2), 1))
    assert classify_tetragon(*quad) == "concave"


def test_crossed_figure():
    quad = (V(0, 0), V(2, Fraction(1, 2)), V(0, 2), V(2, 2))
    assert classify_tetragon(*quad) == "crossed"


def test_degenerate_collinear():
    with pytest.raises(Degenerate):
        classify_tetragon(V(0, 0), V(1, 0), V(2, 0), V(0, 1))


points = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda t: Vector(t))


@settings(max_examples=120)
@given(points, points, points, points)
def test_classification_invariant_under_rotation_and_reversal(a, b, c, d):
    quad = [a, b, c, d]
    try:
        label = classify_tetragon(*quad)
    except Degenerate:
        return
    for shift in range(4):
        rotated = quad[shift:] + quad[:shift]
        assert classify_tetragon(*rotated) == label
        assert classify_tetragon(*reversed(rotated)) == label


@settings(max_examples=120)
@given(points, points, points, points)
def test_classification_matches_literal_definitions(a, b, c, d):
    """Cross-check the sign-pattern classifier against the three textbook
    definitions: all-same-side per extended side, triangular hull, or a pair
    of opposite sides crossing."""
    quad = [a, b, c, d]
    try:
        label = classify_tetragon(*quad)
    except Degenerate:
        return

    def side_of(p, q, r):
        return (q - p).cross(r - p)

    convex = True
    for i in range(4):
        p, q = quad[i], quad[(i + 1) % 4]
        others = [quad[(i + 2) % 4], quad[(i + 3) % 4]]
        s = [side_of(p, q, o) for o in others]
        if s[0] * s[1] < 0:
            convex = False
    hull = convex_hull(quad)
    concave = len(hull) == 3

    def segments_cross(p1, p2, p3, p4):
        d1 = side_of(p3, p4, p1)
        d2 = side_of(p3, p4, p2)
        d3 = side_of(p1, p2, p3)
        d4 = side_of(p1, p2, p4)
        return d1 * d2 < 0 and d3 * d4 < 0

    crossed = segments_cross(quad[0], quad[1], quad[2], quad[3]) or \
        segments_cross(quad[1], quad[2], quad[3], quad[0])

    expected = "convex" if convex else ("concave" if concave else "crossed")
    assert label == expected
    assert [convex, concave, crossed].count(True) == 1


# -- hulls ------------------------------------------------------------------------------

def test_hull_drops_edge_midpoints():
    pts = [V(0, 0), V(2, 0), V(1, 0), V(1, 2)]
    hull = convex_hull(pts)
    assert len(hull) == 3
    assert V(1, 0) not in hull
    assert on_hull_boundary(hull, V(1, 0))


def test_interior_matches_hull_boundary_on_corpus():
    for inst in map(corpus, corpus_names()):
        g = inst.graph
        hull = convex_hull([g.mu(v) for v in g.vertex_ids()])
        for vid in g.vertex_ids():
            weight_cone_interior = is_interior_vertex(g, vid)
            boundary = on_hull_boundary(hull, g.mu(vid))
            assert weight_cone_interior == (not boundary), (inst.name, vid)


def test_cp3_interior_vertices():
    g = corpus("cp3-k4").graph
    assert is_interior_vertex(g, "A")
    assert not is_interior_vertex(g, "D")


def test_tol_d_interior_vertices():
    g = corpus("tol-d").graph
    assert is_interior_vertex(g, "p1")
    assert is_interior_vertex(g, "q1")
    for vid in ("o", "p2", "q2", "r"):
        assert not is_interior_vertex(g, vid)


# -- cycle shapes --------------------------------------------------------------------------

def test_cp3_cycle_triangular():
    shape = cycle_shape(oriented("cp3-k4"), "A")
    assert shape.kind == "triangular"
    assert shape.tetra_class is None


def test_tol_d_interior_cycle_concave():
    shape = cycle_shape(oriented("tol-d"), "p1")
    assert shape.kind == "tetragonal"
    assert shape.tetra_class == "concave"


def test_tol_d_boundary_cycle_convex():
    shape = cycle_shape(oriented("tol-d"), "p2")
    assert shape.kind == "tetragonal"
    assert shape.tetra_class == "convex"


def test_flag_cycles_convex():
    og = oriented("flag-su3")
    for p in og.vertices_of_index(1):
        shape = cycle_shape(og, p)
        assert shape.kind == "tetragonal"
        assert shape.tetra_class == "convex"


def test_eight_vertex_cycles_all_tetragonal_convex():
    og = oriented("cube-g")
    shapes = [cycle_shape(og, p) for p in og.vertices_of_index(1)]
    assert len(shapes) == 3
    for s in shapes:
        assert s.kind == "tetragonal"
        assert s.tetra_class == "convex"


# -- classification -------------------------------------------------------------------------

def test_corpus_types_match_expectations():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        t = classify_type(og)
        assert t.label == inst.expected_type, inst.name


def test_classification_details_flag():
    t = classify_type(oriented("flag-su3"))
    assert (t.hull_shape, t.vertex_count, t.o_adjacent_r, t.tetragonal_cycles) == \
        ("hexagon", 6, True, 2)


def test_classification_details_tol_d():
    t = classify_type(oriented("tol-d"))
    assert (t.hull_shape, t.vertex_count, t.o_adjacent_r, t.tetragonal_cycles) == \
        ("tetragon", 6, True, 2)


def test_classification_details_cube():
    t = classify_type(oriented("cube-g"))
    assert (t.hull_shape, t.vertex_count, t.o_adjacent_r, t.tetragonal_cycles) == \
        ("hexagon", 8, False, 3)


def test_index_two_count_is_half_vertices_minus_one():
    for inst in map(corpus, corpus_names()):
        og = orient(inst.graph, inst.xi)
        assert len(og.vertices_of_index(1)) == len(inst.graph.vertices) // 2 - 1


def test_classify_requires_six_dim_scope():
    from gkm.graph import Edge, GkmGraph, Vertex

    vs = [Vertex("a", V(0, 0)), Vertex("b", V(1, 0))]
    g = GkmGraph(2, 1, vs, [Edge("a", "b", V(1, 0))])
    with pytest.raises(ScopeError):
        classify_type(orient(g, V(1, 1)))


def test_vertex_bound_guard():
    # A disconnected union of two instances stays 3-valent, rank-2 and
    # index-increasing edge by edge, but exceeds the eight-vertex bound.
    from gkm.errors import InfeasibleInstance
    from gkm.graph import GkmGraph, Vertex

    a = corpus("cp3-k4").graph
    b = corpus("flag-su3").graph
    shift = Vector((100, 100))
    vertices = list(a.vertices) + [Vertex("F" + v.id, v.mu + shift) for v in b.vertices]
    edges = list(a.edges)
    from gkm.graph import Edge as E

    edges += [E("F" + e.first, "F" + e.second, e.weight) for e in b.edges]
    union = GkmGraph(2, 3, vertices, edges)
    og = orient(union, Vector((1, 3)))
    assert og.is_index_increasing()
    with pytest.raises(InfeasibleInstance):
        classify_type(og)
