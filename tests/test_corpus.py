"""Built-in instances: expectations, and re-derivation of the tol-d weights.

The derivation oracle below is independent of the shipped axial function:
it rebuilds the congruence-matching constraints from the vertex positions
and the edge set alone, enumerates every per-edge matching combination,
and solves for positive integer multiples of the primitive directions.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from gkm import linalg
from gkm.corpus import corpus, corpus_names
from gkm.errors import UnknownInstance
from gkm.polynomial import Vector


def test_corpus_has_at_least_three_named_instances():
    names = corpus_names()
    assert len(names) >= 3
    for required in ("cp3-k4", "flag-su3", "tol-d"):
        assert required in names


def test_unknown_instance():
    with pytest.raises(UnknownInstance):
        corpus("does-not-exist")


def test_all_instances_enabled_and_valid():
    for inst in map(corpus, corpus_names()):
        assert inst.graph.validate().ok, inst.name


def test_expected_types_cover_most_of_the_classification():
    labels = {inst.expected_type for inst in map(corpus, corpus_names())}
    assert {"a", "b", "d", "e", "f", "g"} <= labels


# -- tol-d axial function derivation oracle ------------------------------------------


def _primitive_direction(a: Vector, b: Vector) -> Vector:
    diff = b - a
    nums = [c.numerator for c in diff]
    dens = [c.denominator for c in diff]
    scale = 1
    for d in dens:
        scale = scale * d // gcd(scale, d)
    ints = [int(c * scale) for c in diff]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return Vector(tuple(x // g for x in ints))


def _positive_primitive(vec: list[int]) -> list[int] | None:
    """Scale an integer vector to the positive primitive integer point."""
    if any(c == 0 for c in vec):
        return None
    if all(c < 0 for c in vec):
        vec = [-c for c in vec]
    if not all(c > 0 for c in vec):
        return None
    g = gcd(*vec)
    return [x // g for x in vec]


def derive_axial_multiples(graph, bound=16):
    """All consistent positive integer multiple assignments, by exhausting
    the per-edge congruence matchings."""
    edges = list(graph.edges)
    index = {e.pair: i for i, e in enumerate(edges)}
    directions = {}
    for e in edges:
        d = _primitive_direction(graph.mu(e.first), graph.mu(e.second))
        directions[(e.first, e.second)] = d
        directions[(e.second, e.first)] = -d

    def outward(edge, vid):
        return directions[(vid, edge.other(vid))]

    per_edge_matchings = []
    for e in edges:
        d_e = directions[(e.first, e.second)]
        left = [f for f in graph.edges_at(e.first) if f is not e]
        right = [f for f in graph.edges_at(e.second) if f is not e]
        options = []
        for perm in (0, 1):
            pairing = list(zip(left, right if perm == 0 else list(reversed(right))))
            rows = []
            feasible = True
            for fa, fb in pairing:
                ca = outward(fa, e.first).cross(d_e)
                cb = outward(fb, e.second).cross(d_e)
                # m_a * dir_a - m_b * dir_b must be parallel to d_e.
                if ca == 0 and cb == 0:
                    continue  # always parallel
                if ca == 0 or cb == 0:
                    feasible = False  # would force a zero multiple
                    break
                row = [Fraction(0)] * len(edges)
                row[index[fa.pair]] = ca
                row[index[fb.pair]] = -cb
                rows.append(row)
            if feasible:
                options.append(rows)
        per_edge_matchings.append(options)

    solutions = set()
    for combo in product(*per_edge_matchings):
        rows = [row for rows in combo for row in rows]
        kernel = linalg.nullspace(rows, ncols=len(edges))
        if len(kernel) != 1:
            continue
        y, _ = kernel[0]  # y spans the kernel, as y / d does
        scaled = _positive_primitive(y)
        if scaled is None or max(scaled) > bound:
            continue
        solutions.add(tuple(scaled))
    return [dict(zip((e.pair for e in edges), sol)) for sol in sorted(solutions)]


def test_tol_d_axial_function_is_the_unique_minimal_solution():
    inst = corpus("tol-d")
    graph = inst.graph
    solutions = derive_axial_multiples(graph, bound=16)
    assert len(solutions) == 1, "expected exactly one derivable axial function"
    multiples = solutions[0]
    # The shipped weights must be exactly multiple * primitive direction.
    for e in graph.edges:
        d = _primitive_direction(graph.mu(e.first), graph.mu(e.second))
        m = multiples[e.pair]
        assert m <= 16
        assert e.weight == d * m, f"edge {e}: weight {e.weight} != {m} * {d}"


def test_tol_d_positions_are_the_documented_ones():
    g = corpus("tol-d").graph
    assert g.mu("o") == Vector((0, 0))
    assert g.mu("p1") == Vector((2, 3))
    assert g.mu("q1") == Vector((2, 5))
    assert g.mu("p2") == Vector((8, 2))
    assert g.mu("q2") == Vector((8, 6))
    assert g.mu("r") == Vector((0, 8))


def test_flag_orbit_projection():
    g = corpus("flag-su3").graph
    assert g.mu("210") == Vector((2, 1))
    assert g.mu("012") == Vector((-2, -3))
    assert len(g.vertices) == 6
    assert len(g.edges) == 9


def test_cube_counts():
    g = corpus("cube-g").graph
    assert len(g.vertices) == 8
    assert len(g.edges) == 12
