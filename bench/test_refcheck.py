"""The benchmark's reference checks on hand-built d=2 fixtures with known answers."""
import numpy as np
import pytest

import refcheck as ref


def edges_of(torus, points):
    """EdgeIds of the path through the given coordinate points."""
    ids = [torus.index(p) for p in points]
    return [torus.edge_between(u, v) for u, v in zip(ids, ids[1:])]


def square(torus, x=0, y=0):
    pts = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)]
    return edges_of(torus, pts), [torus.index(p) for p in pts]


def wrapping_line(torus):
    pts = [(torus.lo + i, 0) for i in range(torus.r)] + [(torus.lo, 0)]
    return edges_of(torus, pts), [torus.index(p) for p in pts]


def theta(torus):
    """A 4x1 rectangle with a rung at x=2: two squares of side 2 and 1 sharing it."""
    edges = edges_of(torus, [(x, 0) for x in range(5)])
    edges += edges_of(torus, [(x, 1) for x in range(5)])
    for x in (0, 2, 4):
        edges += edges_of(torus, [(x, 0), (x, 1)])
    return edges


def test_edge_ids_follow_the_mixed_radix_rule():
    t = ref.Torus(2, 5)
    ends = t.endpoints()
    assert ends.shape == (50, 2)
    # vertex 0 is (-2, -2); its axis-0 edge goes to (-1, -2), its axis-1 edge to (-2, -1)
    assert tuple(t.coords(0)) == (-2, -2)
    assert tuple(ends[0]) == (0, t.index((-1, -2)))
    assert tuple(ends[1]) == (0, t.index((-2, -1)))
    # the last vertex (2, 2) wraps to (-2, 2) and (2, -2)
    assert tuple(ends[48]) == (24, t.index((-2, 2)))
    assert tuple(ends[49]) == (24, t.index((2, -2)))
    for e, (u, v) in enumerate(ends):
        assert t.edge_between(int(u), int(v)) == e
        assert t.edge_between(int(v), int(u)) == e
    assert t.edge_between(0, t.index((0, 0))) is None


def test_box_edges():
    ends = ref.box_endpoints(2, 1)
    assert len(ends) == 12                      # d * side^(d-1) * (side - 1)
    assert tuple(ends[0]) == (0, 1) and tuple(ends[1]) == (0, 3)
    assert tuple(ref.box_coords(2, 1, 8)) == (1, 1)


def test_unit_square():
    for r, t, long_ in ((5, 1, True), (8, 2, False)):
        torus = ref.Torus(2, r)
        edges, walk = square(torus)
        ends = torus.endpoints()
        assert ref.cycle_space_dim(ends, edges) == 1
        assert ref.cycle_vertices(ends, edges) == set(walk)
        assert torus.radius(set(walk)) == 1
        found = ref.long_cycle_vertices(torus, edges, t, max_dim=8)
        assert found == (set(walk) if long_ else set())
        problem = ref.walk_problem(torus, walk, t, lambda e: True)
        assert (problem is None) == long_


def test_square_with_pendant_edge():
    torus = ref.Torus(2, 5)
    edges, walk = square(torus)
    tail = edges_of(torus, [(0, 0), (-1, 0)])
    assert ref.cycle_vertices(torus.endpoints(), edges + tail) == set(walk)
    assert not ref.is_forest(torus.endpoints(), edges + tail)
    assert ref.is_forest(torus.endpoints(), tail + edges[:3])


def test_wrapping_line():
    torus = ref.Torus(2, 8)
    edges, walk = wrapping_line(torus)
    ends = torus.endpoints()
    assert ref.cycle_space_dim(ends, edges) == 1
    assert torus.radius(set(walk)) == 4
    assert ref.long_cycle_vertices(torus, edges, 2, max_dim=8) == set(walk)
    assert ref.walk_problem(torus, walk, 2, lambda e: True) is None
    mask = np.zeros(torus.num_edges, dtype=bool)
    mask[edges] = True
    dist = ref.bfs_distances(torus.num_vertices, ends, mask, torus.index((-4, 0)))
    assert dist[torus.index((3, 0))] == 1
    assert dist[torus.index((0, 0))] == 4
    assert np.isinf(dist[torus.index((0, 1))])


def test_theta_graph():
    torus = ref.Torus(2, 8)
    edges = theta(torus)
    ends = torus.endpoints()
    verts = {torus.index((x, y)) for x in range(5) for y in (0, 1)}
    assert ref.cycle_space_dim(ends, edges) == 2
    # both squares have radius 1; only the outer 4x1 rectangle (radius 2) is long
    assert ref.long_cycle_vertices(torus, edges, 2, max_dim=8) == verts
    assert ref.long_cycle_vertices(torus, edges, 3, max_dim=8) == set()
    assert ref.long_cycle_vertices(torus, edges, 2, max_dim=1) is None
    # drop one outer edge: the remaining cycle is the left square, which is short
    outer = torus.edge_between(torus.index((3, 0)), torus.index((4, 0)))
    rest = [e for e in edges if e != outer]
    assert ref.long_cycle_vertices(torus, rest, 2, max_dim=8) == set()
    mask = np.zeros(torus.num_edges, dtype=bool)
    mask[edges] = True
    lab = ref.Labelling(torus.num_vertices, ends, mask)
    big = lab.largest()
    assert lab.sizes[big] == 10 and lab.surplus[big] == 2
    assert set(lab.vertices(big).tolist()) == verts
    assert sorted(lab.edges(big).tolist()) == sorted(edges)


def test_walk_validator_rejections():
    torus = ref.Torus(2, 5)
    edges, walk = square(torus)
    assert ref.walk_problem(torus, walk[:-1], 1, lambda e: True) is not None
    assert "repeats" in ref.walk_problem(torus, walk + walk[1:], 1, lambda e: True)
    far = [walk[0], torus.index((2, 2)), walk[0]]
    assert ref.walk_problem(torus, far + far[1:], 1, lambda e: True) is not None
    closed = edges[1]
    assert "closed" in ref.walk_problem(torus, walk, 1, lambda e: e != closed)
    assert ref.walk_problem(torus, walk, 1, lambda e: e != closed, unread={closed}) is None
    assert ref.walk_edges(torus, walk) == edges


@pytest.mark.parametrize("d,r", [(2, 3), (2, 5), (3, 4)])
def test_reference_indexing_matches_the_program(d, r):
    from torusperc.lattice import BoxGeometry, get_torus
    assert np.array_equal(ref.Torus(d, r).endpoints(), get_torus(d, r).edge_array())
    assert np.array_equal(ref.box_endpoints(d, r), BoxGeometry([0] * d, r, d).edge_array())
