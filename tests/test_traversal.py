"""Breadth-first traversals checked against scipy.sparse.csgraph.

Every traversal built on `lattice.bfs` (intrinsic balls, shortest paths,
component counts, the lift forest and the coupling distances) must reproduce
scipy's unweighted distances and component labels on the same open graph.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from torusperc.cluster import intrinsic_ball
from torusperc.coupling import coupled_sample, lattice_distances, torus_distances
from torusperc.cycles import OpenSubgraph, WorkBudget, _lift_forest
from torusperc.lattice import BoxGeometry, get_torus
from torusperc.percolation import sample_config

GEOMETRIES = [("torus", 2, 3), ("torus", 2, 5), ("torus", 2, 8), ("box", 2, 3)]


def geometry(kind, d, size):
    return get_torus(d, size) if kind == "torus" else BoxGeometry([0] * d, size, d)


def open_graph(g, open_mask):
    """Symmetric scipy adjacency of the open edges."""
    uv = g.endpoints(np.flatnonzero(open_mask))
    V = g.num_vertices
    m = sparse.coo_matrix((np.ones(len(uv)), (uv[:, 0], uv[:, 1])), shape=(V, V))
    return (m + m.T).tocsr()


def reference_distances(g, open_mask, x):
    """{vertex: hop distance from x} over the open edges, reachable vertices only."""
    dist = csgraph.shortest_path(open_graph(g, open_mask), unweighted=True, indices=x)
    return {int(v): int(dist[v]) for v in np.flatnonzero(np.isfinite(dist))}


@st.composite
def configs(draw):
    g = geometry(*draw(st.sampled_from(GEOMETRIES)))
    p = draw(st.sampled_from([0.3, 0.5, 0.7]))
    return sample_config(g, p, draw(st.integers(0, 10**6)))


@given(configs(), st.data())
@settings(max_examples=60, deadline=None)
def test_intrinsic_ball_matches_scipy(cfg, data):
    g = cfg.geometry
    x = data.draw(st.integers(0, g.num_vertices - 1))
    k = data.draw(st.integers(0, 12))
    want = reference_distances(g, cfg.open_mask(), x)
    got = intrinsic_ball(cfg, x, k).distances
    assert got == {v: dv for v, dv in want.items() if dv <= k}


@given(configs(), st.data())
@settings(max_examples=60, deadline=None)
def test_path_between_is_shortest_open_and_avoids_forbidden(cfg, data):
    g = cfg.geometry
    open_ids = np.flatnonzero(cfg.open_mask())
    sub = OpenSubgraph(g, open_ids)
    forbidden = set(data.draw(st.lists(st.sampled_from(open_ids.tolist()), max_size=4))
                    if len(open_ids) else [])
    a, b = data.draw(st.lists(st.integers(0, g.num_vertices - 1), min_size=2, max_size=2))
    allowed = cfg.open_mask().copy()
    allowed[list(forbidden)] = False
    want = reference_distances(g, allowed, a).get(b)
    path = sub.path_between(a, b, forbidden=forbidden)
    if want is None:
        assert path is None
        return
    assert path[0] == a and path[-1] == b and len(path) - 1 == want
    for u, v in zip(path, path[1:]):
        e = g.edge_between(u, v)
        assert e is not None and cfg.peek_open(e) and e not in forbidden


@given(configs())
@settings(max_examples=60, deadline=None)
def test_component_count_matches_scipy(cfg):
    sub = OpenSubgraph(cfg.geometry, np.flatnonzero(cfg.open_mask()))
    _, labels = csgraph.connected_components(open_graph(cfg.geometry, cfg.open_mask()),
                                             directed=False)
    assert sub.component_count() == len(set(labels[sub.vertices].tolist()))


@given(configs())
@settings(max_examples=60, deadline=None)
def test_lift_forest_depths_are_bfs_distances(cfg):
    g = cfg.geometry
    sub = OpenSubgraph(g, np.flatnonzero(cfg.open_mask()))
    budget = WorkBudget(10**9)
    pos, parent, tree_edges = _lift_forest(sub, budget)
    assert budget.spent == 2 * sub.num_edges          # one unit per adjacency entry
    assert set(pos) == set(parent) == set(sub.vertices)
    assert tree_edges == {e for _, e in parent.values() if e is not None}
    roots = [v for v, (u, _) in parent.items() if u is None]
    assert len(roots) == sub.component_count()
    for root in roots:
        want = reference_distances(g, cfg.open_mask(), root)
        for v in want:
            depth, w = 0, v
            while parent[w][0] is not None:
                w = parent[w][0]
                depth += 1
            assert w == root and depth == want[v]


@given(st.sampled_from([3, 4, 5]), st.sampled_from([0.3, 0.5, 0.7]),
       st.integers(0, 10**6), st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_coupling_distances_match_scipy(r, p, seed, kmax):
    sample = coupled_sample(2, r, p, seed, window_factor=2)
    cfg = sample.torus_config
    g = cfg.geometry
    want = reference_distances(g, cfg.open_mask(), g.origin)
    assert torus_distances(sample, kmax) == {v: dv for v, dv in want.items() if dv <= kmax}
    window = sample.window
    origin = int(window.vertex_index([0, 0]))
    want = reference_distances(window, sample.lattice_open, origin)
    assert lattice_distances(sample, kmax) == {v: dv for v, dv in want.items()
                                               if dv <= kmax}

