import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusperc.lattice import (GeometryError, build_box, build_torus,
                               canonical_rep, get_torus, r_equivalent,
                               torus_distance)


def reference_edge_array(g):
    """Row e = (base, vertex_index(vertex_coords(base) + offsets[rank])), built by table."""
    V, K = g.num_vertices, g.num_offsets
    coords = g.vertex_coords(np.arange(V))
    others = g.vertex_index(coords[:, None, :] + g.offsets[None, :, :])
    return np.column_stack([np.repeat(np.arange(V), K), others.ravel()])


@st.composite
def geometries(draw):
    kind = draw(st.sampled_from(["nn", "spread-out", "box"]))
    if kind == "nn":
        d = draw(st.integers(1, 4))
        return build_torus(d, draw(st.integers(3, {1: 9, 2: 9, 3: 6, 4: 4}[d])))
    if kind == "spread-out":
        d = draw(st.integers(1, 3))
        return build_torus(d, draw(st.integers(3, 6)), "spread-out", L=1)
    d = draw(st.integers(1, 3))
    center = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return build_box(center, draw(st.integers(0, 2)), d,
                     draw(st.sampled_from(["nn", "spread-out"])))


class TestTorusConstruction:
    def test_small_nn_counts(self):
        g = build_torus(2, 3)
        assert g.num_vertices == 9
        assert g.num_edges == 18          # d * r^d

    def test_d7_degree(self):
        g = build_torus(7, 4)
        assert g.num_vertices == 4 ** 7
        eids, others = g.incident_edges(0)
        assert len(eids) == 14
        assert len(set(int(o) for o in others)) == 14

    def test_spread_out_degree(self):
        g = build_torus(2, 5, "spread-out", L=1)
        assert len(g.neighbors(7)) == 8   # (2L+1)^d - 1

    @pytest.mark.parametrize("d,r", [(0, 5), (2, 2), (2, 1), (-1, 4)])
    def test_bad_parameters(self, d, r):
        with pytest.raises(GeometryError):
            build_torus(d, r)

    def test_spread_out_requires_room(self):
        with pytest.raises(GeometryError):
            build_torus(2, 3, "spread-out", L=2)   # 2L+1 > r

    def test_overflow_rejected(self):
        with pytest.raises(GeometryError):
            build_torus(40, 41)

    def test_index_roundtrip(self):
        g = build_torus(3, 4)
        ids = np.arange(g.num_vertices)
        assert (g.vertex_index(g.vertex_coords(ids)) == ids).all()

    def test_degree_formula_everywhere(self):
        for model, L, want in [("nn", 1, 4), ("spread-out", 1, 8)]:
            g = build_torus(2, 5, model, L)
            for v in range(g.num_vertices):
                nbrs = g.neighbors(v)
                assert len(nbrs) == want
                assert v not in set(int(x) for x in nbrs)   # irreflexive

    def test_neighbor_symmetry(self):
        g = build_torus(3, 3)
        for v in range(g.num_vertices):
            for w in g.neighbors(v):
                assert v in set(int(x) for x in g.neighbors(int(w)))

    def test_edge_ids_total_order(self):
        g = build_torus(2, 4)
        seen = {}
        for e in range(g.num_edges):
            u, v = g.edge_endpoints(e)
            key = frozenset((u, v))
            assert key not in seen
            seen[key] = e
            assert g.edge_between(u, v) == e
            assert g.edge_between(v, u) == e


class TestEdgeEndpoints:
    @given(geometries(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_edge_rule(self, g, data):
        ends = g.endpoints(np.arange(g.num_edges))
        assert ends.shape == (g.num_edges, 2)
        assert np.array_equal(g.edge_array(), ends)
        if hasattr(g, "edge_base_rank"):     # box: ranks are stored, ids compacted
            base_rank = [g.edge_base_rank(e) for e in range(g.num_edges)]
            want = [(b, g.vertex_index(g.vertex_coords(b) + g.offsets[k]))
                    for b, k in base_rank]
            assert ends.tolist() == [list(w) for w in want]
        else:
            assert np.array_equal(ends, reference_edge_array(g))
        if g.num_edges:
            eids = data.draw(st.lists(st.integers(0, g.num_edges - 1), max_size=20))
            assert np.array_equal(g.endpoints(eids).reshape(-1, 2), ends[eids])
            for e in eids:
                assert g.edge_endpoints(e) == tuple(ends[e].tolist())
                assert all(type(x) is int for x in g.edge_endpoints(e))


class TestGetTorusCache:
    def test_call_forms_share_one_entry(self):
        get_torus.cache_clear()
        g = get_torus(3, 5)
        assert get_torus(3, 5, "nn") is g
        assert get_torus(3, 5, "nn", 1) is g
        assert get_torus(3, 5, model="nn", L=1) is g
        assert get_torus(3, 5, "nn", 2) is g          # L means nothing under "nn"
        assert get_torus.cache_info().currsize == 1
        assert get_torus(3, 5, "spread-out", 1) is not g

    def test_validation_is_not_bypassed(self):
        get_torus.cache_clear()
        get_torus(3, 5)
        with pytest.raises(GeometryError):
            get_torus(3.0, 5)


class TestDistances:
    def test_wraparound_1d(self):
        g = build_torus(1, 8)
        x = g.vertex_index([0])
        y = g.vertex_index([6 - 8])     # the vertex labelled 6 wraps to -2
        assert torus_distance(g, x, y) == 2

    def test_components_2d(self, g25):
        x = g25.vertex_index([0, 0])
        y = g25.vertex_index([2, -1])   # (2, 4) reduced
        assert torus_distance(g25, x, y) == 2
        assert torus_distance(g25, x, y, norm="l1") == 3

    def test_metric_axioms_and_translation_invariance(self, g25):
        rng = np.random.default_rng(5)
        V = g25.num_vertices
        for _ in range(200):
            x, y, z, t = rng.integers(V, size=4)
            dxy = torus_distance(g25, x, y)
            assert dxy == torus_distance(g25, y, x)
            assert torus_distance(g25, x, x) == 0
            assert dxy <= torus_distance(g25, x, z) + torus_distance(g25, z, y)
            assert 0 <= dxy <= g25.r // 2
            shift = g25.vertex_coords(t)
            xs = g25.vertex_index(g25.vertex_coords(x) + shift)
            ys = g25.vertex_index(g25.vertex_coords(y) + shift)
            assert torus_distance(g25, xs, ys) == dxy


class TestEquivalence:
    def test_examples(self):
        assert r_equivalent((0, 0), (5, -5), 5)
        assert not r_equivalent((0, 0), (1, 0), 5)
        assert canonical_rep((7, -3), 5) == (2, 2)

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=2),
           st.lists(st.integers(-10, 10), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_equivalence_relation(self, x, z):
        r = 7
        y = [xi + r * zi for xi, zi in zip(x, z)]
        assert r_equivalent(x, y, r)
        assert canonical_rep(x, r) == canonical_rep(y, r)
        # idempotent and inside the fundamental domain
        rep = canonical_rep(x, r)
        assert canonical_rep(rep, r) == rep
        assert all(-(r // 2) <= c <= (r + 1) // 2 - 1 for c in rep)


class TestBoxes:
    def test_single_point(self):
        b = build_box([0, 0], 0)
        assert b.num_vertices == 1 and b.num_edges == 0

    def test_3x3_grid(self):
        b = build_box([0, 0], 1)
        assert b.num_vertices == 9 and b.num_edges == 12

    def test_boundary_count(self):
        b = build_box([0, 0], 2)
        assert len(b.boundary_vertices()) == 16    # (2n+1)^d - (2n-1)^d

    def test_edges_stay_inside(self):
        b = build_box([1, -1, 2], 1, 3)
        ea = b.edge_array()
        coords = b.vertex_coords(np.arange(b.num_vertices))
        for u, v in ea:
            assert b.contains(coords[u]) and b.contains(coords[v])
        assert b.num_edges == 54    # d * side^(d-1) * (side-1) = 3 * 9 * 2

    def test_off_center(self):
        b = build_box([5, 5], 1)
        assert b.contains([6, 6]) and not b.contains([7, 5])
        v = b.vertex_index([5, 5])
        assert v == b.center_vertex
        assert not b.is_boundary(v)
        assert b.is_boundary(b.vertex_index([4, 5]))
