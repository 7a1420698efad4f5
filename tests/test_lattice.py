import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusperc.cluster import component_of, connected_within, intrinsic_ball
from torusperc.cycles import CycleWitness, vertex_in_long_cycle
from torusperc.lattice import (GeometryError, TorusGeometry, build_box,
                               canonical_rep, centered_mod, get_torus,
                               r_equivalent, torus_distance)
from torusperc.percolation import sample_config
from torusperc.surgery import depth_first_explore


def reference_edge_array(g):
    """Row e = (base, vertex_index(vertex_coords(base) + offsets[rank])), built by table.

    A torus has (base, rank) = divmod(e, K); a box compacts its ids and
    stores the pairs."""
    if hasattr(g, "edge_base_rank"):
        pairs = [g.edge_base_rank(e) for e in range(g.num_edges)]
        base, rank = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    else:
        base, rank = np.divmod(np.arange(g.num_edges), g.num_offsets)
    return np.column_stack([base, g.vertex_index(g.vertex_coords(base) + g.offsets[rank])])


@st.composite
def geometries(draw):
    kind = draw(st.sampled_from(["nn", "spread-out", "box"]))
    if kind == "nn":
        d = draw(st.integers(1, 4))
        return TorusGeometry(d, draw(st.integers(3, {1: 9, 2: 9, 3: 6, 4: 4}[d])))
    if kind == "spread-out":
        d = draw(st.integers(1, 3))
        return TorusGeometry(d, draw(st.integers(3, 6)), "spread-out", L=1)
    d = draw(st.integers(1, 3))
    center = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return build_box(center, draw(st.integers(0, 2)), d,
                     draw(st.sampled_from(["nn", "spread-out"])))


class TestTorusConstruction:
    def test_small_nn_counts(self):
        g = TorusGeometry(2, 3)
        assert g.num_vertices == 9
        assert g.num_edges == 18          # d * r^d

    def test_d7_degree(self):
        g = TorusGeometry(7, 4)
        assert g.num_vertices == 4 ** 7
        eids, others = g.incident_edges(0)
        assert len(eids) == 14
        assert len(set(int(o) for o in others)) == 14

    def test_spread_out_degree(self):
        g = TorusGeometry(2, 5, "spread-out", L=1)
        assert len(g.neighbors(7)) == 8   # (2L+1)^d - 1

    @pytest.mark.parametrize("d,r", [(0, 5), (2, 2), (2, 1), (-1, 4)])
    def test_bad_parameters(self, d, r):
        with pytest.raises(GeometryError):
            TorusGeometry(d, r)

    def test_spread_out_requires_room(self):
        with pytest.raises(GeometryError):
            TorusGeometry(2, 3, "spread-out", L=2)   # 2L+1 > r

    def test_overflow_rejected(self):
        with pytest.raises(GeometryError):
            TorusGeometry(40, 41)

    def test_index_roundtrip(self):
        g = TorusGeometry(3, 4)
        ids = np.arange(g.num_vertices)
        assert (g.vertex_index(g.vertex_coords(ids)) == ids).all()

    def test_degree_formula_everywhere(self):
        for model, L, want in [("nn", 1, 4), ("spread-out", 1, 8)]:
            g = TorusGeometry(2, 5, model, L)
            for v in range(g.num_vertices):
                nbrs = g.neighbors(v)
                assert len(nbrs) == want
                assert v not in set(int(x) for x in nbrs)   # irreflexive

    def test_neighbor_symmetry(self):
        g = TorusGeometry(3, 3)
        for v in range(g.num_vertices):
            for w in g.neighbors(v):
                assert v in set(int(x) for x in g.neighbors(int(w)))

    def test_edge_ids_total_order(self):
        g = TorusGeometry(2, 4)
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
        assert np.array_equal(ends, reference_edge_array(g))
        if g.num_edges:
            eids = data.draw(st.lists(st.integers(0, g.num_edges - 1), max_size=20))
            assert np.array_equal(g.endpoints(eids).reshape(-1, 2), ends[eids])
            for e in eids:
                assert g.edge_endpoints(e) == tuple(ends[e].tolist())
                assert all(type(x) is int for x in g.edge_endpoints(e))


class TestIncidentEdges:
    @given(geometries())
    @example(TorusGeometry(2, 3))                     # r=3: both digits wrap
    @example(TorusGeometry(1, 3, "spread-out", L=1))
    @example(TorusGeometry(2, 3, "spread-out", L=1))
    @settings(max_examples=80, deadline=None)
    def test_rows_of_the_edge_array(self, g):
        ref = reference_edge_array(g)
        for v in range(g.num_vertices):
            eids, others = g.incident_edges(v)
            assert eids.dtype == others.dtype == np.int64
            want = np.flatnonzero((ref == v).any(axis=1))
            assert eids.tolist() == want.tolist()      # ascending ids
            assert others.tolist() == [int(u + w - v) for u, w in ref[want]]
            assert g.neighbors(v).tolist() == others.tolist()


class TestVertexRange:
    @pytest.mark.parametrize("v", [-1, 25])
    def test_outside_vertex_ids_rejected(self, v):
        g = TorusGeometry(2, 5)
        cfg = sample_config(g, 0.6, 1)
        for call in (lambda: g.incident_edges(v), lambda: component_of(cfg, v),
                     lambda: intrinsic_ball(cfg, v, 3), lambda: intrinsic_ball(cfg, v, 0),
                     lambda: connected_within(cfg, v, v, 3),
                     lambda: vertex_in_long_cycle(cfg, v),
                     lambda: depth_first_explore(cfg.instrumented(), v),
                     lambda: build_box([0, 0], 2).incident_edges(v)):
            with pytest.raises(GeometryError):
                call()

    @pytest.mark.parametrize("g, walk", [
        (get_torus(2, 5), [25, 26, 31, 30, 25]),
        (get_torus(2, 5, "spread-out", 1), [0, 26, 5, 0]),
        (build_box([0, 0], 1), [-3, -2, -3])], ids=["nn", "spread-out", "box"])
    def test_edge_between_rejects_outside_ids(self, g, walk):
        # an id outside [0, V) must not alias a vertex, by its digits modulo
        # r or by negative indexing, and so name an edge the geometry lacks
        u, v = walk[:2]
        for a, b in ((u, v), (v, u)):
            with pytest.raises(GeometryError):
                g.edge_between(a, b)
        if isinstance(g, TorusGeometry):
            with pytest.raises(GeometryError):
                CycleWitness.from_vertices(g, walk)


def displacement_rule(g, u, v):
    """EdgeId by the displacement: u*K + rank of coords(v) - coords(u), or
    v*K + rank of its negation, or None."""
    ranks = {tuple(o): j for j, o in enumerate(g.offsets.tolist())}
    delta = tuple(g.displacement(u, v).tolist())
    for base, probe in ((u, delta), (v, tuple(-c for c in delta))):
        if probe in ranks:
            return base * g.num_offsets + ranks[probe]
    return None


WALK_GEOMETRIES = [
    lambda: get_torus(1, 3), lambda: get_torus(2, 3), lambda: get_torus(3, 4),
    lambda: get_torus(2, 8), lambda: get_torus(2, 5, "spread-out", 1),
    lambda: get_torus(2, 5, "spread-out", 2), lambda: build_box([0, 0], 3),
    lambda: build_box([1, -1, 2], 1, 3), lambda: build_box([2, 0], 2, 2, "spread-out"),
]


class TestEdgeArithmetic:
    @given(st.sampled_from([(2, 5, 1), (2, 5, 2), (3, 7, 3)]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_spread_out_edge_between_matches_displacement_rule(self, dims, data):
        d, r, L = dims
        g = get_torus(d, r, "spread-out", L)
        for e in data.draw(st.lists(st.integers(0, g.num_edges - 1), min_size=1, max_size=10)):
            u, v = g.edge_endpoints(e)
            assert g.edge_between(u, v) == g.edge_between(v, u) == e
        V = g.num_vertices
        pairs = data.draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)),
                                   min_size=1, max_size=10))
        for u, v in pairs + [(pairs[0][0], pairs[0][0])]:
            assert g.edge_between(u, v) == displacement_rule(g, u, v), (u, v)

    @given(st.sampled_from([3, 4, 8]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_nn_edge_between_matches_displacement_rule(self, r, data):
        g = get_torus(data.draw(st.integers(1, 3 if r == 8 else 4)), r)
        V = g.num_vertices
        for e in data.draw(st.lists(st.integers(0, g.num_edges - 1), min_size=1, max_size=10)):
            u, v = g.edge_endpoints(e)
            assert g.edge_between(u, v) == g.edge_between(v, u) == e
            assert displacement_rule(g, u, v) == e
        pairs = data.draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)),
                                   max_size=10))
        # id gaps of r^j and (r-1) r^j: adjacent, or a borrow across a digit
        u = data.draw(st.integers(0, V - 1))
        for gap in (g.r ** j * m for j in range(g.d) for m in (1, g.r - 1)):
            pairs += [(u, (u + gap) % V), (u, (u - gap) % V)]
        for u, v in pairs + [(u, u)]:
            assert g.edge_between(u, v) == displacement_rule(g, u, v), (u, v)

    @given(st.sampled_from(WALK_GEOMETRIES), st.integers(0, 10**6), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_edge_offsets_sum_to_displacements_along_walks(self, make, seed, steps):
        g = make()
        box = hasattr(g, "edge_base_rank")       # a box does not wrap
        rng = np.random.default_rng(seed)
        start = v = int(rng.integers(g.num_vertices))
        total = np.zeros(g.d, dtype=np.int64)
        for _ in range(steps):
            eids, others = g.incident_edges(v)
            if len(eids) == 0:
                break
            k = int(rng.integers(len(eids)))
            e, w = int(eids[k]), int(others[k])
            off = g.edge_offset(e, v)
            assert all(type(c) is int for c in off)
            assert g.edge_offset(e, w) == tuple(-c for c in off)
            assert g.edge_offset(eids[k], others[k]) == tuple(-c for c in off)  # numpy ints
            want = (g.vertex_coords(w) - g.vertex_coords(v)) if box else g.displacement(v, w)
            assert off == tuple(want.tolist())
            total += off
            v = w
        if box:
            assert np.array_equal(total, g.vertex_coords(v) - g.vertex_coords(start))
        else:
            assert np.array_equal(centered_mod(total, g.r), g.displacement(start, v))


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
        g = TorusGeometry(1, 8)
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
