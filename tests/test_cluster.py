import numpy as np
import pytest

from torusperc.cluster import (all_components, component_map, component_of,
                               connected_within, intrinsic_ball)
from torusperc.lattice import BoxGeometry, get_torus, torus_distance
from torusperc.percolation import derive_seed, sample_config

from conftest import config_from_edges, edge_of


def _assert_map_matches_traversal(cfg):
    cm = component_map(cfg)
    for lab in range(cm.num_clusters):
        cl = cm.cluster(lab)
        direct = component_of(cfg, int(cl.vertices[0]))
        assert (cl.vertices == direct.vertices).all()
        assert (cl.edges == direct.edges).all()


class TestComponents:
    def test_full_and_empty(self, g25):
        full = sample_config(g25, 1.0, 1)
        cl = component_of(full, 7)
        assert cl.size == g25.num_vertices
        assert len(cl.edges) == g25.num_edges
        empty = sample_config(g25, 0.0, 1)
        cl0 = component_of(empty, 7)
        assert cl0.size == 1 and len(cl0.edges) == 0 and cl0.root == 7

    def test_square_fixture(self, g28):
        square = [edge_of(g28, (0, 0), (1, 0)), edge_of(g28, (1, 0), (1, 1)),
                  edge_of(g28, (0, 1), (1, 1)), edge_of(g28, (0, 0), (0, 1))]
        cfg = config_from_edges(g28, square)
        cl = component_of(cfg, g28.vertex_index([0, 0]))
        assert cl.size == 4 and len(cl.edges) == 4 and cl.surplus == 1

    def test_all_components_partition(self, g25):
        cfg = sample_config(g25, 0.4, 9)
        comps = all_components(cfg)
        seen = np.concatenate([c.vertices for c in comps])
        assert len(seen) == g25.num_vertices
        assert len(np.unique(seen)) == g25.num_vertices
        sizes = [c.size for c in comps]
        assert sizes == sorted(sizes, reverse=True)
        # ties broken by smallest root id
        for a, b in zip(comps, comps[1:]):
            if a.size == b.size:
                assert a.root < b.root
        assert sum(len(c.edges) for c in comps) == cfg.count_open()

    def test_singletons_at_p0(self, g25):
        comps = all_components(sample_config(g25, 0.0, 1))
        assert len(comps) == g25.num_vertices
        assert all(c.size == 1 for c in comps)

    def test_component_map_matches(self, g25):
        _assert_map_matches_traversal(sample_config(g25, 0.45, 17))

    @pytest.mark.parametrize("geometry, p", [
        (get_torus(3, 6, "spread-out", 2), 0.03),
        (BoxGeometry((0, 0, 0), 2), 0.3),
    ])
    def test_component_map_matches_on_other_geometries(self, geometry, p):
        # the map reads its sparse rows off the open EdgeIds in ascending
        # order, which the base endpoints of every geometry follow
        _assert_map_matches_traversal(sample_config(geometry, p, 17))

    def test_instrumented_traversal_logs_reads(self, g25):
        cfg = sample_config(g25, 0.45, 23).instrumented()
        cl = component_of(cfg, 0)
        # every incident edge of every cluster vertex was status-checked
        expected = set()
        for v in cl.vertices:
            eids, _ = cfg.geometry.incident_edges(int(v))
            expected.update(int(e) for e in eids)
        assert cfg.read_log == expected
        # a ball reads the incident edges of the vertices inside its radius
        for k in range(5):
            cfg = sample_config(g25, 0.45, 23).instrumented()
            ball = intrinsic_ball(cfg, 0, k)
            expected = set()
            for v, dv in ball.distances.items():
                if dv < k:
                    expected.update(int(e) for e in g25.incident_edges(v)[0])
            assert cfg.read_log == expected


class TestIntrinsicBalls:
    def test_radius_zero(self, g25):
        cfg = sample_config(g25, 0.7, 2)
        ball = intrinsic_ball(cfg, 3, 0)
        assert ball.distances == {3: 0}

    def test_1d_line(self):
        g = get_torus(1, 8)
        cfg = sample_config(g, 1.0, 1)
        ball = intrinsic_ball(cfg, 0, 2)
        assert sorted(ball.distances.values()) == [0, 1, 1, 2, 2]

    def test_wraparound_shortcut(self, g28):
        # open path hugging one row, wrapping through the seam
        row = [(x, 0) for x in range(-4, 4)]
        edges = [edge_of(g28, row[i], row[(i + 1) % 8]) for i in range(8)]
        cfg = config_from_edges(g28, edges)
        x = g28.vertex_index([-4, 0])
        y = g28.vertex_index([3, 0])
        ball = intrinsic_ball(cfg, x, 1)
        assert ball.contains(y)     # adjacent through the wrap, not through Z^2

    def test_monotone_and_exhaustive(self, g25):
        cfg = sample_config(g25, 0.5, 31)
        balls = [intrinsic_ball(cfg, 0, k) for k in range(6)]
        for a, b in zip(balls, balls[1:]):
            assert set(a.distances) <= set(b.distances)
        big = intrinsic_ball(cfg, 0, g25.num_vertices)
        assert set(big.distances) == set(int(v) for v in
                                         component_of(cfg, 0).vertices)

    def test_intrinsic_dominates_torus_metric(self, g25):
        cfg = sample_config(g25, 0.6, 37)
        ball = intrinsic_ball(cfg, 0, 10)
        for v, dv in ball.distances.items():
            assert dv >= torus_distance(g25, 0, v)

    def test_intrinsic_dominates_scaled_metric_spread_out(self):
        # each spread-out step moves sup-distance by at most L
        g = get_torus(2, 7, "spread-out", L=2)
        cfg = sample_config(g, 0.05, 41)
        ball = intrinsic_ball(cfg, 0, 6)
        for v, dv in ball.distances.items():
            assert dv >= torus_distance(g, 0, v) / g.L


class TestConnectedWithin:
    def test_trivial_cases(self, g25):
        cfg = sample_config(g25, 0.0, 1)
        assert connected_within(cfg, 4, 4, 0)
        assert not connected_within(cfg, 4, 5, 3)

    def test_symmetry(self, g25):
        rng = np.random.default_rng(0)
        for i in range(50):
            cfg = sample_config(g25, 0.45, derive_seed(3, i))
            x, y = rng.integers(g25.num_vertices, size=2)
            k = int(rng.integers(0, 8))
            assert connected_within(cfg, x, y, k) == connected_within(cfg, y, x, k)
