from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusperc import estimators as est
from torusperc import oracle
from torusperc.cluster import all_components, component_of
from torusperc.cycles import (MalformedCycleError, OpenSubgraph, WorkBudget,
                              _blocks, _closed_walks, _edge_blocks, _feasible_vertices,
                              _group_reach, _long_cycle_in_block, _sup_reach, _two_core,
                              cluster_contains_long_cycle, cut_sums, cycle_radius,
                              has_wrapping_cluster, is_long_cycle,
                              long_cycle_interior, long_cycle_threshold,
                              long_cycle_vertex_count, min_long_cycle_cut,
                              shortest_long_cycle_through, vertex_in_long_cycle,
                              winding_vector)
from torusperc.lattice import bfs, get_torus, torus_distance
from torusperc.percolation import InstrumentationError, derive_seed, sample_config

from conftest import config_from_edges, edge_of, patch_edges, wrap_line_edges


def vid(g, *c):
    return g.vertex_index(list(c))


def square_path(g):
    return [vid(g, 0, 0), vid(g, 1, 0), vid(g, 1, 1), vid(g, 0, 1), vid(g, 0, 0)]


class TestPredicates:
    def test_unit_square_not_long_at_r8(self, g28):
        assert not is_long_cycle(g28, square_path(g28))

    def test_wrap_line_long(self, g28):
        coords = [(-4 + i, 0) for i in range(8)]
        verts = [vid(g28, *c) for c in coords] + [vid(g28, *coords[0])]
        assert is_long_cycle(g28, verts)
        assert tuple(winding_vector(g28, verts)) == (1, 0)
        assert tuple(winding_vector(g28, verts[::-1])) == (-1, 0)

    def test_contractible_boundary_case_r12(self):
        # perimeter of a 3x3 block: radius exactly floor(12/4) = 3
        g = get_torus(2, 12)
        path = []
        for x in range(4):
            path.append((x, 0))
        for y in range(1, 4):
            path.append((3, y))
        for x in range(2, -1, -1):
            path.append((x, 3))
        for y in range(2, 0, -1):
            path.append((0, y))
        verts = [vid(g, *c) for c in path] + [vid(g, *path[0])]
        assert cycle_radius(g, verts) == 3
        assert is_long_cycle(g, verts)

    def test_double_wrap_spiral(self):
        # steps (+x, +x, +y) repeated six times close up with winding (2, 1)
        g = get_torus(2, 6)
        cur = (0, 0)
        verts = [vid(g, *cur)]
        total = np.zeros(2, dtype=int)
        for _ in range(6):
            for step in ((1, 0), (1, 0), (0, 1)):
                cur = (cur[0] + step[0], cur[1] + step[1])
                total += step
                verts.append(vid(g, *(cur[0] % 6, cur[1] % 6)))
        assert verts[0] == verts[-1]
        assert (total == [12, 6]).all()           # displacement sum validates
        assert tuple(winding_vector(g, verts)) == (2, 1)
        assert is_long_cycle(g, verts)

    def test_square_winding_zero(self, g28):
        assert tuple(winding_vector(g28, square_path(g28))) == (0, 0)

    def test_malformed_cycles_rejected(self, g28):
        with pytest.raises(MalformedCycleError):
            is_long_cycle(g28, [0, 1])                       # not closed
        with pytest.raises(MalformedCycleError):
            is_long_cycle(g28, [0, g28.num_vertices - 1, 0])  # not adjacent
        a, b = 0, int(g28.neighbors(0)[0])
        with pytest.raises(MalformedCycleError):
            is_long_cycle(g28, [a, b, a])                    # repeated edge

    def test_invariance_translation_permutation_rotation(self):
        g = get_torus(2, 12)
        base = []
        for x in range(4):
            base.append((x, 0))
        for y in range(1, 4):
            base.append((3, y))
        for x in range(2, -1, -1):
            base.append((x, 3))
        for y in range(2, 0, -1):
            base.append((0, y))
        verts = [vid(g, *c) for c in base] + [vid(g, *base[0])]
        want = is_long_cycle(g, verts)
        rng = np.random.default_rng(1)
        for _ in range(10):
            tx, ty = rng.integers(0, 12, size=2)
            moved = [vid(g, c[0] + tx, c[1] + ty) for c in base]
            moved.append(moved[0])
            assert is_long_cycle(g, moved) == want
        swapped = [vid(g, c[1], c[0]) for c in base]
        swapped.append(swapped[0])
        assert is_long_cycle(g, swapped) == want
        open_seq = verts[:-1]
        for shift in (1, 5, 9):
            rotated = open_seq[shift:] + open_seq[:shift]
            rotated.append(rotated[0])
            assert is_long_cycle(g, rotated) == want
        assert is_long_cycle(g, verts[::-1]) == want


@st.composite
def vertex_sets(draw):
    """A torus with d in 1..5 and odd or even r, and up to 12 distinct vertices
    drawn around a centre with a random spread, so every radius occurs."""
    g = get_torus(draw(st.integers(1, 5)), draw(st.sampled_from([3, 4, 5, 8, 12])))
    spread = draw(st.sampled_from([0, 1, 2, 3, g.r]))
    centre = draw(st.lists(st.integers(0, g.r - 1), min_size=g.d, max_size=g.d))
    shifts = draw(st.lists(st.lists(st.integers(-spread, spread), min_size=g.d,
                                    max_size=g.d), max_size=12))
    verts = sorted({g.vertex_index([c + s for c, s in zip(centre, sh)]) for sh in shifts})
    return g, verts


class TestRadiusKernels:
    @given(vertex_sets())
    @example((get_torus(3, 8), []))
    @example((get_torus(3, 8), [17]))
    @settings(max_examples=150, deadline=None)
    def test_radius_and_feasible_vertices_match_brute_force(self, case):
        g, verts = case
        assert cycle_radius(g, verts) == oracle.brute_force_radius(g, verts)
        reach = {v: int(torus_distance(g, v, np.asarray(verts)).max()) for v in verts}
        sub = SimpleNamespace(geometry=g, vertices=verts)
        for t in range(g.r // 2 + 2):
            budget = WorkBudget(10**6)
            assert _feasible_vertices(sub, t, budget) == {v for v in verts if reach[v] >= t}
            assert budget.spent == len(verts)


@st.composite
def open_edge_sets(draw):
    """A d=2 torus of side 5 or 8 with each edge open or closed at will."""
    g = get_torus(2, draw(st.sampled_from([5, 8])))
    bits = draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
    return g, [e for e, bit in enumerate(bits) if bit]


def _components_keeping_vertices(sub, removed):
    """Component count of `sub` minus the `removed` edges, over all of its
    vertices (an endpoint left without edges still counts)."""
    rest = sub.without(removed)
    for v in sub.vertices:
        rest.adj.setdefault(v, [])
    rest.vertices = sorted(rest.adj)
    return rest.component_count()


def _non_bridges(sub):
    """The edges whose removal leaves the component count unchanged."""
    base = sub.component_count()
    return [e for e in sub.edge_ids if _components_keeping_vertices(sub, [e]) == base]


def _non_bridge_partition(sub):
    """The edge sets of the components of the non-bridge edges, in the order
    of their smallest edges."""
    rest = OpenSubgraph(sub.geometry, _non_bridges(sub))
    seen, parts = set(), []
    for s in rest.vertices:
        if s not in seen:
            verts = bfs(s, rest.adj.__getitem__)[0]
            seen.update(verts)
            parts.append(sorted({e for v in verts for e, _ in rest.adj[v]}))
    return sorted(parts)


def _labelled_partition(edges, labels):
    """The edges of each label >= 0, in label order."""
    parts = {}
    for e, lab in zip(edges, labels.tolist()):
        if lab >= 0:
            parts.setdefault(lab, []).append(e)
    assert sorted(parts) == list(range(len(parts)))
    return [parts[lab] for lab in range(len(parts))]


class TestBlocks:
    @given(open_edge_sets())
    @example((get_torus(2, 5), []))
    @example((get_torus(2, 8), list(range(get_torus(2, 8).num_edges))))
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_the_non_bridge_edges(self, case):
        g, edges = case
        sub = OpenSubgraph(g, edges)
        blocks = list(_blocks(sub))
        assert sorted(e for _, block_edges in blocks for e in block_edges) == _non_bridges(sub)
        for verts, block_edges in blocks:
            block = OpenSubgraph(g, block_edges)
            assert block_edges and set(block.vertices) == verts
            assert block.component_count() == 1
            assert all(_components_keeping_vertices(block, [e]) == 1 for e in block_edges)

    @given(open_edge_sets())
    @example((get_torus(2, 5), []))
    @example((get_torus(2, 8), list(range(get_torus(2, 8).num_edges))))
    @settings(max_examples=60, deadline=None)
    def test_edge_blocks_partition_the_non_bridge_edges(self, case):
        # the array layer labels the components of the non-bridge edges in
        # the order of their smallest edges, and each row's cluster in the
        # order of the clusters' smallest vertices; one call over every
        # cluster splits each cluster as a call over that cluster alone does
        g, edges = case
        sub = OpenSubgraph(g, edges)
        ends = g.endpoints(np.asarray(sub.edge_ids, dtype=np.int64)).reshape(-1, 2)
        blocks, comps = _edge_blocks(ends)
        whole = _labelled_partition(sub.edge_ids, blocks)
        assert whole == _non_bridge_partition(sub)
        clusters = [cl for cl in all_components(config_from_edges(g, edges)) if len(cl.edges)]
        assert (_labelled_partition(sub.edge_ids, comps)
                == [cl.edges.tolist() for cl in sorted(clusters, key=lambda cl: cl.root)])
        per_cluster = []
        for cl in clusters:
            per_cluster += _labelled_partition(cl.edges.tolist(),
                                               _edge_blocks(g.endpoints(cl.edges))[0])
        assert sorted(per_cluster) == whole

    @given(open_edge_sets())
    @example((get_torus(2, 5), []))
    @example((get_torus(2, 8), list(range(get_torus(2, 8).num_edges))))
    @settings(max_examples=60, deadline=None)
    def test_two_core_keeps_what_leaf_deletion_keeps(self, case):
        # the peel against deleting one edge at a vertex of degree one at a
        # time, until no such vertex is left
        g, edges = case
        ends = g.endpoints(np.asarray(edges, dtype=np.int64)).reshape(-1, 2)
        pairs = ends.tolist()
        kept = list(range(len(edges)))
        while True:
            deg = {}
            for i in kept:
                for x in pairs[i]:
                    deg[x] = deg.get(x, 0) + 1
            leaf = next((i for i in kept if 1 in (deg[pairs[i][0]], deg[pairs[i][1]])), None)
            if leaf is None:
                break
            kept.remove(leaf)
        assert _two_core(ends, g.num_vertices).tolist() == kept

    @pytest.mark.parametrize("d, r", [(2, 5), (2, 8), (4, 8), (4, 12)])
    def test_group_reach_is_sup_reach_per_block(self, d, r):
        # the one-pass reach of every block of the 2-core, as the count reads
        # it, against the scalar reach of each block on its own
        g = get_torus(d, r)
        p = 0.5 if d == 2 else 0.2
        checked = 0
        for i in range(3):
            cfg = sample_config(g, p, derive_seed(3, d, r, i))
            ends = g.endpoints(cfg.open_edge_ids())
            ends = ends[_two_core(ends, g.num_vertices)]
            blocks, _ = _edge_blocks(ends)
            on = blocks >= 0
            keys = np.unique(np.repeat(blocks[on], 2) * g.num_vertices + ends[on].ravel())
            group, verts = np.divmod(keys, g.num_vertices)
            reach = _group_reach(g, group, verts)
            for k in range(int(blocks.max()) + 1):
                mine = group == k
                assert reach[mine].tolist() == _sup_reach(g, verts[mine].tolist())
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("r", [4, 8])
    def test_block_search_goes_through_the_asked_vertex_or_edge(self, r):
        # two wrapping rows joined by two rungs r/2 apart: one block in which
        # every vertex and edge lies on a long cycle, at threshold 1 (r=4)
        # and threshold 2 (r=8)
        g = get_torus(2, r)
        rows = [[(x, y) for x in range(r)] for y in (0, 1)]
        edges = [edge_of(g, row[i], row[(i + 1) % r]) for row in rows for i in range(r)]
        edges += [edge_of(g, (0, 0), (0, 1)), edge_of(g, (r // 2, 0), (r // 2, 1))]
        ((verts, block_edges),) = _blocks(OpenSubgraph(g, edges))
        block = OpenSubgraph(g, block_edges)
        for x in verts:
            w = _long_cycle_in_block(block, WorkBudget(10**6), x=x)
            w.validate(g)
            assert w.long and x in w.vertices
        for e in block_edges:
            w = _long_cycle_in_block(block, WorkBudget(10**6), e=e)
            w.validate(g)
            assert w.long and e in w.edges


@st.composite
def walk_starts(draw):
    """A d=2 torus of side 5 or 8, 12 to 20 open edges drawn from a 4 x 4
    vertex patch or from the whole torus, and a start vertex, mostly one that
    lies on a cycle."""
    g = get_torus(2, draw(st.sampled_from([5, 8])))
    pool = draw(st.sampled_from([patch_edges(g, 3, 3), list(range(g.num_edges))]))
    edges = draw(st.lists(st.sampled_from(pool), min_size=12, max_size=20, unique=True))
    sub = OpenSubgraph(g, edges)
    on_cycles = sorted({v for c in oracle.enumerate_all_cycles(sub) for v in c.vertices})
    starts = on_cycles if on_cycles and draw(st.integers(0, 3)) else sub.vertices
    return sub, draw(st.sampled_from(starts or [0]))


def _oracle_cycles_through(sub, x, keep=lambda c: True):
    return {tuple(c.vertices[:-1]) for c in oracle.enumerate_all_cycles(sub)
            if x in c.vertices and keep(c)}


class TestClosedWalks:
    @given(walk_starts())
    @settings(max_examples=60, deadline=None)
    def test_unpruned_walks_are_every_cycle_through_x(self, case):
        sub, x = case
        walks = list(_closed_walks(sub, x, WorkBudget(10**7)))
        assert all(w[0] == w[-1] == x for w in walks)
        assert ({oracle._canonical_closed_walk(w) for w in walks}
                == _oracle_cycles_through(sub, x))

    @given(walk_starts())
    @settings(max_examples=60, deadline=None)
    def test_min_vertex_keeps_the_cycles_whose_smallest_vertex_is_x(self, case):
        sub, x = case
        walks = list(_closed_walks(sub, x, WorkBudget(10**7), min_vertex=x))
        assert all(min(w) == x for w in walks)
        assert ({oracle._canonical_closed_walk(w) for w in walks}
                == _oracle_cycles_through(sub, x, lambda c: min(c.vertices) == x))

    @given(walk_starts(), st.integers(3, 12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_cap_bounds_every_walk_when_it_is_yielded(self, case, k, rnd):
        # with a fixed cap the walks are every cycle through x within it; a
        # cap lowered between closures binds every later walk
        sub, x = case
        dist = bfs(x, sub.adj.__getitem__)[0] if x in sub.adj else {}
        walks = list(_closed_walks(sub, x, WorkBudget(10**7), dist_to_x=dist, cap=[k]))
        assert ({oracle._canonical_closed_walk(w) for w in walks}
                == _oracle_cycles_through(sub, x, lambda c: c.length <= k))
        cap = [k]
        for w in _closed_walks(sub, x, WorkBudget(10**7), dist_to_x=dist, cap=cap):
            assert len(w) - 1 <= cap[0]
            cap[0] = rnd.randint(len(w) - 2, cap[0])


class TestOpenSubgraphAdd:
    @given(open_edge_sets(), st.randoms(use_true_random=False), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_grown_graph_equals_fresh_build(self, case, rnd, start):
        # edges added one at a time in any order leave the lists exactly as
        # one build of the whole set, so every traversal visits alike
        g, edges = case
        rnd.shuffle(edges)
        grown = OpenSubgraph(g, edges[:start])
        for e in edges[start:]:
            grown.add(e)
        fresh = OpenSubgraph(g, edges)
        assert grown.edge_ids == fresh.edge_ids
        assert grown.vertices == fresh.vertices
        assert grown.adj.keys() == fresh.adj.keys()
        assert all(grown.adj[v] == fresh.adj[v] for v in fresh.vertices)


class TestWrappingDetection:
    def test_extremes(self, g25):
        assert not any(has_wrapping_cluster(sample_config(g25, 0.0, 1)).values())
        flags = has_wrapping_cluster(sample_config(g25, 1.0, 1))
        assert list(flags.values()) == [True]

    def test_wrap_line_only(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        flags = has_wrapping_cluster(cfg)
        assert sum(flags.values()) == 1

    def test_matches_oracle_on_random_configs(self):
        g = get_torus(2, 4)
        for i in range(60):
            cfg = sample_config(g, 0.5, derive_seed(303, i))
            flags = has_wrapping_cluster(cfg)
            for cl in all_components(cfg):
                sub = OpenSubgraph(g, cl.edges)
                cycles = oracle.enumerate_all_cycles(sub, override=True)
                wraps = any(any(w != 0 for w in c.winding) for c in cycles)
                assert flags[cl.root] == wraps, f"config {i}, root {cl.root}"

    def test_nonzero_winding_implies_long(self):
        g = get_torus(2, 4)
        for i in range(40):
            cfg = sample_config(g, 0.5, derive_seed(307, i))
            for cl in all_components(cfg):
                sub = OpenSubgraph(g, cl.edges)
                for c in oracle.enumerate_all_cycles(sub, override=True):
                    if any(w != 0 for w in c.winding):
                        assert c.long


class TestBudgetedSearches:
    def test_tree_cluster_is_no(self, g28):
        cfg = config_from_edges(
            g28, [edge_of(g28, (0, 0), (1, 0)), edge_of(g28, (1, 0), (2, 0))])
        assert vertex_in_long_cycle(cfg, vid(g28, 1, 0)).is_no

    def test_wrap_line_yes_with_witness(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        x = vid(g28, 0, 0)
        ans = vertex_in_long_cycle(cfg, x)
        assert ans.is_yes
        ans.witness.validate(g28, cfg)
        assert ans.witness.long and x in ans.witness.vertices

    def test_budget_zero_unknown(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        assert vertex_in_long_cycle(cfg, vid(g28, 0, 0), budget=0).is_unknown

    def test_short_square_cluster_no(self, g28):
        square = [edge_of(g28, (0, 0), (1, 0)), edge_of(g28, (1, 0), (1, 1)),
                  edge_of(g28, (0, 1), (1, 1)), edge_of(g28, (0, 0), (0, 1))]
        cfg = config_from_edges(g28, square)
        cl = component_of(cfg, vid(g28, 0, 0))
        assert cluster_contains_long_cycle(cfg, cl).is_no

    def test_count_on_wrap_line(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        count, unknown = long_cycle_vertex_count(cfg)
        assert count == g28.r and not unknown

    @pytest.mark.parametrize("r", [4, 8])
    def test_count_two_blocks_joined_by_bridges(self, r):
        # rows y=0 and y=2 wrap the torus; the path between them is two
        # bridges, so its middle vertex lies on no cycle
        g = get_torus(2, r)
        rows = [[(x, y) for x in range(r)] for y in (0, 2)]
        edges = [edge_of(g, row[i], row[(i + 1) % r]) for row in rows for i in range(r)]
        edges += [edge_of(g, (0, 0), (0, 1)), edge_of(g, (0, 1), (0, 2))]
        cfg = config_from_edges(g, edges)
        assert long_cycle_vertex_count(cfg) == (2 * r, False)
        assert min_long_cycle_cut(cfg, component_of(cfg, vid(g, 0, 1))).value == 2
        assert vertex_in_long_cycle(cfg, vid(g, 0, 1)).is_no
        assert vertex_in_long_cycle(cfg, vid(g, 3, 2)).is_yes

    def test_count_zero_at_p0(self, g25):
        assert long_cycle_vertex_count(sample_config(g25, 0.0, 1)) == (0, False)

    def test_count_unknown_with_tiny_budget(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        count, unknown = long_cycle_vertex_count(cfg, budget=1)
        assert unknown

    def test_count_unknown_with_tiny_budget_at_threshold_1(self):
        # a wrapping column of 4 edges and a domino of 7: a budget of 5
        # covers the column only, so the domino is left uncounted and flagged
        g = get_torus(2, 4)
        column = wrap_line_edges(g, axis=1)
        domino = [edge_of(g, (x, y), (x + 1, y)) for x in (1, 2) for y in (0, 1)]
        domino += [edge_of(g, (x, 0), (x, 1)) for x in (1, 2, 3)]
        cfg = config_from_edges(g, column + domino)
        assert long_cycle_vertex_count(cfg, budget=5) == (4, True)
        assert long_cycle_vertex_count(cfg, budget=7) == (10, False)

    def test_count_charges_the_core_not_the_pendant_path(self, g28):
        # a wrapping row of 8 edges with a 10-edge path hanging off it: the
        # budget is first charged the 8 core edges, then the block's 8
        # vertices, which all have reach 4 >= 2t - 1 = 3, so 16 units decide
        # the count that charging the cluster's 18 edges first gave up on
        edges = wrap_line_edges(g28)
        path = [(0, y) for y in range(4)] + [(x, 3) for x in range(1, 8)]
        edges += [edge_of(g28, a, b) for a, b in zip(path, path[1:])]
        cfg = config_from_edges(g28, edges)
        assert long_cycle_vertex_count(cfg, budget=17) == (8, False)
        assert long_cycle_vertex_count(cfg, budget=16) == (8, False)
        assert long_cycle_vertex_count(cfg, budget=15) == (0, True)

    def test_count_reads_no_instrumented_config(self, g28):
        # the count labels clusters from the bulk mask, which bypasses the
        # read log, so an instrumented config is refused
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        with pytest.raises(InstrumentationError):
            long_cycle_vertex_count(cfg.instrumented())

    def test_critical_d4_r8_counts_are_decided(self):
        # master seed 9 at d=4, r=8, p_c: the whole-cluster walk search ran
        # out of budget on replica 0; per block both replicas are decided,
        # with counts 122 and 30 (mean 76, standard error 46)
        row = est.est_vertex_long_cycle(4, [8], replicas=2, seed=9).rows[0]
        assert (row.replicas, row.discarded) == (2, 0)
        assert (row.mean, row.stderr) == (76.0, 46.0)
        # master seed 1: four replicas hold a block of 145-232 vertices where
        # a walk search from every vertex ran out of budget; every vertex there
        # has block reach 2t = 4, so none is searched
        row = est.est_vertex_long_cycle(4, [8], replicas=200, seed=1, threads=2).rows[0]
        assert (row.replicas, row.discarded) == (200, 0)

    @pytest.mark.parametrize("d", [4, 5])
    def test_critical_length_profile_is_decided(self, d):
        # a walk search over the whole cluster ran out of budget on 3 (d=4)
        # and 2 (d=5) of these replicas; x's block alone is decided
        rep = est.est_cycle_length_profile(d, 8, [32, 64, 256], replicas=20,
                                           origins=50, seed=1, threads=2)
        assert {row.discarded for row in rep.rows} == {0}

    def test_shortest_long_cycle_bounds(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        x = vid(g28, 0, 0)
        assert shortest_long_cycle_through(cfg, x, 3).is_no   # < 2 * floor(r/4)
        ans = shortest_long_cycle_through(cfg, x, g28.r)
        assert ans.is_yes and ans.value == g28.r
        ans.witness.validate(g28, cfg)

    def test_lck_monotone_in_k(self, g25):
        rng = np.random.default_rng(2)
        for i in range(40):
            cfg = sample_config(g25, 0.45, derive_seed(311, i))
            x = int(rng.integers(g25.num_vertices))
            verdicts = [shortest_long_cycle_through(cfg, x, k).is_yes
                        for k in (4, 6, 8, 12, 20)]
            assert verdicts == sorted(verdicts)


class TestMinCut:
    def test_tree_and_single_wrap(self, g28):
        tree = config_from_edges(g28, [edge_of(g28, (0, 0), (1, 0))])
        assert min_long_cycle_cut(tree, component_of(tree, vid(g28, 0, 0))).value == 0
        line = config_from_edges(g28, wrap_line_edges(g28))
        assert min_long_cycle_cut(line, component_of(line, vid(g28, 0, 0))).value == 1

    def test_theta_fixture(self):
        # two wrap lines joined by two rungs: six long cycles (each full row,
        # two contractible bands, two crossed bands that wrap), cut number 3
        g = get_torus(2, 8)
        edges = wrap_line_edges(g, axis=0)
        row1 = [(-4 + i, 1) for i in range(8)]
        edges += [edge_of(g, row1[i], row1[(i + 1) % 8]) for i in range(8)]
        edges += [edge_of(g, (0, 0), (0, 1)), edge_of(g, (-4, 0), (-4, 1))]
        cfg = config_from_edges(g, edges)
        cl = component_of(cfg, vid(g, 0, 0))
        ans = min_long_cycle_cut(cfg, cl, budget=10**7)
        sub = OpenSubgraph(g, cl.edges)
        assert len(oracle.enumerate_all_cycles(sub, override=True)) == 6
        brute = oracle.exact_min_long_cycle_cut(sub, override=True)
        assert ans.is_yes and ans.value == brute == 3

    def test_zero_iff_no_long_cycle(self, g25):
        for i in range(40):
            cfg = sample_config(g25, 0.45, derive_seed(317, i))
            for cl in all_components(cfg):
                if cl.surplus == 0:
                    continue
                cut = min_long_cycle_cut(cfg, cl)
                contains = cluster_contains_long_cycle(cfg, cl)
                assert cut.is_yes and contains.verdict in ("yes", "no")
                assert (cut.value == 0) == contains.is_no

    def test_upper_bound_fields(self, g28):
        line = config_from_edges(g28, wrap_line_edges(g28))
        cl = component_of(line, vid(g28, 0, 0))
        ans = min_long_cycle_cut(line, cl, special_edge_count=1)
        assert ans.upper_bound == 1 and ans.value == 1


class TestInteriorSet:
    def test_tree_empty_exact(self, g28):
        cfg = config_from_edges(g28, [edge_of(g28, (0, 0), (1, 0))])
        assert long_cycle_interior(cfg, vid(g28, 0, 0)) == (set(), True)

    def test_wrap_line_root_only(self, g28):
        # a bare cycle offers no edge-disjoint path+cycle pair except at the root
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        root = vid(g28, 0, 0)
        members, exact = long_cycle_interior(cfg, root)
        assert exact and members == {root}

    def test_budget_zero_inexact(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        members, exact = long_cycle_interior(cfg, vid(g28, 0, 0), budget=0)
        assert members == set() and not exact

    @pytest.mark.parametrize("r, p", [(5, 0.45), (8, 0.4)])
    def test_members_match_oracle(self, r, p):
        # z is a member iff an enumerated long cycle passes z and leaves a
        # root-z path of the whole cluster, with every third vertex as root
        g = get_torus(2, r)
        checked = 0
        for i in range(40):
            cfg = sample_config(g, p, derive_seed(541, r, i))
            for cl in all_components(cfg):
                if cl.surplus == 0 or len(cl.edges) > 36:
                    continue
                sub = OpenSubgraph(g, cl.edges)
                long_cycles = [c for c in oracle.enumerate_all_cycles(sub, override=True)
                               if c.long]
                for root in cl.vertices[::3].tolist():
                    want = {z for c in long_cycles for z in set(c.vertices)
                            if z == root
                            or sub.path_between(root, z, forbidden=c.edges) is not None}
                    assert long_cycle_interior(cfg, root, budget=10**7) == (want, True)
                    checked += bool(want)
        assert checked >= 20

    def test_interior_bound_when_exact(self, g25):
        # cut number <= 2d * |interior| whenever the interior is certified
        for i in range(30):
            cfg = sample_config(g25, 0.45, derive_seed(331, i))
            for cl in all_components(cfg):
                if cl.surplus == 0:
                    continue
                members, exact = long_cycle_interior(cfg, int(cl.vertices[0]),
                                                     budget=10**7)
                cut = min_long_cycle_cut(cfg, cl)
                if exact and cut.is_yes:
                    assert cut.value <= 2 * g25.d * len(members)


class TestOracleAgreement:
    def test_general_threshold_verdicts_match_oracle(self, g28):
        # threshold 2: exercises the generic walk search, the wrap shortcut,
        # the feasibility prune, and the subset-search cut
        rng = np.random.default_rng(8)
        for i in range(40):
            cfg = sample_config(g28, 0.32, derive_seed(347, i))
            t = long_cycle_threshold(g28)
            for cl in all_components(cfg):
                if cl.surplus == 0 or len(cl.edges) > 36:
                    continue
                sub = OpenSubgraph(g28, cl.edges)
                cycles = oracle.enumerate_all_cycles(sub, override=True)
                long_cycles = [c for c in cycles if c.long]
                contains = cluster_contains_long_cycle(cfg, cl, budget=10**7)
                assert contains.verdict in ("yes", "no")
                assert contains.is_yes == bool(long_cycles)
                on_long = set()
                for c in long_cycles:
                    on_long.update(c.vertices)
                probe = [int(v) for v in
                         rng.choice(cl.vertices, size=min(4, cl.size),
                                    replace=False)]
                for x in probe:
                    ans = vertex_in_long_cycle(cfg, x, budget=10**7)
                    assert ans.verdict in ("yes", "no")
                    assert ans.is_yes == (x in on_long), (i, x)
                    best = min((c.length for c in long_cycles
                                if x in c.vertices), default=None)
                    got = shortest_long_cycle_through(cfg, x, 40, budget=10**7)
                    if best is None:
                        assert got.is_no
                    else:
                        assert got.is_yes and got.value == best
                cut = min_long_cycle_cut(cfg, cl, budget=10**7)
                assert cut.is_yes
                assert cut.value == oracle.exact_min_long_cycle_cut(
                    sub, override=True)

    @pytest.mark.parametrize("p", [0.32, 0.4, 0.45])
    def test_long_cycle_vertex_count_matches_oracle(self, g28, p):
        # threshold 2: the per-block search counts exactly the vertices that
        # lie on some enumerated long cycle, and every block vertex whose
        # reach inside its block is at least 2t - 1 = 3, which the count takes
        # as Yes unsearched, is one of them
        checked = fired = 0
        for i in range(60):
            cfg = sample_config(g28, p, derive_seed(523, i))
            cyclic = [cl for cl in all_components(cfg) if cl.surplus > 0]
            if any(len(cl.edges) > 40 for cl in cyclic):
                continue
            on_long = set()
            far = set()
            for cl in cyclic:
                sub = OpenSubgraph(g28, cl.edges)
                for c in oracle.enumerate_all_cycles(sub):
                    if c.long:
                        on_long.update(c.vertices)
                for verts, _ in _blocks(sub):
                    verts = sorted(verts)
                    far.update(v for v in verts
                               if torus_distance(g28, v, np.asarray(verts)).max() >= 3)
            assert far <= on_long, i
            assert long_cycle_vertex_count(cfg) == (len(on_long), False), i
            checked += 1
            fired += bool(far)
        assert checked >= 20 and fired >= 1

    def test_definite_verdicts_match_enumeration(self, g25):
        for i in range(60):
            cfg = sample_config(g25, 0.45, derive_seed(337, i))
            t = long_cycle_threshold(g25)
            for cl in all_components(cfg):
                if cl.size == 1:
                    continue
                sub = OpenSubgraph(g25, cl.edges)
                cycles = oracle.enumerate_all_cycles(sub, override=True)
                long_sets = [c for c in cycles if c.long]
                contains = cluster_contains_long_cycle(cfg, cl)
                assert contains.verdict in ("yes", "no")
                assert contains.is_yes == bool(long_sets)
                on_long = set()
                for c in long_sets:
                    on_long.update(c.vertices)
                for x in cl.vertices:
                    ans = vertex_in_long_cycle(cfg, int(x))
                    assert ans.verdict in ("yes", "no")
                    assert ans.is_yes == (int(x) in on_long)
                cut = min_long_cycle_cut(cfg, cl)
                assert cut.value == oracle.exact_min_long_cycle_cut(sub,
                                                                    override=True)


class TestCutSums:
    # d=2, r=8: threshold 2, so the sums come from budgeted cut searches
    THRESHOLDS = [0.0, 10.0, 30.0, 50.0]

    def test_equals_summed_min_cuts(self, g28):
        for i in (0, 2, 3, 4, 5):
            cfg = sample_config(g28, 0.45, derive_seed(461, i))
            cuts = [(cl.size, min_long_cycle_cut(cfg, cl).value)
                    for cl in all_components(cfg)]
            want = [sum(v for size, v in cuts if size > t) for t in self.THRESHOLDS]
            assert cut_sums(cfg, self.THRESHOLDS) == want

    def test_none_when_a_cut_is_unknown(self, g28):
        cfg = sample_config(g28, 0.45, derive_seed(461, 2))
        (cl,) = [cl for cl in all_components(cfg) if cl.surplus > 0]
        # the per-block cut of this cluster ends at work 155
        assert min_long_cycle_cut(cfg, cl, budget=100).is_unknown
        assert cut_sums(cfg, [0.0, 50.0], budget=100) is None
        # clusters at or below every threshold are never searched
        assert cut_sums(cfg, [float(cl.size)], budget=100) == [0]

    @pytest.mark.parametrize("budget", [600, 1500, 10**6])
    def test_rows_independent_of_delta_order(self, budget):
        def rows(deltas):
            rep = est.est_cycle_cut(2, [5, 8], deltas, p=0.45, replicas=6,
                                    seed=2, budget=budget)
            return sorted(rep.to_csv(include_meta=False).splitlines()[1:])
        forward = rows((0.5, 2.0))
        assert len(forward) == 12 and forward == rows((2.0, 0.5))
