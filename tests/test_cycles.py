import numpy as np
import pytest

from torusperc import estimators as est
from torusperc import oracle
from torusperc.cluster import all_components, component_of
from torusperc.cycles import (MalformedCycleError, OpenSubgraph,
                              cluster_contains_long_cycle, cut_sums, cycle_radius,
                              has_wrapping_cluster, is_long_cycle,
                              long_cycle_interior, long_cycle_threshold,
                              long_cycle_vertex_count, min_long_cycle_cut,
                              shortest_long_cycle_through, vertex_in_long_cycle,
                              winding_vector)
from torusperc.lattice import get_torus
from torusperc.percolation import derive_seed, sample_config

from conftest import config_from_edges, edge_of, wrap_line_edges


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

    def test_count_zero_at_p0(self, g25):
        assert long_cycle_vertex_count(sample_config(g25, 0.0, 1)) == (0, False)

    def test_count_unknown_with_tiny_budget(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28))
        count, unknown = long_cycle_vertex_count(cfg, budget=1)
        assert unknown

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
        assert min_long_cycle_cut(cfg, cl, budget=200).is_unknown
        assert cut_sums(cfg, [0.0, 50.0], budget=200) is None
        # clusters at or below every threshold are never searched
        assert cut_sums(cfg, [float(cl.size)], budget=200) == [0]

    @pytest.mark.parametrize("budget", [600, 1500, 10**6])
    def test_rows_independent_of_delta_order(self, budget):
        def rows(deltas):
            rep = est.est_cycle_cut(2, [5, 8], deltas, p=0.45, replicas=6,
                                    seed=2, budget=budget)
            return sorted(rep.to_csv(include_meta=False).splitlines()[1:])
        forward = rows((0.5, 2.0))
        assert len(forward) == 12 and forward == rows((2.0, 0.5))
