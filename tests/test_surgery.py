from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest

from torusperc import cycles, oracle, surgery
from torusperc.cluster import all_components, component_map
from torusperc.cycles import (OpenSubgraph, WorkBudget,
                              _subgraph_contains_long_cycle, long_cycle_threshold)
from torusperc.lattice import get_torus
from torusperc.percolation import BondConfig, derive_seed, pc_reference, sample_config

from conftest import config_from_edges, edge_of, wrap_line_edges


def vid(g, *c):
    return g.vertex_index(list(c))


def square_edges(g):
    return [edge_of(g, (0, 0), (1, 0)), edge_of(g, (1, 0), (1, 1)),
            edge_of(g, (0, 1), (1, 1)), edge_of(g, (0, 0), (0, 1))]


class TestStageOne:
    def test_isolated_root(self, g25):
        cfg = sample_config(g25, 0.0, 1).instrumented()
        s1 = surgery.depth_first_explore(cfg, 3, check_invariants=True)
        assert s1.vertices == [3]
        assert s1.surplus_edges == [] and s1.tree_edges == []
        assert sorted(s1.explored_edges) == sorted(
            int(e) for e in g25.incident_edges(3)[0])

    def test_square_has_one_surplus(self, g28):
        cfg = config_from_edges(g28, square_edges(g28)).instrumented()
        s1 = surgery.depth_first_explore(cfg, vid(g28, 0, 0),
                                         check_invariants=True)
        assert len(s1.surplus_edges) == 1
        assert len(s1.tree_edges) == 3
        assert not set(s1.surplus_edges) & cfg.read_log

    def test_tree_cluster_no_surplus(self, g28):
        edges = [edge_of(g28, (0, 0), (1, 0)), edge_of(g28, (1, 0), (2, 0)),
                 edge_of(g28, (1, 0), (1, 1))]
        cfg = config_from_edges(g28, edges).instrumented()
        s1 = surgery.depth_first_explore(cfg, vid(g28, 0, 0),
                                         check_invariants=True)
        assert s1.surplus_edges == []
        assert sorted(s1.tree_edges) == sorted(edges)

    def test_partition_of_incident_edges(self, g25):
        for i in range(30):
            cfg = sample_config(g25, 0.45, derive_seed(401, i)).instrumented()
            s1 = surgery.depth_first_explore(cfg, 0, check_invariants=True)
            incident = set()
            for v in s1.vertices:
                incident.update(int(e) for e in g25.incident_edges(v)[0])
            assert set(s1.explored_edges) | set(s1.surplus_edges) == incident
            assert not set(s1.explored_edges) & set(s1.surplus_edges)
            # the open explored edges are exactly the tree
            open_explored = {e for e in s1.explored_edges if cfg.peek_open(e)}
            assert open_explored == set(s1.tree_edges)
            # surplus endpoints are inside the cluster
            for e in s1.surplus_edges:
                u, v = g25.edge_endpoints(e)
                assert u in s1.vertex_set and v in s1.vertex_set

    def test_surplus_statuses_never_read(self, g25):
        for i in range(30):
            cfg = sample_config(g25, 0.45, derive_seed(409, i)).instrumented()
            s1 = surgery.depth_first_explore(cfg, 0)
            assert cfg.read_log == set(s1.explored_edges)


class TestBranchOrdering:
    def test_no_surplus_empty(self, g25):
        cfg = sample_config(g25, 0.0, 1)
        s1 = surgery.depth_first_explore(cfg, 0)
        ordering = surgery.order_branch_vertices(s1)
        assert ordering.order == []

    def test_square_single_branch(self, g28):
        cfg = config_from_edges(g28, square_edges(g28))
        s1 = surgery.depth_first_explore(cfg, vid(g28, 0, 0))
        ordering = surgery.order_branch_vertices(s1)
        assert len(ordering.order) == 1

    def test_nested_cycles_ancestor_first(self, g28):
        # a square hanging off a square: the branch vertex closing the inner
        # square sits deeper in the tree, so the outer one is numbered first
        edges = square_edges(g28)
        edges += [edge_of(g28, (1, 1), (2, 1)), edge_of(g28, (2, 1), (2, 2)),
                  edge_of(g28, (1, 2), (2, 2)), edge_of(g28, (1, 1), (1, 2))]
        cfg = config_from_edges(g28, edges)
        s1 = surgery.depth_first_explore(cfg, vid(g28, 0, 0),
                                         check_invariants=True)
        ordering = surgery.order_branch_vertices(s1)
        assert len(ordering.order) == 2
        d0 = ordering.aux_depth[ordering.order[0]]
        d1 = ordering.aux_depth[ordering.order[1]]
        assert d0 <= d1
        # ancestors receive smaller numbers than their aux-tree descendants
        for later in ordering.order[1:]:
            anc = ordering.aux_parent[later]
            if anc in ordering.order:
                assert ordering.order.index(anc) < ordering.order.index(later)

    def test_surplus_edges_tree_comparable(self, g25):
        for i in range(40):
            cfg = sample_config(g25, 0.5, derive_seed(419, i))
            s1 = surgery.depth_first_explore(cfg, 0)
            ordering = surgery.order_branch_vertices(s1)
            for e, (a, b) in ordering.oriented_surplus.items():
                assert s1.is_tree_ancestor(b, a)


class TestStageTwo:
    def test_no_surplus_trivial(self, g25):
        cfg = sample_config(g25, 0.0, 1).instrumented()
        res = surgery.explore_cluster(cfg, 0)
        assert res.valid and res.probed_edges == [] and res.special_edges == []
        assert res.graph_edges == []

    def test_short_square_probed(self, g28):
        # r = 8 >= 9 is not needed: radius 1 < threshold 2 keeps it short
        cfg = config_from_edges(g28, square_edges(g28)).instrumented()
        res = surgery.explore_cluster(cfg, vid(g28, 0, 0), check_invariants=True)
        assert res.valid
        assert res.special_edges == [] and len(res.probed_edges) == 1

    def test_wrap_cycle_special(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28)).instrumented()
        res = surgery.explore_cluster(cfg, vid(g28, 0, 0), check_invariants=True)
        assert res.valid
        assert len(res.special_edges) == 1 and res.probed_edges == []
        e = res.special_edges[0]
        assert e not in cfg.read_log
        w = res.certificates[e]
        w.validate(g28)
        assert w.long and e in w.edges

    def test_unknown_decision_invalidates(self, g28):
        cfg = config_from_edges(g28, wrap_line_edges(g28)).instrumented()
        res = surgery.explore_cluster(cfg, vid(g28, 0, 0), budget_per_decision=0)
        assert not res.valid

    @pytest.mark.parametrize("p", [0.1, 0.2487, 0.4])
    def test_invariant_bundle_random(self, p):
        g = get_torus(3, 5)
        rng = np.random.default_rng(int(p * 1000))
        for i in range(60):
            cfg = sample_config(g, p, derive_seed(431, i)).instrumented()
            root = int(rng.integers(g.num_vertices))
            s1 = surgery.depth_first_explore(cfg, root, check_invariants=True)
            stage1_reads = set(cfg.read_log)
            assert stage1_reads == set(s1.explored_edges)
            res = surgery.second_stage(cfg, s1, check_invariants=True)
            assert res.valid
            # partition
            assert set(res.probed_edges) | set(res.special_edges) == \
                set(s1.surplus_edges)
            assert not set(res.probed_edges) & set(res.special_edges)
            # stage-2 reads are exactly the probed edges
            assert cfg.read_log - stage1_reads == set(res.probed_edges)
            # kill switch: all special edges closed leaves no long cycle
            sub = OpenSubgraph(g, res.graph_edges)
            assert _subgraph_contains_long_cycle(sub, WorkBudget(10**7)).is_no
            # per-special-edge certificate against the final graph
            for e in res.special_edges:
                plus = OpenSubgraph(g, list(res.graph_edges) + [e])
                ans = _subgraph_contains_long_cycle(plus, WorkBudget(10**7))
                assert ans.is_yes and e in ans.witness.edges


class TestExhaustiveValidation:
    @pytest.mark.slow
    def test_special_edges_conditionally_independent(self, g23):
        # over every config of the 18-edge torus at p = 1/2, conditioned on
        # the revealed statuses and the special set, the special statuses are
        # uniform: every pattern equally frequent
        root = g23.origin
        groups = defaultdict(Counter)
        for bits in range(1 << 18):
            cfg = BondConfig.from_bits(g23, bits, p=0.5)
            res = surgery.explore_cluster(cfg, root, collect_certificates=False)
            assert res.valid
            revealed = tuple(sorted((e, cfg.peek_open(e)) for e in
                                    res.stage1.explored_edges + res.probed_edges))
            z = tuple(sorted(res.special_edges))
            pattern = tuple(cfg.peek_open(e) for e in z)
            groups[(revealed, z)][pattern] += 1
        checked = 0
        for (revealed, z), counter in groups.items():
            if not z:
                continue
            checked += 1
            assert len(counter) == 1 << len(z)
            counts = set(counter.values())
            assert len(counts) == 1, f"nonuniform pattern counts {counter}"
        assert checked > 0

    @pytest.mark.slow
    def test_estimator_pair_matches_exhaustive_truth(self, g23):
        # P(no long cycles in clusters above the delta threshold): both
        # estimators agree with the exact value within 3 standard errors
        delta = 1.0
        threshold = delta * g23.num_vertices ** (2 / 3)

        def no_big_long_cycles(cfg):
            for cl in all_components(cfg):
                if cl.size <= threshold or cl.surplus == 0:
                    continue
                return False         # any cycle is long on this torus
            return True

        exact = float(oracle.exhaustive_config_probability(
            g23, Fraction(1, 2), no_big_long_cycles))
        configs = [sample_config(g23, 0.5, derive_seed(443, i))
                   for i in range(4000)]
        est_d, se_d, n_d, disc_d = surgery.estimate_no_long_cycle_probability(
            configs, delta, method="direct")
        est_s, se_s, n_s, disc_s = surgery.estimate_no_long_cycle_probability(
            configs, delta, method="special-edge", rep_seed=7)
        assert disc_d == disc_s == 0 and n_d == n_s == len(configs)
        assert abs(est_d - exact) <= 3 * se_d
        assert abs(est_s - exact) <= 3 * se_s


class TestEstimatorEdgeCases:
    def test_p0_stream_gives_one(self, g23):
        configs = [sample_config(g23, 0.0, i) for i in range(20)]
        est, se, n, disc = surgery.estimate_no_long_cycle_probability(configs, 1.0)
        assert est == 1.0 and disc == 0

    def test_huge_delta_gives_one(self, g23):
        configs = [sample_config(g23, 0.6, derive_seed(7, i)) for i in range(20)]
        est, *_ = surgery.estimate_no_long_cycle_probability(configs, 100.0)
        assert est == 1.0

    def test_bad_arguments(self, g23):
        with pytest.raises(ValueError):
            surgery.estimate_no_long_cycle_probability([], 0.0)
        with pytest.raises(ValueError):
            surgery.estimate_no_long_cycle_probability([], 1.0, method="nope")


def _largest_cluster_root(cfg):
    cm = component_map(cfg)
    return int(cm.roots[cm.order[0]])


def _tree_path(s1, u, v):
    """The stage-1 tree path u..v between the endpoints of a surplus edge."""
    if s1.is_tree_ancestor(u, v):
        return _tree_path(s1, v, u)[::-1]
    up = s1.tree_path_to_root(u)
    return up[:up.index(v) + 1]


class TestDecisionRegimes:
    @pytest.mark.parametrize("d,r,p", [(2, 5, 0.5), (3, 5, 0.3)])
    def test_every_surplus_edge_special_when_all_cycles_long(self, d, r, p):
        # at floor(r/4) <= 1 the stage-1 tree spans the cluster, so every
        # surplus edge closes a tree cycle, and every cycle is long
        g = get_torus(d, r)
        assert long_cycle_threshold(g) <= 1
        surplus = 0
        for i in range(12):
            cfg = sample_config(g, p, derive_seed(451, d, r, i))
            icfg = cfg.instrumented()
            res = surgery.explore_cluster(icfg, _largest_cluster_root(cfg))
            s1 = res.stage1
            assert res.valid and res.probed_edges == []
            assert sorted(res.special_edges) == sorted(s1.surplus_edges)
            assert res.graph_edges == sorted(s1.tree_edges)
            assert icfg.read_log == set(s1.explored_edges)
            assert sorted(res.certificates) == sorted(s1.surplus_edges)
            for e in s1.surplus_edges:
                u, v = g.edge_endpoints(e)
                w = res.certificates[e]
                assert w.vertices == _tree_path(s1, u, v) + [u]
                assert w.edges[-1] == e and w.long
            surplus += len(s1.surplus_edges)
        assert surplus > 20

    def test_second_stage_builds_one_subgraph(self, monkeypatch):
        # the stage-2 graph is built once from the tree and grown in place,
        # not rebuilt for each decision
        g = get_torus(3, 5)
        built = []
        init = OpenSubgraph.__init__

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(OpenSubgraph, "__init__", counting_init)
        for i in range(4):
            cfg = sample_config(g, 0.4, derive_seed(461, i))
            s1 = surgery.depth_first_explore(cfg, _largest_cluster_root(cfg))
            built.clear()
            res = surgery.second_stage(cfg, s1)
            assert res.valid and len(res.special_edges) > 10
            assert len(built) == 1

    @pytest.mark.parametrize("d,r,p", [(3, 5, 0.3), (2, 8, 0.5)])
    def test_certificates_off_changes_no_decision(self, d, r, p):
        g = get_torus(d, r)
        decided = 0
        for i in range(8):
            cfg = sample_config(g, p, derive_seed(457, d, r, i))
            root = _largest_cluster_root(cfg)
            runs = []
            for certs in (True, False):
                icfg = cfg.instrumented()
                res = surgery.explore_cluster(icfg, root,
                                              collect_certificates=certs)
                runs.append((res.to_json(), sorted(icfg.read_log)))
                decided += len(res.probed_edges) + len(res.special_edges)
            assert runs[0] == runs[1]
        assert decided > 20


class TestThresholdTwoDecisions:
    @pytest.mark.parametrize("p", [0.4, 0.5])
    def test_decisions_and_kill_switch_match_oracle(self, monkeypatch, p):
        # d=2, r=8 (threshold 2): each stage-2 decision searches only the
        # block of G+e that holds e; its verdict must be the enumeration's,
        # and the final graph must carry no long cycle
        g = get_torus(2, 8)
        decide = cycles.edge_closes_long_cycle
        calls = []

        def spy(graph, e, *args, **kwargs):
            ans = decide(graph, e, *args, **kwargs)
            calls.append((list(graph.edge_ids), e, ans))
            return ans

        monkeypatch.setattr(cycles, "edge_closes_long_cycle", spy)
        for s in range(20):
            cfg = sample_config(g, p, derive_seed(77, 2, 8, s))
            res = surgery.explore_cluster(cfg.instrumented(), _largest_cluster_root(cfg))
            assert res.valid
            final = oracle.enumerate_all_cycles(OpenSubgraph(g, res.graph_edges), override=True)
            assert not any(c.long for c in final), s
        yes = 0
        for edges, e, ans in calls:
            plus = OpenSubgraph(g, edges + [e])
            want = any(c.long and e in c.edges
                       for c in oracle.enumerate_all_cycles(plus, override=True))
            assert ans.verdict == ("yes" if want else "no")
            if want:
                ans.witness.validate(g)
                assert ans.witness.long and e in ans.witness.edges
                yes += 1
        assert len(calls) > 90 and yes > 15

    @pytest.mark.xfail(raises=surgery.ExplorationInvariantError, strict=True,
                       reason="a threshold-2 certificate cycle shares edges with "
                              "the root path (README, known limitations)")
    @pytest.mark.parametrize("s", [6, 10, 11, 19])
    def test_root_path_check_holds_at_d3_r8(self, s):
        # the checked exploration from the smallest vertex of the largest
        # cluster; these seeds raise until the program changes, and a pass
        # fails the run, so a mended defect shows
        cfg = sample_config(get_torus(3, 8), pc_reference(3).p_c, derive_seed(77, 3, 8, s))
        surgery.explore_cluster(cfg.instrumented(), _largest_cluster_root(cfg),
                                check_invariants=True)

    def test_critical_d4_r8_exploration_is_valid(self):
        # 1362 vertices, surplus 35: a decision that searched the whole
        # cluster would exhaust the default budget, e's block does not
        cfg = sample_config(get_torus(4, 8), pc_reference(4).p_c, derive_seed(6, 0))
        res = surgery.explore_cluster(cfg.instrumented(), _largest_cluster_root(cfg))
        assert res.valid
