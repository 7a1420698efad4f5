from collections import defaultdict

import numpy as np
import pytest

from torusperc import coupling, oracle
from torusperc.cluster import component_of
from torusperc.coupling import CouplingError, coupled_sample, check_inclusion_property
from torusperc.lattice import get_torus
from torusperc.percolation import derive_seed


class TestSampler:
    def test_p0_stops_immediately(self):
        s = coupled_sample(2, 5, 0.0, seed=3, window_factor=2)
        assert len(s.explored_closed) == 4 and not s.explored_open
        assert not s.truncated
        assert s.steps == 4

    def test_p1_consumes_every_class_once(self):
        # the exploration reveals each torus edge class exactly once and halts
        s = coupled_sample(2, 3, 1.0, seed=3, window_factor=2)
        g = s.torus_config.geometry
        assert len(s.torus_reads) == g.num_edges
        assert len(set(s.torus_reads)) == g.num_edges
        assert len(s.explored_open) == g.num_edges

    def test_bad_parameters(self):
        with pytest.raises(CouplingError):
            coupled_sample(2, 5, 0.3, seed=1, window_factor=1)
        with pytest.raises(CouplingError):
            coupled_sample(2, 5, 1.5, seed=1)

    def test_step_budget_sets_truncation(self):
        s = coupled_sample(2, 5, 0.9, seed=11, window_factor=2, step_budget=3)
        assert s.truncated

    def test_explored_statuses_copied_from_torus(self):
        s = coupled_sample(2, 4, 0.5, seed=21, window_factor=2)
        g = s.torus_config.geometry
        w = s.window
        for e in s.explored_open | s.explored_closed:
            u, v = w.edge_endpoints(e)
            tu = g.vertex_index(w.vertex_coords(u))
            tv = g.vertex_index(w.vertex_coords(v))
            te = g.edge_between(int(tu), int(tv))
            assert s.torus_config.peek_open(te) == bool(s.lattice_open[e])

    def test_exploration_matches_origin_cluster(self):
        # the consumed open classes are exactly the open edges of the torus
        # cluster of the origin
        for i in range(30):
            s = coupled_sample(2, 4, 0.4, seed=derive_seed(61, i),
                               window_factor=2)
            g = s.torus_config.geometry
            w = s.window
            cl = component_of(s.torus_config, g.origin)
            open_classes = set()
            for e in s.explored_open:
                u, v = w.edge_endpoints(e)
                open_classes.add(g.edge_between(
                    int(g.vertex_index(w.vertex_coords(u))),
                    int(g.vertex_index(w.vertex_coords(v)))))
            assert open_classes == set(int(e) for e in cl.edges)

    def test_ghosting_completeness(self):
        # explored and ghost edges together are exactly the window edges of
        # every read wrap-equivalence class (same rank, base coordinates
        # congruent mod r), and each read class has one explored member
        r = 3
        for i in range(20):
            s = coupled_sample(2, r, 0.6, seed=derive_seed(67, i),
                               window_factor=2, step_budget=None if i % 4 else 9)
            w = s.window
            classes = defaultdict(set)
            for f in range(w.num_edges):
                base, rank = w.edge_base_rank(f)
                classes[rank, tuple(w.vertex_coords(base) % r)].add(f)
            read = [c for c in classes.values() if c & s.explored]
            ghosts = s.ghost_edges.tolist()
            assert s.ghost_edges.dtype == np.int64
            assert all(a < b for a, b in zip(ghosts, ghosts[1:]))     # sorted, no repeats
            assert s.explored.isdisjoint(ghosts)
            assert s.explored | set(ghosts) == set().union(*read)
            assert all(len(c & s.explored) == 1 for c in read)
            assert len(read) == len(s.torus_reads)

    def test_single_read_is_asserted(self):
        # torus_reads is duplicate-free by construction; double consumption
        # raises inside the sampler, so surviving samples prove the property
        s = coupled_sample(3, 4, 0.3, seed=5, window_factor=2)
        assert len(s.torus_reads) == len(set(s.torus_reads))


class TestTorusEdgeMap:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("K", [2, 4])
    def test_map_matches_edge_between(self, d, r, K):
        g = get_torus(d, r)
        w = coupling._get_window(d, K * r, "nn")
        got = coupling._torus_edge_map(d, r, K * r)
        ends = g.vertex_index(w.vertex_coords(w.edge_array()))
        want = [g.edge_between(u, v) for u, v in ends.tolist()]
        assert got.tolist() == want


class TestInclusionProperty:
    def test_k0_and_p0(self):
        s = coupled_sample(2, 5, 0.0, seed=3, window_factor=2)
        rep = check_inclusion_property(s, [0, 1, 2])
        assert rep.applicable and rep.ok

    def test_truncated_inapplicable(self):
        s = coupled_sample(2, 5, 0.9, seed=11, window_factor=2, step_budget=2)
        rep = check_inclusion_property(s, [0, 1])
        assert not rep.applicable

    def test_holds_on_random_samples(self):
        bad = 0
        used = 0
        for i in range(150):
            s = coupled_sample(3, 5, 0.2, seed=derive_seed(71, i),
                               window_factor=4)
            rep = check_inclusion_property(s, range(0, 21))
            if not rep.applicable:
                continue
            used += 1
            if not rep.ok:
                bad += 1
        assert used > 120 and bad == 0


class TestMarginals:
    def test_torus_and_lattice_frequencies(self):
        # family-wise per-edge binomial check at overall significance 1e-3
        from scipy import stats
        p, n = 0.6, 500
        torus_counts = None
        window_counts = None
        for i in range(n):
            s = coupled_sample(2, 3, p, seed=derive_seed(73, i), window_factor=2)
            tmask = s.torus_config.open_mask()
            if torus_counts is None:
                torus_counts = np.zeros(len(tmask))
                window_counts = np.zeros(len(s.lattice_open))
            torus_counts += tmask
            window_counts += s.lattice_open
        for counts, m in ((torus_counts, len(torus_counts)),
                          (window_counts, len(window_counts))):
            z = stats.norm.ppf(1 - 0.0005 / m)
            dev = np.abs(counts / n - p)
            assert (dev <= z * np.sqrt(p * (1 - p) / n)).all()

    def test_origin_cluster_size_distribution_matches_direct(self):
        # |C_T(origin)| under coupled sampling vs direct sampling
        from torusperc.percolation import sample_config
        g = get_torus(2, 3)
        n = 1500
        coupled_sizes = np.array([
            len(component_of(coupled_sample(2, 3, 0.5, seed=derive_seed(79, i),
                                            window_factor=2).torus_config,
                             g.origin).vertices)
            for i in range(n)])
        direct_sizes = np.array([
            len(component_of(sample_config(g, 0.5, derive_seed(83, i)),
                             g.origin).vertices)
            for i in range(n)])
        # total-variation distance between empirical size histograms
        hi = g.num_vertices + 1
        hc = np.bincount(coupled_sizes, minlength=hi) / n
        hd = np.bincount(direct_sizes, minlength=hi) / n
        assert 0.5 * np.abs(hc - hd).sum() < 0.05


class TestPropertyB:
    def test_vacuous_when_no_discrepancy(self):
        s = coupled_sample(2, 3, 0.0, seed=1, window_factor=2)
        assert oracle.verify_coupling_property_b(s, [0, 1, 2]) == []

    @pytest.mark.parametrize("seed,kmax", [(50002, 4), (50005, 4), (50007, 5)])
    def test_witness_found_on_real_discrepancies(self, seed, kmax):
        # seeds pinned from a scan: each sample has a lattice connection whose
        # torus counterpart fails, forcing the disjoint-connection witness
        s = coupled_sample(2, 3, 0.45, seed=seed, window_factor=2)
        records = oracle.verify_coupling_property_b(s, range(0, kmax + 1))
        assert records, "expected a discrepancy for this pinned seed"
        assert all(r["witness_found"] for r in records)
