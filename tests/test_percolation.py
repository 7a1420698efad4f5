import tracemalloc

import numpy as np
import pytest
from scipy import stats

from torusperc.lattice import build_box, get_torus
from torusperc.percolation import (BondConfig, InstrumentationError,
                                   UnknownCriticalPointError, calibrate_pc_scan,
                                   derive_seed, pc_reference, replica_rng,
                                   sample_config)


class TestSampling:
    def test_extreme_probabilities(self, g23):
        assert sample_config(g23, 0.0, 1).count_open() == 0
        assert sample_config(g23, 1.0, 1).count_open() == g23.num_edges

    def test_p_out_of_range(self, g23):
        with pytest.raises(ValueError):
            sample_config(g23, 1.5, 1)

    def test_seed_determinism(self, g23):
        a = sample_config(g23, 0.37, 123456789)
        b = sample_config(g23, 0.37, 123456789)
        assert a.packed_bytes() == b.packed_bytes()
        c = sample_config(g23, 0.37, 123456790)
        assert a.packed_bytes() != c.packed_bytes()

    def test_chunked_draw_equals_one_draw(self):
        # 2,114,907 edges: more than one chunk, and no multiple of 8
        g = get_torus(3, 89)
        want = np.packbits(replica_rng(5).random(g.num_edges) < 0.3, bitorder="little")
        assert sample_config(g, 0.3, 5).packed_bytes() == want.tobytes()

    def test_sampling_never_holds_one_float_per_edge(self):
        g = get_torus(7, 8)
        tracemalloc.start()
        try:
            sample_config(g, 0.3, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * g.num_edges / 4

    def test_derived_seeds_differ(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_box_geometry_sampling(self):
        b = build_box([0, 0], 2)
        cfg = sample_config(b, 0.5, 9)
        assert cfg.num_edges == b.num_edges

    def test_per_edge_concentration(self, g23):
        # binomial concentration of per-edge open frequencies, pinned seed
        p, n = 0.5, 20000
        counts = np.zeros(g23.num_edges)
        for i in range(n):
            counts += sample_config(g23, p, derive_seed(11, i)).open_mask()
        dev = np.abs(counts / n - p)
        assert (dev <= 3 * np.sqrt(p * (1 - p) / n)).all()

    def test_four_edge_independence(self, g23):
        # chi-square of the joint law of 4 fixed edges; significance 1e-3
        p, n = 0.5, 50000
        picks = [0, 5, 9, 17]
        patterns = np.zeros(16)
        for i in range(n):
            m = sample_config(g23, p, derive_seed(21, i)).open_mask()[picks]
            patterns[int(np.dot(m, [8, 4, 2, 1]))] += 1
        expected = np.full(16, n / 16.0)
        chi2 = ((patterns - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(1 - 1e-3, 15)


class TestInstrumentation:
    def test_read_log_collects(self, g23):
        cfg = sample_config(g23, 0.5, 3).instrumented()
        cfg.is_open(4)
        cfg.is_open(11)
        assert cfg.read_log == {4, 11}

    def test_bulk_access_forbidden(self, g23):
        cfg = sample_config(g23, 0.5, 3).instrumented()
        with pytest.raises(InstrumentationError):
            cfg.open_mask()

    def test_peek_does_not_log(self, g23):
        cfg = sample_config(g23, 0.5, 3).instrumented()
        cfg.peek_open(4)
        assert cfg.read_log == set()

    def test_from_bits_roundtrip(self, g23):
        bits = 0b101101
        cfg = BondConfig.from_bits(g23, bits, p=0.5)
        for e in range(g23.num_edges):
            assert cfg.is_open(e) == bool((bits >> e) & 1)


class TestReferenceTable:
    def test_known_rows(self):
        assert pc_reference(2).p_c == 0.5
        row = pc_reference(7)
        assert abs(row.p_c - 0.0787) < 5e-4
        assert row.source

    def test_unknown_row_is_an_error(self):
        with pytest.raises(UnknownCriticalPointError):
            pc_reference(3, "spread-out", L=20)


class TestCalibrationScan:
    def test_deep_subcritical_dies(self):
        rows = calibrate_pc_scan(3, 4, [0.001], samples=50, seed=1,
                                 k_grid=[1, 4, 8])
        by_k = {row["k"]: row["k_times_prob"] for row in rows}
        assert by_k[8] == 0.0

    def test_all_open_ball_never_dies(self):
        rows = calibrate_pc_scan(2, 7, [1.0], samples=5, seed=1, k_grid=[1, 3, 5])
        for row in rows:
            assert row["prob"] == 1.0
            assert row["k_times_prob"] == row["k"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            calibrate_pc_scan(2, 5, [], samples=5, seed=1)

    @pytest.mark.slow
    def test_plateau_near_reference(self):
        # near p_c the scaled one-arm value stays bounded and roughly flat
        p = pc_reference(7).p_c
        rows = calibrate_pc_scan(7, 5, [p], samples=400, seed=4,
                                 k_grid=[5, 10, 20])
        vals = [row["k_times_prob"] for row in rows]
        assert all(v > 0 for v in vals)
        assert max(vals) < 10 * min(vals)
