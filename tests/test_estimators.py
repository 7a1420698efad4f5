import math

import numpy as np
import pytest

from torusperc import estimators as est
from torusperc.lattice import NEAREST_NEIGHBOR, get_torus


class TestLogLogSlope:
    def test_exact_power_laws(self):
        slope, stderr, r2 = est.loglog_slope([(10, 100), (100, 10000)])
        assert slope == pytest.approx(2.0) and stderr == 0.0 and r2 == 1.0
        slope, *_ = est.loglog_slope([(V, V ** (1 / 3)) for V in (64, 512, 4096)])
        assert slope == pytest.approx(1 / 3)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(0)
        pts = [(V, V ** (1 / 3) * (1 + 0.01 * rng.standard_normal()))
               for V in (10**3, 10**4, 10**5)]
        slope, stderr, r2 = est.loglog_slope(pts)
        assert abs(slope - 1 / 3) < 0.05

    def test_errors(self):
        with pytest.raises(ValueError):
            est.loglog_slope([(10, 100)])
        with pytest.raises(ValueError):
            est.loglog_slope([(10, 0), (100, 5)])
        with pytest.raises(ValueError):
            est.loglog_slope([(10, 1), (10, 2)])


class TestWilson:
    def test_interval_properties(self):
        lo, hi = est.wilson_interval(50, 100)
        assert 0 < lo < 0.5 < hi < 1
        lo, hi = est.wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.1

    def test_empty(self):
        lo, hi = est.wilson_interval(0, 0)
        assert math.isnan(lo) and math.isnan(hi)


class TestTrivialInputs:
    def test_p0_all_zero(self):
        rep = est.est_vertex_long_cycle(2, [4, 5], p=0.0, replicas=5, seed=1)
        for row in rep.rows:
            assert row.mean == 0.0 and row.discarded == 0
        assert rep.slopes == []      # nothing positive to fit

    def test_cluster_size_extremes(self):
        rep0 = est.est_mean_cluster_size(2, [4], p=0.0, replicas=5, seed=1)
        assert rep0.rows[0].mean == 1.0
        rep1 = est.est_mean_cluster_size(2, [4], p=1.0, replicas=5, seed=1)
        assert rep1.rows[0].mean == 16.0

    def test_cut_trivial_delta(self):
        # threshold above V: indicator never fires
        rep = est.est_cycle_cut(2, [4], [100.0], p=0.6, replicas=10, seed=1)
        mean_row = [r for r in rep.rows if r.quantity.startswith("cycle-cut-mean")][0]
        zero_row = [r for r in rep.rows if "zero-prob" in r.quantity][0]
        assert mean_row.mean == 0.0 and zero_row.mean == 1.0

    def test_tail_p0(self):
        rep = est.est_long_cycle_tail(2, 5, [1.0], p=0.0, replicas=5, seed=1)
        for row in rep.rows:
            assert row.mean == 0.0

    def test_two_point_p0(self):
        rep = est.est_two_point(2, 5, p=0.0, replicas=5, seed=1)
        for row in rep.rows:
            if "gap" not in row.quantity:
                assert row.mean == 0.0

    def test_ball_p1_full_boundary(self):
        rep = est.est_ball_boundary_sum(2, [1], p=1.0, replicas=5, seed=1)
        assert rep.rows[0].mean == 8.0     # 3^2 - 1

    def test_ball_p0(self):
        rep = est.est_ball_boundary_sum(3, [2], p=0.0, replicas=5, seed=1)
        assert rep.rows[0].mean == 0.0

    def test_lck_below_min_length_zero(self):
        rep = est.est_cycle_length_profile(2, 8, [3], p=0.5, replicas=5,
                                           origins=3, seed=1)
        prob = [r for r in rep.rows if "prob" in r.quantity][0]
        assert prob.mean == 0.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            est.est_vertex_long_cycle(2, [], p=0.5)
        with pytest.raises(ValueError):
            est.est_cycle_cut(2, [4], [0.0], p=0.5)
        with pytest.raises(ValueError):
            est.est_cycle_length_profile(2, 5, [], p=0.5)
        for threads in (0, -1):
            with pytest.raises(ValueError):
                est.est_mean_cluster_size(2, [4], p=0.3, replicas=2, seed=1,
                                          threads=threads)

    def test_box_estimators_refuse_other_models(self):
        # the hashed boxes are nearest-neighbor, so a spread-out request
        # would report nearest-neighbor box rows under a spread-out label
        with pytest.raises(ValueError, match="model"):
            est.est_two_point(2, 7, p=0.3, model="spread-out", L=2, replicas=20, seed=3)
        with pytest.raises(ValueError, match="model"):
            est.est_ball_boundary_sum(2, [2], p=0.3, model="spread-out", L=2,
                                      replicas=5, seed=3)


class TestLckMonotone:
    def test_prob_nondecreasing_in_k(self):
        rep = est.est_cycle_length_profile(2, 5, [4, 6, 8, 10], p=0.45,
                                           replicas=60, origins=3, seed=3)
        probs = [r.mean for r in rep.rows if "prob" in r.quantity]
        assert probs == sorted(probs)


class TestTailSurrogates:
    def test_huge_eps_witness_equals_any_long_cycle(self):
        # threshold below the minimum cycle length: the witness indicator
        # coincides with 'some long cycle exists'
        from torusperc.cluster import component_map
        from torusperc.cycles import _all_cycles_long
        from torusperc.percolation import derive_seed, sample_config
        g = get_torus(2, 5)
        assert _all_cycles_long(g)
        eps = 100.0
        rep = est.est_long_cycle_tail(2, 5, [eps], p=0.45, replicas=80, seed=9)
        witness_row = [r for r in rep.rows if "witness" in r.quantity][0]
        manual = []
        for i in range(80):
            cfg = sample_config(g, 0.45, derive_seed(9, est._S_TAIL, 5, i))
            cm = component_map(cfg)
            manual.append(1.0 if (cm.surplus >= 1).any() else 0.0)
        assert witness_row.mean == pytest.approx(float(np.mean(manual)))


class TestReports:
    def test_csv_layout(self):
        rep = est.est_mean_cluster_size(2, [4, 5], p=0.3, replicas=5, seed=1)
        text = rep.to_csv()
        lines = text.strip().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert meta and any("quantity" in l for l in meta)
        header = [l for l in lines if l.startswith("quantity,")][0]
        assert header == est.EstimateReport.CSV_HEADER
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(body) == 4 + 1           # 2 quantities x 2 sizes + slope row
        assert body[-1].startswith("cluster-size-mean:slope")
        bare = rep.to_csv(include_meta=False)
        assert not bare.startswith("#")

    def test_jsonl_roundtrip(self):
        import json
        rep = est.est_mean_cluster_size(2, [4], p=0.3, replicas=5, seed=1)
        lines = rep.to_jsonl().strip().splitlines()
        for line in lines:
            json.loads(line)

    def test_discard_accounting_columns(self):
        rep = est.est_vertex_long_cycle(2, [5], p=0.45, replicas=10, seed=1,
                                        budget=0)
        row = rep.rows[0]
        assert row.replicas + row.discarded == 10


class TestTableFree:
    def test_d7_estimators_build_no_edge_tables(self):
        from torusperc.percolation import pc_reference, sample_config
        from torusperc.surgery import explore_cluster
        get_torus.cache_clear()
        kwargs = dict(replicas=2, seed=3, threads=1)
        est.est_vertex_long_cycle(7, [4], **kwargs)
        est.est_mean_cluster_size(7, [4], **kwargs)
        est.est_cycle_cut(7, [4], **kwargs)
        est.est_two_point(7, 4, **kwargs)
        g = get_torus(7, 4, NEAREST_NEIGHBOR, 1)     # the estimators' cache key
        assert explore_cluster(sample_config(g, pc_reference(7).p_c, 3).instrumented(),
                               g.origin).valid
        for name, value in vars(g).items():
            size = value.size if isinstance(value, np.ndarray) else \
                len(value) if isinstance(value, (list, tuple, dict, set)) else 0
            assert size < g.num_vertices, f"{name} holds {size} entries"


class TestExhaustiveCrossChecks:
    @pytest.mark.slow
    def test_two_point_torus_row_matches_exhaustive(self):
        from fractions import Fraction
        from torusperc import oracle
        from torusperc.cluster import connected_within
        g = get_torus(2, 3)
        x = int(g.vertex_index([1, 0]))
        exact = float(oracle.exhaustive_config_probability(
            g, Fraction(1, 2),
            lambda cfg: connected_within(cfg, g.origin, x, g.num_edges)))
        rep = est.est_two_point(2, 3, p=0.5, replicas=4000, seed=5)
        row = [r for r in rep.rows if r.quantity == "two-point-torus[m=1]"][0]
        assert abs(row.mean - exact) <= 3 * max(row.stderr, 1e-9)

    @pytest.mark.slow
    def test_ball_boundary_matches_exhaustive(self):
        # validates the hashed-edge sampler against rational enumeration
        from fractions import Fraction
        from torusperc import oracle
        from torusperc.lattice import build_box
        b = build_box([0, 0], 1)
        boundary = set(int(v) for v in b.boundary_vertices())

        def boundary_hits(cfg):
            seen = {b.center_vertex}
            frontier = [b.center_vertex]
            while frontier:
                nxt = []
                for v in frontier:
                    eids, others = b.incident_edges(v)
                    for e, w in zip(eids.tolist(), others.tolist()):
                        if cfg.is_open(e) and w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            return len(seen & boundary)

        # expected count = sum over k of k * P(count = k); enumerate exactly
        exact = 0.0
        for k in range(1, 9):
            exact += float(oracle.exhaustive_config_probability(
                b, Fraction(1, 2), lambda cfg, kk=k: boundary_hits(cfg) == kk)) * k
        rep = est.est_ball_boundary_sum(2, [1], p=0.5, replicas=4000, seed=5)
        row = rep.rows[0]
        assert abs(row.mean - exact) <= 3 * max(row.stderr, 1e-9)


def _fail_third(args):
    i, = args
    if i == 2:
        raise ValueError("task 2 failed")
    return i


class TestDispatch:
    def test_cheap_call_starts_no_pool(self, monkeypatch, no_pool):
        monkeypatch.setattr(est, "_POOL_AFTER_S", 1e9)
        kw = dict(p=0.2487, replicas=6, seed=42)
        assert (est.est_vertex_long_cycle(3, [4, 5], threads=4, **kw).to_csv()
                == est.est_vertex_long_cycle(3, [4, 5], threads=1, **kw).to_csv())

    def test_pool_size_is_capped_by_tasks_left(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """In-process stand-in for ProcessPoolExecutor."""
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(est, "_POOL_AFTER_S", 0)
        monkeypatch.setattr(est, "ProcessPoolExecutor", RecordingPool)
        # 4 tasks: the first runs in-process, the other 3 in the pool
        out = est._map_replicas(lambda a: a, [("x",), ("y",)], 2, threads=8)
        assert out == [[(0, "x"), (1, "x")], [(0, "y"), (1, "y")]]
        est._map_replicas(lambda a: a, [("x",)], 10, threads=2)
        est._map_replicas(lambda a: a, [("x",)], 1, threads=4)   # no task left
        assert sizes == [3, 2]

    def test_pooled_task_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(est, "_POOL_AFTER_S", 0)
        with pytest.raises(ValueError, match="task 2 failed"):
            est._map_replicas(_fail_third, [()], 4, threads=2)


class TestDeterminism:
    def test_thread_count_invariance(self, monkeypatch):
        # every estimator, multi-size ones with all their sizes in one pool;
        # with no pool-start gate, every call with threads > 1 runs its
        # first task in-process and the rest in a pool
        monkeypatch.setattr(est, "_POOL_AFTER_S", 0)
        calls = [
            (est.est_vertex_long_cycle, (3, [4, 5]), dict(p=0.2487, replicas=24)),
            (est.est_cycle_cut, (3, [4, 5], [0.5, 1.0]), dict(p=0.2487, replicas=6)),
            (est.est_mean_cluster_size, (3, [4, 5, 6]), dict(p=0.2487, replicas=6)),
            (est.est_ball_boundary_sum, (3, [2, 3]), dict(p=0.2487, replicas=6)),
            (est.est_cycle_length_profile, (2, 5, [4, 6, 8]),
             dict(p=0.45, replicas=6, origins=2)),
            (est.est_long_cycle_tail, (2, 5, [0.5, 1.0]), dict(p=0.45, replicas=6)),
            (est.est_two_point, (3, 4), dict(p=0.2487, replicas=6)),
            # threshold 2 at p_c: the per-block walk search
            (est.est_vertex_long_cycle, (4, [8]), dict(replicas=4, seed=9)),
        ]
        for fn, args, kwargs in calls:
            kwargs = {"seed": 42, **kwargs}
            csvs = [fn(*args, threads=t, **kwargs).to_csv() for t in (1, 2, 4)]
            assert csvs[0] == csvs[1] == csvs[2], fn.__name__

    def test_seed_reproducibility(self):
        a = est.est_cycle_cut(3, [4], [1.0], p=0.2487, replicas=20, seed=7)
        b = est.est_cycle_cut(3, [4], [1.0], p=0.2487, replicas=20, seed=7)
        assert a.to_csv() == b.to_csv()

    def test_hashed_box_is_stateless(self):
        box = est._HashedBox(3, 4, 0.3, 12345)
        key = ((1, -2, 0), 2)
        vals = {box.edge_open(*key) for _ in range(5)}
        assert len(vals) == 1
        again = est._HashedBox(3, 4, 0.3, 12345)
        assert again.edge_open(*key) in vals

    def test_hashed_box_hashes_each_edge_at_most_once(self, monkeypatch):
        # the search skips a neighbour it has reached before hashing its
        # edge, so no edge is hashed twice and the distances, in their
        # order, are those of a search that hashes every neighbour
        def plain_explore(box):
            n = box.n

            def step(v):
                for axis in range(box.d):
                    for sign in (1, -1):
                        if -n <= v[axis] + sign <= n:
                            w = v[:axis] + (v[axis] + sign,) + v[axis + 1:]
                            if box.edge_open(v if sign > 0 else w, axis):
                                yield None, w

            return est.bfs((0,) * box.d, step)[0]

        hashed = []
        edge_open = est._HashedBox.edge_open

        def counted(box, base, axis):
            hashed.append((base, axis))
            return edge_open(box, base, axis)

        monkeypatch.setattr(est._HashedBox, "edge_open", counted)
        fewer = 0
        for i in range(20):
            box = est._HashedBox(4, 6, 0.2, est.derive_seed(5, i))
            hashed.clear()
            dist = box.explore()
            calls = len(hashed)
            assert len(set(hashed)) == calls
            hashed.clear()
            assert list(plain_explore(box).items()) == list(dist.items())
            assert calls <= len(hashed)
            fewer += len(hashed) - calls
        assert fewer > 0


def _vlc(replicas, sizes=(4,)):
    return est.est_vertex_long_cycle(2, sizes, p=0.5, replicas=replicas, seed=1)


def _cut(replicas, sizes=(4,), deltas=(1.0,)):
    return est.est_cycle_cut(2, sizes, deltas, p=0.5, replicas=replicas, seed=1)


def _size(replicas, sizes=(4,)):
    return est.est_mean_cluster_size(2, sizes, p=0.5, replicas=replicas, seed=1)


def _length(replicas, ks=(4,)):
    return est.est_cycle_length_profile(2, 5, ks, p=0.5, replicas=replicas,
                                        origins=2, seed=1)


def _tail(replicas, eps=(1.0,)):
    return est.est_long_cycle_tail(2, 5, eps, p=0.5, replicas=replicas, seed=1)


def _ball(replicas, sizes=(2,)):
    return est.est_ball_boundary_sum(2, sizes, p=0.5, replicas=replicas, seed=1)


def _two_point(replicas, max_offset=None):
    return est.est_two_point(2, 5, p=0.5, replicas=replicas, seed=1, max_offset=max_offset)


class TestArgumentChecks:
    """Every estimator refuses, with ValueError, a call that would report no
    row or rows over no replica."""

    @pytest.mark.parametrize("call, empties", [
        (_vlc, [dict(sizes=[])]),
        (_cut, [dict(sizes=[]), dict(deltas=[])]),
        (_size, [dict(sizes=[])]),
        (_length, [dict(ks=[])]),
        (_tail, [dict(eps=[])]),
        (_ball, [dict(sizes=[])]),
        (_two_point, [dict(max_offset=0)]),
    ], ids=["vertex-long-cycle", "cycle-cut", "cluster-size", "cycle-length",
            "long-cycle-tail", "ball-boundary", "two-point"])
    def test_empty_lists_and_no_replicas_are_refused(self, call, empties):
        assert call(1).rows
        for kwargs in empties:
            with pytest.raises(ValueError, match="need at least one"):
                call(2, **kwargs)
        for replicas in (0, -1):
            with pytest.raises(ValueError, match="replicas must be >= 1"):
                call(replicas)
