"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Criteria 5i and 5iv are expected to fail at the mandated sizes:
with the long-cycle radius threshold floor(r/4) = 1 for r in {4, 5, 6}, every
4-edge square qualifies as long, so the long-cycle vertex count and the
per-cluster cut numbers are dominated by local squares and scale like the
volume rather than V^(1/3).  The failures are reported honestly rather than
tuned away; see README.md (Known limitations).
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from torusperc import estimators as est
from torusperc import bands, coupling, oracle, surgery
from torusperc.cluster import all_components, component_of
from torusperc.cycles import (OpenSubgraph, WorkBudget, cluster_contains_long_cycle,
                              min_long_cycle_cut, vertex_in_long_cycle,
                              _subgraph_contains_long_cycle)
from torusperc.lattice import get_torus
from torusperc.percolation import derive_seed, sample_config

from conftest import config_from_edges, edge_of, wrap_line_edges

pytestmark = pytest.mark.acceptance

THREADS = 2


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence


def _hand_fixture_configs():
    g8 = get_torus(2, 8)
    fixtures = []
    sq = [edge_of(g8, (0, 0), (1, 0)), edge_of(g8, (1, 0), (1, 1)),
          edge_of(g8, (0, 1), (1, 1)), edge_of(g8, (0, 0), (0, 1))]
    fixtures.append(config_from_edges(g8, sq))
    fixtures.append(config_from_edges(g8, wrap_line_edges(g8)))
    theta = wrap_line_edges(g8, axis=0)
    row1 = [(-4 + i, 1) for i in range(8)]
    theta += [edge_of(g8, row1[i], row1[(i + 1) % 8]) for i in range(8)]
    theta += [edge_of(g8, (0, 0), (0, 1)), edge_of(g8, (-4, 0), (-4, 1))]
    fixtures.append(config_from_edges(g8, theta))
    tree = [edge_of(g8, (0, 0), (1, 0)), edge_of(g8, (1, 0), (2, 0)),
            edge_of(g8, (1, 0), (1, 1))]
    fixtures.append(config_from_edges(g8, tree))
    g6 = get_torus(2, 6)
    cur = (0, 0)
    spiral = []
    for _ in range(6):
        for step in ((1, 0), (1, 0), (0, 1)):
            nxt = ((cur[0] + step[0]) % 6, (cur[1] + step[1]) % 6)
            spiral.append(edge_of(g6, cur, nxt))
            cur = nxt
    fixtures.append(config_from_edges(g6, spiral))
    return fixtures


def _agreement_errors(cfg, unknowns, definite):
    """Compare the three budgeted searches against oracle enumeration."""
    g = cfg.geometry
    errors = []
    for cl in all_components(cfg):
        if cl.size == 1:
            continue
        sub = OpenSubgraph(g, cl.edges)
        cycles = oracle.enumerate_all_cycles(sub, override=True)
        long_cycles = [c for c in cycles if c.long]
        on_long = set()
        for c in long_cycles:
            on_long.update(c.vertices)
        contains = cluster_contains_long_cycle(cfg, cl)
        if contains.is_unknown:
            unknowns[0] += 1
        else:
            definite[0] += 1
            if contains.is_yes != bool(long_cycles):
                errors.append(f"containment mismatch at root {cl.root}")
        cut = min_long_cycle_cut(cfg, cl)
        if cut.is_unknown:
            unknowns[0] += 1
        else:
            definite[0] += 1
            brute = oracle.exact_min_long_cycle_cut(sub, override=True)
            if cut.value != brute:
                errors.append(f"cut {cut.value} != {brute} at root {cl.root}")
        for x in cl.vertices:
            ans = vertex_in_long_cycle(cfg, int(x))
            if ans.is_unknown:
                unknowns[0] += 1
                continue
            definite[0] += 1
            if ans.is_yes != (int(x) in on_long):
                errors.append(f"vertex {int(x)} verdict mismatch")
            if ans.is_yes:
                ans.witness.validate(g, cfg)
    return errors


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    g = get_torus(2, 5)
    unknowns = [0]
    definite = [0]
    errors = []
    for i in range(500):
        cfg = sample_config(g, 0.45, derive_seed(1001, i))
        errors += _agreement_errors(cfg, unknowns, definite)
    for cfg in _hand_fixture_configs():
        errors += _agreement_errors(cfg, unknowns, definite)
    rate = unknowns[0] / max(1, unknowns[0] + definite[0])
    elapsed = time.time() - t0
    ok = not errors and rate < 0.05 and elapsed < 300
    _report("1 (oracle equivalence)", ok,
            f"{definite[0]} definite verdicts, unknown rate {rate:.2%}, "
            f"{len(errors)} mismatches, {elapsed:.0f}s")
    assert not errors, errors[:5]
    assert rate < 0.05
    assert elapsed < 300


# ---------------------------------------------------------------------------
# criterion 2: exhaustive-probability validation on the 18-edge torus


def _origin_adjacency(g):
    ea = g.edge_array()
    adj = [[] for _ in range(g.num_vertices)]
    for e in range(g.num_edges):
        u, v = int(ea[e, 0]), int(ea[e, 1])
        adj[u].append((e, v))
        adj[v].append((e, u))
    return adj


def _bfs_reaches(adj, mask, start, goal, banned_edge):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for e, w in adj[v]:
                if e == banned_edge or not mask[e] or w in seen:
                    continue
                if w == goal:
                    return True
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return start == goal


def test_criterion_2_exhaustive_probability_validation(g23):
    t0 = time.time()
    g = g23
    origin = g.origin
    adj = _origin_adjacency(g)
    threshold = 1.0 * g.num_vertices ** (2 / 3)

    def cluster_of_origin(mask):
        seen = {origin}
        frontier = [origin]
        while frontier:
            nxt = []
            for v in frontier:
                for e, w in adj[v]:
                    if mask[e] and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    def origin_cluster_big(cfg):
        return len(cluster_of_origin(cfg.open_mask())) >= 4

    def origin_on_cycle(cfg):
        # independent route: an incident open edge that reconnects without itself
        mask = cfg.open_mask()
        for e, w in adj[origin]:
            if mask[e] and _bfs_reaches(adj, mask, w, origin, e):
                return True
        return False

    def no_big_cycle_cluster(cfg):
        # union-find with size and edge counters; every cycle is long here
        mask = cfg.open_mask()
        parent = list(range(g.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        size = [1] * g.num_vertices
        edges = [0] * g.num_vertices
        for e in np.flatnonzero(mask):
            u, v = g.edge_endpoints(int(e))
            ru, rv = find(u), find(v)
            if ru == rv:
                edges[ru] += 1
            else:
                if size[ru] < size[rv]:
                    ru, rv = rv, ru
                parent[rv] = ru
                size[ru] += size[rv]
                edges[ru] += edges[rv] + 1
        for v in range(g.num_vertices):
            if find(v) == v and size[v] > threshold and edges[v] >= size[v]:
                return False
        return True

    exact_big = float(oracle.exhaustive_config_probability(
        g, Fraction(1, 2), origin_cluster_big))
    exact_cycle = float(oracle.exhaustive_config_probability(
        g, Fraction(1, 2), origin_on_cycle))
    exact_zero = float(oracle.exhaustive_config_probability(
        g, Fraction(1, 2), no_big_cycle_cluster))

    n = 50000
    hits_big = hits_cycle = hits_zero = 0
    configs = []
    for i in range(n):
        cfg = sample_config(g, 0.5, derive_seed(1002, i))
        configs.append(cfg)
        if len(component_of(cfg, origin).vertices) >= 4:
            hits_big += 1
        if vertex_in_long_cycle(cfg, origin).is_yes:
            hits_cycle += 1
    zero_mean, zero_se, used, disc = surgery.estimate_no_long_cycle_probability(
        configs, 1.0, method="direct")
    assert disc == 0 and used == n

    checks = []
    for name, exact, phat in (("P(|C(0)|>=4)", exact_big, hits_big / n),
                              ("P(0 on long cycle)", exact_cycle, hits_cycle / n),
                              ("P(cut sum = 0)", exact_zero, zero_mean)):
        se = max((phat * (1 - phat) / n) ** 0.5, 1e-9)
        checks.append((name, exact, phat, abs(phat - exact) / se))
    elapsed = time.time() - t0
    ok = all(z <= 3 for *_, z in checks) and elapsed < 600
    detail = "; ".join(f"{name} exact={exact:.5f} mc={phat:.5f} z={z:.2f}"
                       for name, exact, phat, z in checks)
    _report("2 (exhaustive validation)", ok, f"{detail}; {elapsed:.0f}s")
    for name, exact, phat, z in checks:
        assert z <= 3, f"{name}: exact {exact}, estimate {phat}, z={z:.2f}"
    assert elapsed < 600


# ---------------------------------------------------------------------------
# criterion 3: surgery invariant suite


@pytest.mark.parametrize("p", [0.1, 0.2487, 0.4])
def test_criterion_3_surgery_invariants(p):
    t0 = time.time()
    g = get_torus(3, 5)
    rng = np.random.default_rng(int(p * 10000))
    violations = []
    for i in range(1000):
        cfg = sample_config(g, p, derive_seed(1003, int(p * 10000), i)).instrumented()
        root = int(rng.integers(g.num_vertices))
        # stage 1 with per-step uniqueness checks; surplus orientation is
        # asserted inside order_branch_vertices
        s1 = surgery.depth_first_explore(cfg, root, check_invariants=True)
        stage1_reads = set(cfg.read_log)
        if stage1_reads != set(s1.explored_edges):
            violations.append((i, "stage-1 read set"))
        if set(s1.explored_edges) & set(s1.surplus_edges):
            violations.append((i, "explored/surplus overlap"))
        res = surgery.second_stage(cfg, s1, check_invariants=True)
        if not res.valid:
            violations.append((i, "unknown decision at default budget"))
            continue
        if set(res.probed_edges) | set(res.special_edges) != set(s1.surplus_edges):
            violations.append((i, "partition"))
        if cfg.read_log - stage1_reads != set(res.probed_edges):
            violations.append((i, "stage-2 read set"))
        if set(res.special_edges) & cfg.read_log:
            violations.append((i, "special edge status read"))
        sub = OpenSubgraph(g, res.graph_edges)
        if not _subgraph_contains_long_cycle(sub, WorkBudget(10**7)).is_no:
            violations.append((i, "kill switch"))
        for e in res.special_edges:
            plus = OpenSubgraph(g, list(res.graph_edges) + [e])
            ans = _subgraph_contains_long_cycle(plus, WorkBudget(10**7))
            if not (ans.is_yes and e in ans.witness.edges):
                violations.append((i, f"certificate for {e}"))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 600
    _report(f"3 (surgery invariants, p={p})", ok,
            f"1000 explorations, {len(violations)} violations, {elapsed:.0f}s")
    assert not violations, violations[:5]
    assert elapsed < 600


# ---------------------------------------------------------------------------
# criterion 4: coupling suite


def test_criterion_4_coupling_suite():
    t0 = time.time()
    d, r, p, K = 3, 5, 0.2, 4
    want = 1000
    produced = 0
    untruncated = 0
    inclusion_violations = 0
    torus_counts = None
    window_counts = None
    i = 0
    while untruncated < want:
        s = coupling.coupled_sample(d, r, p, derive_seed(1004, i), window_factor=K)
        i += 1
        produced += 1
        # single-read discipline holds by construction; double reads raise
        assert len(s.torus_reads) == len(set(s.torus_reads))
        if torus_counts is None:
            torus_counts = np.zeros(s.torus_config.num_edges)
            window_counts = np.zeros(len(s.lattice_open))
        torus_counts += s.torus_config.open_mask()
        window_counts += s.lattice_open
        rep = coupling.check_inclusion_property(s, range(0, 21))
        if not rep.applicable:
            continue
        untruncated += 1
        if not rep.ok:
            inclusion_violations += 1
    truncation_rate = (produced - untruncated) / produced
    # per-edge marginals: family-wise binomial bound at overall significance
    # 1e-3 (a literal 3-sigma test over ~180k edges fails by chance alone)
    from scipy import stats
    marginal_bad = 0
    for counts in (torus_counts, window_counts):
        m = len(counts)
        z = stats.norm.ppf(1 - 0.0005 / m)
        dev = np.abs(counts / produced - p)
        marginal_bad += int((dev > z * np.sqrt(p * (1 - p) / produced)).sum())
    elapsed = time.time() - t0
    ok = (inclusion_violations == 0 and marginal_bad == 0 and elapsed < 600)
    _report("4 (coupling suite)", ok,
            f"{untruncated} untruncated of {produced} "
            f"(truncation rate {truncation_rate:.2%}), "
            f"{inclusion_violations} inclusion violations, "
            f"{marginal_bad} marginal outliers, {elapsed:.0f}s")
    assert inclusion_violations == 0
    assert marginal_bad == 0
    assert elapsed < 600


# ---------------------------------------------------------------------------
# criterion 5: scaling bands at d = 7 (split per band)

D7 = 7
SIZES = [4, 5, 6]
REPLICAS = 330


def test_criterion_5i_long_cycle_count_slope():
    rep = est.est_vertex_long_cycle(D7, SIZES, replicas=REPLICAS, seed=1005,
                                    threads=THREADS)
    discards = {row.r: row.discarded for row in rep.rows
                if row.quantity == "vertex-long-cycle-count"}
    clean = {row.r: row.replicas for row in rep.rows
             if row.quantity == "vertex-long-cycle-count"}
    fit = [s for s in rep.slopes if s.quantity == "vertex-long-cycle-count"][0]
    in_band = bands.count_slope_in_band(fit.slope)
    ok = in_band and all(v >= 300 for v in clean.values()) and \
        all(discards[r] / REPLICAS < 0.10 for r in discards)
    _report("5i (count slope 1/3 +/- 0.2)", ok,
            f"slope {fit.slope:.3f} +/- {fit.stderr:.3f}, clean {clean}, "
            f"discards {discards}")
    assert all(v >= 300 for v in clean.values())
    assert all(discards[r] / REPLICAS < 0.10 for r in discards)
    assert in_band, (
        f"slope {fit.slope:.3f} outside [{bands.COUNT_SLOPE[0]:.3f}, "
        f"{bands.COUNT_SLOPE[1]:.3f}]: at "
        f"r in {{4,5,6}} the radius threshold floor(r/4) = 1 makes every "
        f"4-edge square a long cycle, so the count is dominated by local "
        f"squares (≈ 84 p^4 V) and scales like V; see README known limitations")


def test_criterion_5ii_mean_cluster_size_band():
    rep = est.est_mean_cluster_size(D7, SIZES, replicas=REPLICAS, seed=1005,
                                    threads=THREADS)
    vals = {row.r: row.mean for row in rep.rows
            if row.quantity == "cluster-size-scaled"}
    ratio = bands.ratio(vals.values())
    ok = ratio <= bands.CLUSTER_SIZE_FACTOR
    _report("5ii (scaled cluster size factor-3 band)", ok,
            f"scaled means {vals}, ratio {ratio:.2f}")
    assert ok, f"band ratio {ratio:.2f} > 3"


def test_criterion_5iii_zero_cut_probability():
    rep = est.est_cycle_cut(D7, SIZES, [1.0], replicas=REPLICAS, seed=1005,
                            threads=THREADS)
    failures = []
    seen = {}
    for row in rep.rows:
        if not row.quantity.startswith("cycle-cut-zero-prob"):
            continue
        in_band, lo, hi = bands.zero_cut_in_band(row.mean, row.replicas)
        seen[row.r] = (row.mean, lo, hi)
        if not in_band:
            failures.append(row.r)
    ok = not failures
    _report("5iii (P(cut sum = 0) bands)", ok,
            "; ".join(f"r={r}: {m:.3f} CI ({lo:.3f}, {hi:.3f})"
                      for r, (m, lo, hi) in sorted(seen.items())))
    assert ok, f"sizes outside the band: {failures}"


def test_criterion_5iv_scaled_cut_mean_band():
    rep = est.est_cycle_cut(D7, SIZES, [0.5, 1.0, 2.0], replicas=REPLICAS,
                            seed=1005, threads=THREADS)
    cells = {}
    for row in rep.rows:
        if row.quantity.startswith("cycle-cut-scaled"):
            delta = float(row.quantity.split("delta=")[1].rstrip("]"))
            cells[(delta, row.r)] = row.mean
    ratio = bands.positive_ratio(cells.values())
    ok = ratio <= bands.CUT_SCALED_FACTOR
    _report("5iv (delta-scaled cut means factor-5 band)", ok,
            f"cells {sorted(cells.items())}, joint ratio {ratio:.2f}")
    assert ok, (
        f"joint band ratio {ratio:.2f} > 5 across (delta, r) cells: the cut "
        f"numbers count all cycles at threshold floor(r/4) = 1, and big "
        f"clusters carry ~V^(2/3) local squares, so the means grow with V "
        f"instead of staying uniformly bounded; per-size bands do stay "
        f"within the factor (see README known limitations)")


# ---------------------------------------------------------------------------
# criterion 6: ball-boundary flatness


def test_criterion_6_ball_boundary_flatness():
    t0 = time.time()
    rep = est.est_ball_boundary_sum(D7, [2, 4, 6, 8], replicas=2000, seed=1006,
                                    threads=THREADS)
    vals = {row.r: row.mean for row in rep.rows}
    ratio = bands.ratio(vals.values())
    elapsed = time.time() - t0
    ok = ratio <= bands.BALL_BOUNDARY_FACTOR and elapsed < 1800
    _report("6 (ball-boundary flatness)", ok,
            f"means {vals}, ratio {ratio:.2f}, {elapsed:.0f}s")
    assert ratio <= bands.BALL_BOUNDARY_FACTOR, f"means {vals} span ratio {ratio:.2f} > 3"
    assert elapsed < 1800


# ---------------------------------------------------------------------------
# criterion 7: regression and determinism


def test_criterion_7_regression_and_determinism():
    t0 = time.time()
    slope, stderr, r2 = est.loglog_slope([(10, 100), (1000, 10**6)])
    exact_ok = slope == pytest.approx(2.0) and stderr == 0.0
    slope3, _, _ = est.loglog_slope([(V, 5.0 * V ** (1 / 3))
                                     for V in (100, 10**4, 10**6)])
    exact_ok = exact_ok and slope3 == pytest.approx(1 / 3)
    outputs = []
    for threads in (1, 4, 8):
        rep = est.est_cycle_cut(3, [4, 5], [1.0], p=0.2487, replicas=24,
                                seed=1007, threads=threads)
        outputs.append(rep.to_csv().encode())
    identical = outputs[0] == outputs[1] == outputs[2]
    elapsed = time.time() - t0
    ok = exact_ok and identical and elapsed < 60
    _report("7 (regression/determinism)", ok,
            f"synthetic slopes exact: {exact_ok}, byte-identical across "
            f"threads 1/4/8: {identical}, {elapsed:.0f}s")
    assert exact_ok and identical
    assert elapsed < 60
