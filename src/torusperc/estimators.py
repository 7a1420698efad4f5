"""Monte Carlo harness: per-size estimates, standard errors, log-log slopes.

Every estimator samples replicas with seeds derived from (master seed, stream,
size index, replica index), so reports are identical for any worker count.
One estimator call runs its (size, replica) tasks in order in the calling
process.  With threads > 1, once the tasks left are projected to cost more
than starting a process pool, they all go to one pool, which is joined
before the call returns; a call cheaper than a pool start never starts one.
A call whose first task is expensive pays for that one task in-process.
Replicas whose cycle searches return Unknown are discarded and counted; the
discard column makes the induced bias visible instead of hiding it.

Box-based quantities (ball-boundary connections, the lattice two-point
surrogate) never materialize their boxes: edge statuses are a pure integer
hash of (seed, edge key), revealed on demand during the breadth-first
exploration from the origin.
"""
from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cluster as _cluster
from . import cycles as _cycles
from .lattice import NEAREST_NEIGHBOR, bfs, get_torus
from .percolation import derive_seed, pc_reference, replica_rng, sample_config

# seed-stream tags, one per quantity
_S_VLC, _S_CUT, _S_SIZE, _S_LCK, _S_TAIL, _S_TWOPT, _S_BALL = range(11, 18)


# ---------------------------------------------------------------------------
# report structures


@dataclass
class Row:
    quantity: str
    d: int
    r: int
    L: int | None
    p: float
    replicas: int
    discarded: int
    mean: float
    stderr: float

    @property
    def ci95(self) -> tuple[float, float]:
        if math.isnan(self.stderr):
            return (math.nan, math.nan)
        return (self.mean - 1.96 * self.stderr, self.mean + 1.96 * self.stderr)


@dataclass
class SlopeFit:
    quantity: str
    slope: float
    stderr: float
    r2: float


@dataclass
class EstimateReport:
    rows: list[Row] = field(default_factory=list)
    slopes: list[SlopeFit] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    CSV_HEADER = ("quantity,d,r,L,p,replicas,discarded,mean,stderr,"
                  "ci95_lo,ci95_hi,slope,slope_stderr")

    def to_csv(self, include_meta: bool = True) -> str:
        def num(x) -> str:
            if x is None:
                return ""
            if isinstance(x, float) and math.isnan(x):
                return "nan"
            return format(x, ".12g") if isinstance(x, float) else str(x)

        lines = []
        if include_meta:
            for k in sorted(self.meta):
                lines.append(f"# {k}: {self.meta[k]}")
        lines.append(self.CSV_HEADER)
        for row in self.rows:
            lo, hi = row.ci95
            lines.append(",".join([row.quantity, num(row.d), num(row.r),
                                   num(row.L), num(row.p), num(row.replicas),
                                   num(row.discarded), num(row.mean),
                                   num(row.stderr), num(lo), num(hi), "", ""]))
        for fit in self.slopes:
            lines.append(",".join([fit.quantity + ":slope", "", "", "", "", "",
                                   "", "", "", "", "",
                                   num(fit.slope), num(fit.stderr)]))
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        import json
        out = [json.dumps({"meta": self.meta}, sort_keys=True)]
        for row in self.rows:
            lo, hi = row.ci95
            out.append(json.dumps(
                {"quantity": row.quantity, "d": row.d, "r": row.r, "L": row.L,
                 "p": row.p, "replicas": row.replicas, "discarded": row.discarded,
                 "mean": row.mean, "stderr": row.stderr, "ci95": [lo, hi]},
                sort_keys=True))
        for fit in self.slopes:
            out.append(json.dumps(
                {"quantity": fit.quantity, "slope": fit.slope,
                 "slope_stderr": fit.stderr, "r2": fit.r2}, sort_keys=True))
        return "\n".join(out) + "\n"


def loglog_slope(points) -> tuple[float, float, float]:
    """Ordinary least squares of log y on log V: (slope, stderr, r^2)."""
    pts = [(float(v), float(y)) for v, y in points]
    if len(pts) < 2:
        raise ValueError("need at least two points for a slope")
    if any(v <= 0 or y <= 0 for v, y in pts):
        raise ValueError("log-log fit requires positive coordinates")
    x = np.log([v for v, _ in pts])
    y = np.log([y for _, y in pts])
    n = len(pts)
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0:
        raise ValueError("all sizes identical; slope undefined")
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / sxx)
    resid = y - (y.mean() + slope * (x - x.mean()))
    ssr = float((resid ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    stderr = math.sqrt(ssr / (n - 2) / sxx) if n > 2 else 0.0
    r2 = 1.0 if sst == 0 else 1.0 - ssr / sst
    return slope, stderr, r2


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (math.nan, math.nan)
    ph = successes / n
    denom = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / denom
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


def _mean_stderr(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if len(arr) == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.nan
    return mean, stderr


def _resolve_p(p, d, model, L):
    if p is not None:
        return float(p), "explicit"
    row = pc_reference(d, model, None if model == NEAREST_NEIGHBOR else L)
    return row.p_c, row.source


#: Seconds to start and join a small process pool (7-14 ms wall and 12-23 ms
#: CPU for two workers on 2 CPUs, and each fresh worker's first task runs 2-5 ms
#: slower); `_map_replicas` starts a pool only for work projected to cost more.
_POOL_AFTER_S = 0.02


def _map_replicas(worker, commons: list[tuple], replicas: int, threads: int) -> list[list]:
    """worker((i,) + common) for every common tuple and replica i < replicas.

    The tasks run in order in the calling process.  With threads > 1, after
    each task the time per task so far times the tasks left projects the rest
    of the call; once that exceeds `_POOL_AFTER_S`, the tasks left go to one
    pool of min(threads, tasks left) workers and the caller runs no more.
    The results come back as one list per common tuple, in replica order.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    args = [(i,) + common for common in commons for i in range(replicas)]
    flat, start = [], time.perf_counter()
    for done, a in enumerate(args, 1):
        flat.append(worker(a))
        left = len(args) - done
        if (threads > 1 and left
                and (time.perf_counter() - start) / done * left > _POOL_AFTER_S):
            workers = min(threads, left)
            with ProcessPoolExecutor(max_workers=workers) as ex:
                flat += ex.map(worker, args[done:],
                               chunksize=max(1, left // (workers * 4)))
            break
    return [flat[k * replicas:(k + 1) * replicas] for k in range(len(commons))]


def _base_meta(quantity, d, model, L, p, p_source, replicas, seed, budget) -> dict:
    meta = {"quantity": quantity, "d": d, "model": model, "p": p,
            "p_source": p_source, "replicas_requested": replicas, "seed": seed,
            "budget": budget}
    if model != NEAREST_NEIGHBOR:
        meta["L"] = L
    if d == 7:
        meta["caveat"] = ("d=7 nearest-neighbor is a desk-scale stand-in; the "
                          "rigorous nearest-neighbor theory needs larger d")
    return meta


def _row_L(model, L):
    return None if model == NEAREST_NEIGHBOR else L


# ---------------------------------------------------------------------------
# vertex-long-cycle estimator


def _vlc_worker(args):
    i, d, r, model, L, p, seed, budget = args
    g = get_torus(d, r, model, L)
    cfg = sample_config(g, p, derive_seed(seed, _S_VLC, r, i))
    count, unknown = _cycles.long_cycle_vertex_count(cfg, budget)
    return (not unknown, count)


def est_vertex_long_cycle(d, r_values, *, model=NEAREST_NEIGHBOR, L=1, p=None,
                          replicas=300, budget=_cycles.DEFAULT_BUDGET, seed=0,
                          threads=1) -> EstimateReport:
    """Counts of long-cycle vertices per size, with slopes versus log V.

    The raw count targets growth like V^(1/3); the per-vertex fraction
    estimates the probability that a fixed vertex lies on a long cycle and
    targets V^(-2/3).
    """
    r_values = sorted(int(r) for r in r_values)
    if not r_values:
        raise ValueError("need at least one size")
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("vertex-long-cycle", d, model, L,
                                            p_val, p_source, replicas, seed, budget))
    count_points, prob_points = [], []
    per_size = _map_replicas(_vlc_worker,
                             [(d, r, model, L, p_val, seed, budget) for r in r_values],
                             replicas, threads)
    for r, results in zip(r_values, per_size):
        counts = [c for ok, c in results if ok]
        discarded = replicas - len(counts)
        V = get_torus(d, r, model, L).num_vertices
        cmean, cstderr = _mean_stderr(counts)
        pmean, pstderr = _mean_stderr([c / V for c in counts])
        report.rows.append(Row("vertex-long-cycle-count", d, r, _row_L(model, L),
                               p_val, len(counts), discarded, cmean, cstderr))
        report.rows.append(Row("vertex-long-cycle-prob", d, r, _row_L(model, L),
                               p_val, len(counts), discarded, pmean, pstderr))
        if counts and cmean > 0:
            count_points.append((V, cmean))
            prob_points.append((V, pmean))
    for quantity, pts in (("vertex-long-cycle-count", count_points),
                          ("vertex-long-cycle-prob", prob_points)):
        if len(pts) >= 2:
            slope, stderr, r2 = loglog_slope(pts)
            report.slopes.append(SlopeFit(quantity, slope, stderr, r2))
    return report


# ---------------------------------------------------------------------------
# cycle-cut (sum of minimum long-cycle cuts over big clusters)


def _cut_worker(args):
    i, d, r, model, L, p, seed, budget, deltas = args
    g = get_torus(d, r, model, L)
    cfg = sample_config(g, p, derive_seed(seed, _S_CUT, r, i))
    V = g.num_vertices
    return _cycles.cut_sums(cfg, [delta * V ** (2.0 / 3.0) for delta in deltas], budget)


def est_cycle_cut(d, r_values, delta_values=(0.5, 1.0, 2.0), *,
                  model=NEAREST_NEIGHBOR, L=1, p=None, replicas=300,
                  budget=_cycles.DEFAULT_BUDGET, seed=0, threads=1) -> EstimateReport:
    """Mean cut sums, their delta-scaled means, and the zero-cut probability.

    The cut sum adds, over clusters larger than delta * V^(2/3), the minimum
    number of edge removals leaving the cluster long-cycle-free; tightness
    predicts bounded delta-scaled means, and its zero probability should stay
    away from both 0 and 1.
    """
    r_values = sorted(int(r) for r in r_values)
    deltas = [float(x) for x in delta_values]
    if any(x <= 0 for x in deltas):
        raise ValueError("delta values must be positive")
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("cycle-cut", d, model, L, p_val,
                                            p_source, replicas, seed, budget))
    per_size = _map_replicas(_cut_worker,
                             [(d, r, model, L, p_val, seed, budget, tuple(deltas))
                              for r in r_values], replicas, threads)
    for r, results in zip(r_values, per_size):
        clean = [sums for sums in results if sums is not None]
        discarded = replicas - len(clean)
        for j, delta in enumerate(deltas):
            vals = [sums[j] for sums in clean]
            mean, stderr = _mean_stderr(vals)
            zmean, zstderr = _mean_stderr([1.0 if v == 0 else 0.0 for v in vals])
            report.rows.append(Row(f"cycle-cut-mean[delta={delta:g}]", d, r,
                                   _row_L(model, L), p_val, len(vals), discarded,
                                   mean, stderr))
            report.rows.append(Row(f"cycle-cut-scaled[delta={delta:g}]", d, r,
                                   _row_L(model, L), p_val, len(vals), discarded,
                                   delta * mean, delta * stderr))
            report.rows.append(Row(f"cycle-cut-zero-prob[delta={delta:g}]", d, r,
                                   _row_L(model, L), p_val, len(vals), discarded,
                                   zmean, zstderr))
    return report


# ---------------------------------------------------------------------------
# mean cluster size


def _size_worker(args):
    i, d, r, model, L, p, seed = args
    g = get_torus(d, r, model, L)
    cfg = sample_config(g, p, derive_seed(seed, _S_SIZE, r, i))
    # translation-averaged estimator of E|C(origin)|: the per-config average of
    # |C(x)| over all x is sum of |C|^2 / V, unbiased with far lower variance
    # than a single-origin draw
    cm = _cluster.component_map(cfg)
    return float((cm.sizes.astype(np.float64) ** 2).sum() / g.num_vertices)


def est_mean_cluster_size(d, r_values, *, model=NEAREST_NEIGHBOR, L=1, p=None,
                          replicas=300, seed=0, threads=1) -> EstimateReport:
    """Mean origin-cluster size and its V^(-1/3)-scaled version per size."""
    r_values = sorted(int(r) for r in r_values)
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("cluster-size", d, model, L, p_val,
                                            p_source, replicas, seed, None))
    points = []
    per_size = _map_replicas(_size_worker,
                             [(d, r, model, L, p_val, seed) for r in r_values],
                             replicas, threads)
    for r, sizes in zip(r_values, per_size):
        V = get_torus(d, r, model, L).num_vertices
        mean, stderr = _mean_stderr(sizes)
        scale = V ** (-1.0 / 3.0)
        report.rows.append(Row("cluster-size-mean", d, r, _row_L(model, L),
                               p_val, replicas, 0, mean, stderr))
        report.rows.append(Row("cluster-size-scaled", d, r, _row_L(model, L),
                               p_val, replicas, 0, mean * scale, stderr * scale))
        if mean > 0:
            points.append((V, mean))
    if len(points) >= 2:
        slope, stderr, r2 = loglog_slope(points)
        report.slopes.append(SlopeFit("cluster-size-mean", slope, stderr, r2))
    return report


# ---------------------------------------------------------------------------
# origin-in-short-long-cycle profile


def _lck_worker(args):
    i, d, r, model, L, p, seed, budget, kmax, origins = args
    g = get_torus(d, r, model, L)
    cfg = sample_config(g, p, derive_seed(seed, _S_LCK, r, i))
    rng = replica_rng(seed, _S_LCK, r, i, 1)
    picks = rng.choice(g.num_vertices, size=min(origins, g.num_vertices),
                       replace=False)
    out = []
    for x in picks:
        ans = _cycles.shortest_long_cycle_through(cfg, int(x), kmax, budget)
        if ans.is_unknown:
            return (False, [])
        out.append(ans.value if ans.is_yes else None)
    return (True, out)


def est_cycle_length_profile(d, r, k_values, *, model=NEAREST_NEIGHBOR, L=1,
                             p=None, replicas=300, origins=4,
                             budget=_cycles.DEFAULT_BUDGET, seed=0,
                             threads=1) -> EstimateReport:
    """P(a vertex lies on a long cycle of length <= k) over a k-schedule.

    Also reports the ratio P * V / k, which the k-linear upper and lower
    bounds predict to stay within a constant band over the middle window.
    """
    k_values = sorted(int(k) for k in k_values)
    if not k_values:
        raise ValueError("need at least one k")
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("cycle-length", d, model, L, p_val,
                                            p_source, replicas, seed, budget))
    results, = _map_replicas(_lck_worker,
                             [(d, r, model, L, p_val, seed, budget, k_values[-1],
                               origins)], replicas, threads)
    lengths = list(itertools.chain.from_iterable(
        vals for ok, vals in results if ok))
    discarded = replicas - sum(1 for ok, _ in results if ok)
    V = get_torus(d, r, model, L).num_vertices
    for k in k_values:
        hits = [1.0 if (v is not None and v <= k) else 0.0 for v in lengths]
        mean, stderr = _mean_stderr(hits)
        report.rows.append(Row(f"cycle-length-prob[k={k}]", d, r,
                               _row_L(model, L), p_val, len(hits), discarded,
                               mean, stderr))
        report.rows.append(Row(f"cycle-length-ratio[k={k}]", d, r,
                               _row_L(model, L), p_val, len(hits), discarded,
                               mean * V / k, stderr * V / k))
    return report


# ---------------------------------------------------------------------------
# long-cycle length tail


def _tail_worker(args):
    i, d, r, model, L, p, seed, budget = args
    g = get_torus(d, r, model, L)
    cfg = sample_config(g, p, derive_seed(seed, _S_TAIL, r, i))
    count, unknown = _cycles.long_cycle_vertex_count(cfg, budget)
    if unknown:
        return (False, 0, 0)
    longest = _cycles.longest_long_fundamental_cycle(cfg, budget)
    return (True, count, longest)


def est_long_cycle_tail(d, r, eps_values, *, model=NEAREST_NEIGHBOR, L=1, p=None,
                        replicas=300, budget=_cycles.DEFAULT_BUDGET, seed=0,
                        threads=1) -> EstimateReport:
    """Frequencies of 'a long cycle of length >= V^(1/3)/eps exists'.

    witness rows lower-bound the event through cycles actually found;
    count rows use the vertex-count surrogate (a long cycle of length l puts
    at least l/(2d) vertices on long cycles), which upper-bounds the event.
    """
    eps_values = [float(e) for e in eps_values]
    if any(e <= 0 for e in eps_values):
        raise ValueError("eps values must be positive")
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("long-cycle-tail", d, model, L, p_val,
                                            p_source, replicas, seed, budget))
    results, = _map_replicas(_tail_worker, [(d, r, model, L, p_val, seed, budget)],
                             replicas, threads)
    clean = [(c, w) for ok, c, w in results if ok]
    discarded = replicas - len(clean)
    V = get_torus(d, r, model, L).num_vertices
    for eps in eps_values:
        threshold = V ** (1.0 / 3.0) / eps
        count_threshold = V ** (1.0 / 3.0) / (2 * d * eps)
        wit = [1.0 if w >= threshold and w > 0 else 0.0 for _, w in clean]
        cnt = [1.0 if c >= count_threshold else 0.0 for c, _ in clean]
        wmean, wstderr = _mean_stderr(wit)
        cmean, cstderr = _mean_stderr(cnt)
        report.rows.append(Row(f"long-cycle-tail-witness[eps={eps:g}]", d, r,
                               _row_L(model, L), p_val, len(clean), discarded,
                               wmean, wstderr))
        report.rows.append(Row(f"long-cycle-tail-count[eps={eps:g}]", d, r,
                               _row_L(model, L), p_val, len(clean), discarded,
                               cmean, cstderr))
    return report


# ---------------------------------------------------------------------------
# lazily sampled boxes (free boundary)


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class _HashedBox:
    """Free-boundary box with per-edge Bernoulli statuses hashed on demand.

    The status of an edge is a pure function of (seed, canonical edge key), so
    repeated queries agree without any stored state.
    """

    def __init__(self, d: int, n: int, p: float, seed: int):
        self.d = d
        self.n = n
        self.side = 2 * n + 1
        self.threshold = int(p * 2.0 ** 64)
        self.seed = seed & _MASK64
        self._axis_hash = [_splitmix64(self.seed ^ (axis + 1)) for axis in range(d)]

    def edge_open(self, base: tuple, axis: int) -> bool:
        h = self._axis_hash[axis]
        for c in base:
            h = _splitmix64(h ^ ((c + self.n) & _MASK64))
        return h < self.threshold

    def explore(self) -> dict[tuple, int]:
        """BFS cluster of the origin; returns coords -> intrinsic distance."""
        n = self.n

        def step(v):
            for axis in range(self.d):
                for sign in (1, -1):
                    if -n <= v[axis] + sign <= n:
                        w = v[:axis] + (v[axis] + sign,) + v[axis + 1:]
                        if self.edge_open(v if sign > 0 else w, axis):
                            yield None, w

        return bfs((0,) * self.d, step)[0]


def _box_model(quantity, model):
    """Refuse any model but nearest-neighbor: the hashed boxes know no other."""
    if model != NEAREST_NEIGHBOR:
        raise ValueError(f"{quantity} supports only model {NEAREST_NEIGHBOR!r}, "
                         f"got {model!r}")


def _ball_worker(args):
    i, d, n, p, seed = args
    box = _HashedBox(d, n, p, derive_seed(seed, _S_BALL, n, i))
    reached = box.explore()
    return sum(1 for c in reached if max(abs(x) for x in c) == n)


def est_ball_boundary_sum(d, n_values, *, p=None, model=NEAREST_NEIGHBOR, L=1,
                          replicas=2000, seed=0, threads=1) -> EstimateReport:
    """Mean number of boundary vertices of Q_n connected to the origin in Q_n.

    The sum over the boundary of the in-box connection probabilities is
    bounded at criticality, so the means should stay flat in n.  The r column
    of the report carries n.  The box is nearest-neighbor, so any other
    model raises ValueError.
    """
    _box_model("ball-boundary", model)
    n_values = sorted(int(n) for n in n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("box radius must be >= 1")
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("ball-boundary", d, model, L, p_val,
                                            p_source, replicas, seed, None))
    report.meta["note"] = "column r holds the box radius n"
    per_size = _map_replicas(_ball_worker, [(d, n, p_val, seed) for n in n_values],
                             replicas, threads)
    for n, counts in zip(n_values, per_size):
        mean, stderr = _mean_stderr(counts)
        report.rows.append(Row("ball-boundary", d, n, _row_L(model, L), p_val,
                               replicas, 0, mean, stderr))
    return report


def _twopt_worker(args):
    i, d, r, model, L, p, seed, offsets = args
    g = get_torus(d, r, model, L)
    cfg = sample_config(g, p, derive_seed(seed, _S_TWOPT, r, i))
    cl = _cluster.component_of(cfg, g.origin)
    members = set(int(v) for v in cl.vertices)
    torus_hits = []
    for m in offsets:
        coords = [0] * d
        coords[0] = m
        torus_hits.append(1.0 if int(g.vertex_index(coords)) in members else 0.0)
    box = _HashedBox(d, 2 * r, p, derive_seed(seed, _S_TWOPT, r, i, 1))
    reached = box.explore()
    lattice_hits = []
    for m in offsets:
        target = tuple([m] + [0] * (d - 1))
        lattice_hits.append(1.0 if target in reached else 0.0)
    return torus_hits, lattice_hits


def est_two_point(d, r, *, model=NEAREST_NEIGHBOR, L=1, p=None, replicas=300,
                  seed=0, threads=1, max_offset=None) -> EstimateReport:
    """Torus and free-boundary-lattice two-point functions along an axis.

    The lattice surrogate runs in a box of side 4r+1 (free boundary
    under-counts, so the reported scaled gap is an upper-bound check):
    (tau_T - tau_Z) * V^(2/3) should stay bounded.  The box is
    nearest-neighbor, so any other model raises ValueError.
    """
    _box_model("two-point", model)
    if max_offset is None:
        max_offset = r // 2
    offsets = list(range(1, max_offset + 1))
    if not offsets:
        raise ValueError("torus too small for a two-point profile")
    p_val, p_source = _resolve_p(p, d, model, L)
    report = EstimateReport(meta=_base_meta("two-point", d, model, L, p_val,
                                            p_source, replicas, seed, None))
    results, = _map_replicas(_twopt_worker,
                             [(d, r, model, L, p_val, seed, tuple(offsets))],
                             replicas, threads)
    V = get_torus(d, r, model, L).num_vertices
    scale = V ** (2.0 / 3.0)
    for j, m in enumerate(offsets):
        tvals = [t[j] for t, _ in results]
        zvals = [z[j] for _, z in results]
        tmean, tstderr = _mean_stderr(tvals)
        zmean, zstderr = _mean_stderr(zvals)
        gaps = [tv - zv for tv, zv in zip(tvals, zvals)]
        gmean, gstderr = _mean_stderr(gaps)
        report.rows.append(Row(f"two-point-torus[m={m}]", d, r, _row_L(model, L),
                               p_val, replicas, 0, tmean, tstderr))
        report.rows.append(Row(f"two-point-lattice[m={m}]", d, r, _row_L(model, L),
                               p_val, replicas, 0, zmean, zstderr))
        report.rows.append(Row(f"two-point-gap-scaled[m={m}]", d, r,
                               _row_L(model, L), p_val, replicas, 0,
                               gmean * scale, gstderr * scale))
    return report
