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

Each estimator opens its report with `_report` (argument check, p, meta),
then appends one row per quantity and size with `EstimateReport.add` and a
log-log slope against V = r^d with `EstimateReport.fit`.

Box-based quantities (ball-boundary connections, the lattice two-point
surrogate) never materialize their boxes: edge statuses are a pure integer
hash of (seed, edge key), revealed on demand during the breadth-first
exploration from the origin.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

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
    """Rows, slope fits and the meta of one estimator call.

    `add` appends a row whose d, L and p come from the meta, and `fit` a
    slope over the rows of one quantity, so an estimator passes only what
    varies: the quantity, the size and the replica values.
    """

    rows: list[Row] = field(default_factory=list)
    slopes: list[SlopeFit] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    CSV_HEADER = ("quantity,d,r,L,p,replicas,discarded,mean,stderr,"
                  "ci95_lo,ci95_hi,slope,slope_stderr")

    def add(self, quantity: str, r, values, discarded: int = 0,
            scale: float = 1.0) -> None:
        """One row over the clean replica values at size r: its replicas
        column is len(values), and its mean and stderr are scaled by scale."""
        mean, stderr = _mean_stderr(values)
        self.rows.append(Row(quantity, self.meta["d"], r, self.meta.get("L"),
                             self.meta["p"], len(values), discarded,
                             mean * scale, stderr * scale))

    def fit(self, quantity: str) -> None:
        """The log-log slope of quantity's rows with replicas and a positive
        mean against V = r^d, once there are two of them."""
        points = [(row.r ** row.d, row.mean) for row in self.rows
                  if row.quantity == quantity and row.replicas > 0 and row.mean > 0]
        if len(points) >= 2:
            self.slopes.append(SlopeFit(quantity, *loglog_slope(points)))

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


def _report(quantity, d, model, L, p, replicas, seed, budget=None,
            **values) -> EstimateReport:
    """An empty report for one estimator call, with p resolved into its meta.

    Refuses a call that would report no row, or rows over no replica: every
    list of sizes, k, deltas, eps values or offsets must be nonempty, and
    replicas at least 1.
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas!r}")
    for name, vals in values.items():
        if not vals:
            raise ValueError(f"need at least one {name}")
    p, p_source = _resolve_p(p, d, model, L)
    meta = {"quantity": quantity, "d": d, "model": model, "p": p,
            "p_source": p_source, "replicas_requested": replicas, "seed": seed,
            "budget": budget}
    if model != NEAREST_NEIGHBOR:
        meta["L"] = L
    if d == 7:
        meta["caveat"] = ("d=7 nearest-neighbor is a desk-scale stand-in; the "
                          "rigorous nearest-neighbor theory needs larger d")
    return EstimateReport(meta=meta)


def _sample(stream, i, torus):
    """Replica i of one seed stream on torus = (d, r, model, L, p, seed)."""
    d, r, model, L, p, seed = torus
    return sample_config(get_torus(d, r, model, L), p, derive_seed(seed, stream, r, i))


# ---------------------------------------------------------------------------
# vertex-long-cycle estimator


def _vlc_worker(args):
    i, torus, budget = args
    count, unknown = _cycles.long_cycle_vertex_count(_sample(_S_VLC, i, torus), budget)
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
    report = _report("vertex-long-cycle", d, model, L, p, replicas, seed, budget,
                     size=r_values)
    per_size = _map_replicas(_vlc_worker,
                             [((d, r, model, L, report.meta["p"], seed), budget)
                              for r in r_values], replicas, threads)
    for r, results in zip(r_values, per_size):
        counts = [c for ok, c in results if ok]
        discarded = replicas - len(counts)
        report.add("vertex-long-cycle-count", r, counts, discarded)
        report.add("vertex-long-cycle-prob", r, [c / r ** d for c in counts], discarded)
    report.fit("vertex-long-cycle-count")
    report.fit("vertex-long-cycle-prob")
    return report


# ---------------------------------------------------------------------------
# cycle-cut (sum of minimum long-cycle cuts over big clusters)


def _cut_worker(args):
    i, torus, budget, deltas = args
    cfg = _sample(_S_CUT, i, torus)
    V = cfg.geometry.num_vertices
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
    report = _report("cycle-cut", d, model, L, p, replicas, seed, budget,
                     size=r_values, delta=deltas)
    if any(x <= 0 for x in deltas):
        raise ValueError("delta values must be positive")
    per_size = _map_replicas(_cut_worker,
                             [((d, r, model, L, report.meta["p"], seed), budget,
                               tuple(deltas)) for r in r_values], replicas, threads)
    for r, results in zip(r_values, per_size):
        clean = [sums for sums in results if sums is not None]
        discarded = replicas - len(clean)
        for j, delta in enumerate(deltas):
            vals = [sums[j] for sums in clean]
            report.add(f"cycle-cut-mean[delta={delta:g}]", r, vals, discarded)
            report.add(f"cycle-cut-scaled[delta={delta:g}]", r, vals, discarded, delta)
            report.add(f"cycle-cut-zero-prob[delta={delta:g}]", r,
                       [1.0 if v == 0 else 0.0 for v in vals], discarded)
    return report


# ---------------------------------------------------------------------------
# mean cluster size


def _size_worker(args):
    i, torus = args
    cfg = _sample(_S_SIZE, i, torus)
    # translation-averaged estimator of E|C(origin)|: the per-config average of
    # |C(x)| over all x is sum of |C|^2 / V, unbiased with far lower variance
    # than a single-origin draw
    cm = _cluster.component_map(cfg)
    return float((cm.sizes.astype(np.float64) ** 2).sum() / cfg.geometry.num_vertices)


def est_mean_cluster_size(d, r_values, *, model=NEAREST_NEIGHBOR, L=1, p=None,
                          replicas=300, seed=0, threads=1) -> EstimateReport:
    """Mean origin-cluster size and its V^(-1/3)-scaled version per size."""
    r_values = sorted(int(r) for r in r_values)
    report = _report("cluster-size", d, model, L, p, replicas, seed, size=r_values)
    per_size = _map_replicas(_size_worker,
                             [((d, r, model, L, report.meta["p"], seed),)
                              for r in r_values], replicas, threads)
    for r, sizes in zip(r_values, per_size):
        report.add("cluster-size-mean", r, sizes)
        report.add("cluster-size-scaled", r, sizes, scale=(r ** d) ** (-1.0 / 3.0))
    report.fit("cluster-size-mean")
    return report


# ---------------------------------------------------------------------------
# origin-in-short-long-cycle profile


def _lck_worker(args):
    i, torus, budget, kmax, origins = args
    cfg = _sample(_S_LCK, i, torus)
    _, r, _, _, _, seed = torus
    V = cfg.geometry.num_vertices
    picks = replica_rng(seed, _S_LCK, r, i, 1).choice(V, size=min(origins, V),
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
    report = _report("cycle-length", d, model, L, p, replicas, seed, budget,
                     k=k_values)
    results, = _map_replicas(_lck_worker,
                             [((d, r, model, L, report.meta["p"], seed), budget,
                               k_values[-1], origins)], replicas, threads)
    lengths = [v for ok, vals in results if ok for v in vals]
    discarded = replicas - sum(1 for ok, _ in results if ok)
    V = r ** d
    for k in k_values:
        report.add(f"cycle-length-prob[k={k}]", r,
                   [1.0 if (v is not None and v <= k) else 0.0 for v in lengths],
                   discarded)
        # mean * V / k: rounding V / k first would change the last bit
        prob = report.rows[-1]
        report.rows.append(replace(prob, quantity=f"cycle-length-ratio[k={k}]",
                                   mean=prob.mean * V / k, stderr=prob.stderr * V / k))
    return report


# ---------------------------------------------------------------------------
# long-cycle length tail


def _tail_worker(args):
    i, torus, budget = args
    cfg = _sample(_S_TAIL, i, torus)
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
    report = _report("long-cycle-tail", d, model, L, p, replicas, seed, budget,
                     eps=eps_values)
    if any(e <= 0 for e in eps_values):
        raise ValueError("eps values must be positive")
    results, = _map_replicas(_tail_worker,
                             [((d, r, model, L, report.meta["p"], seed), budget)],
                             replicas, threads)
    clean = [(c, w) for ok, c, w in results if ok]
    discarded = replicas - len(clean)
    V = r ** d
    for eps in eps_values:
        threshold = V ** (1.0 / 3.0) / eps
        count_threshold = V ** (1.0 / 3.0) / (2 * d * eps)
        report.add(f"long-cycle-tail-witness[eps={eps:g}]", r,
                   [1.0 if w >= threshold and w > 0 else 0.0 for _, w in clean],
                   discarded)
        report.add(f"long-cycle-tail-count[eps={eps:g}]", r,
                   [1.0 if c >= count_threshold else 0.0 for c, _ in clean],
                   discarded)
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
        """BFS cluster of the origin; returns coords -> intrinsic distance.

        A neighbour already reached is skipped before its edge is hashed:
        the search would ignore it anyway, so each edge is hashed at most
        once, from the first of its ends to be expanded.
        """
        n = self.n
        origin = (0,) * self.d
        reached = {origin}

        def step(v):
            for axis in range(self.d):
                for sign in (1, -1):
                    if -n <= v[axis] + sign <= n:
                        w = v[:axis] + (v[axis] + sign,) + v[axis + 1:]
                        if w not in reached and self.edge_open(v if sign > 0 else w, axis):
                            reached.add(w)
                            yield None, w

        return bfs(origin, step)[0]


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
    report = _report("ball-boundary", d, model, L, p, replicas, seed, size=n_values)
    if any(n < 1 for n in n_values):
        raise ValueError("box radius must be >= 1")
    report.meta["note"] = "column r holds the box radius n"
    per_size = _map_replicas(_ball_worker,
                             [(d, n, report.meta["p"], seed) for n in n_values],
                             replicas, threads)
    for n, counts in zip(n_values, per_size):
        report.add("ball-boundary", n, counts)
    return report


def _twopt_worker(args):
    i, torus, offsets = args
    cfg = _sample(_S_TWOPT, i, torus)
    g = cfg.geometry
    d, r, _, _, p, seed = torus
    members = set(int(v) for v in _cluster.component_of(cfg, g.origin).vertices)
    reached = _HashedBox(d, 2 * r, p, derive_seed(seed, _S_TWOPT, r, i, 1)).explore()
    return ([1.0 if int(g.vertex_index([m] + [0] * (d - 1))) in members else 0.0
             for m in offsets],
            [1.0 if (m,) + (0,) * (d - 1) in reached else 0.0 for m in offsets])


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
    report = _report("two-point", d, model, L, p, replicas, seed, offset=offsets)
    results, = _map_replicas(_twopt_worker,
                             [((d, r, model, L, report.meta["p"], seed), tuple(offsets))],
                             replicas, threads)
    scale = (r ** d) ** (2.0 / 3.0)
    for j, m in enumerate(offsets):
        tvals = [t[j] for t, _ in results]
        zvals = [z[j] for _, z in results]
        report.add(f"two-point-torus[m={m}]", r, tvals)
        report.add(f"two-point-lattice[m={m}]", r, zvals)
        report.add(f"two-point-gap-scaled[m={m}]", r,
                   [tv - zv for tv, zv in zip(tvals, zvals)], scale=scale)
    return report
