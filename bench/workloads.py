"""The three workloads: what one round of ops runs and how its output is checked.

A round is a fixed list of ops whose inputs come from (--seed, round index).
`prepare` builds a round's inputs outside the timed phase, `execute` runs the
ops (the timed part) and `check` tests what they returned.  `final_check`
runs once after the timed phase, on configs the benchmark samples itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

import torusperc as tp
import torusperc.estimators  # noqa: F401  (not imported by the package itself)
import refcheck as ref
from checks import Problems, check_report, failed_replicas

# Untraced handles for input generation: the traced run patches the module
# attributes, and input generation is not part of any op.
from torusperc.lattice import get_torus as _get_torus
from torusperc.percolation import pc_reference as _pc_reference
from torusperc.percolation import sample_config as _sample_config

ENUMERABLE_DIM = 10          # largest cycle-space dimension enumerated (2^10 elements)


@lru_cache(maxsize=None)
def ref_torus(d: int, r: int) -> ref.Torus:
    return ref.Torus(d, r)


@lru_cache(maxsize=None)
def ref_box(d: int, n: int) -> np.ndarray:
    return ref.box_endpoints(d, n)


def derived_seed(*key: int) -> int:
    """A 63-bit seed from (--seed, round, stream...), independent of torusperc."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, dtype=np.uint64)[0] >> 1)


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    reads: int = 0
    outputs: list = field(default_factory=list)


def _run_estimator(res: RoundResult, label, fn, *args, replicas, **kwargs) -> None:
    """One estimator call and its report text: one op per replica and size."""
    rep = fn(*args, replicas=replicas, **kwargs)
    rep.to_csv()
    rep.to_jsonl()
    sizes = len({row.r for row in rep.rows})
    res.attempted += sizes * replicas
    res.failed += failed_replicas((row.r, row.discarded) for row in rep.rows)
    res.outputs.append((label, rep, replicas))


def _check_reports(res: RoundResult, problems: Problems) -> None:
    """Report checks, and the failed-op count against the discarded column."""
    failed = 0
    for label, rep, replicas in res.outputs:
        rows = check_report(rep, replicas, problems, label)
        failed += failed_replicas((row["r"], row["discarded"]) for row in rows)
    problems.expect(failed == res.failed,
                    f"failed ops {res.failed} != discarded replicas {failed}")


class Workload:
    name = ""
    pool = True           # whether the ops start process pools

    def setup(self) -> None:
        """Build the geometry tables the ops use, through public methods."""

    def prepare(self, seed: int, k: int):
        return derived_seed(seed, k)

    def execute(self, inputs, threads: int) -> RoundResult:
        raise NotImplementedError

    def check(self, res: RoundResult, k: int, problems: Problems) -> None:
        _check_reports(res, problems)

    def final_check(self, seed: int, problems: Problems) -> None:
        """Checks on configs sampled outside the timed phase."""


# ---------------------------------------------------------------------------


class D7Estimates(Workload):
    name = "d7-estimates"
    SIZES = (4, 5, 6)
    DELTAS = (0.5, 1.0, 2.0)
    REPLICAS = 4

    def setup(self):
        for r in self.SIZES:
            tp.lattice.get_torus(7, r).edge_array()

    def execute(self, seed, threads):
        res = RoundResult()
        est = tp.estimators
        kw = dict(replicas=self.REPLICAS, seed=seed, threads=threads)
        _run_estimator(res, "vertex-long-cycle", est.est_vertex_long_cycle, 7, self.SIZES, **kw)
        _run_estimator(res, "cluster-size", est.est_mean_cluster_size, 7, self.SIZES, **kw)
        _run_estimator(res, "cycle-cut", est.est_cycle_cut, 7, self.SIZES, self.DELTAS, **kw)
        return res

    def check(self, res, k, problems):
        _check_reports(res, problems)
        cut = next(rep for label, rep, _ in res.outputs if label == "cycle-cut")
        for r in self.SIZES:
            means = [row.mean for row in cut.rows if row.r == r
                     and row.quantity.startswith("cycle-cut-mean")]
            zeros = [row.mean for row in cut.rows if row.r == r
                     and row.quantity.startswith("cycle-cut-zero-prob")]
            problems.expect(all(a >= b for a, b in zip(means, means[1:])),
                            f"cut means increase with delta at r={r}: {means}")
            problems.expect(all(a <= b for a, b in zip(zeros, zeros[1:])),
                            f"zero-cut probabilities decrease with delta at r={r}: {zeros}")

    def final_check(self, seed, problems):
        for r in self.SIZES:
            g = _get_torus(7, r)
            cfg = _sample_config(g, _pc_reference(7).p_c, derived_seed(seed, 99, r))
            torus = ref_torus(7, r)
            ends = torus.endpoints()
            lab = ref.Labelling(torus.num_vertices, ends, cfg.open_mask())
            cm = tp.cluster.component_map(cfg)
            same = (cm.num_clusters == lab.count
                    and np.array_equal(cm.sizes[cm.labels], lab.sizes[lab.labels])
                    and np.array_equal(cm.surplus[cm.labels], lab.surplus[lab.labels])
                    and len(np.unique(cm.labels * lab.count + lab.labels)) == lab.count)
            problems.expect(same, f"d=7 r={r}: component_map differs from scipy labelling")
            cyclic = np.flatnonzero(lab.surplus > 0)
            cyc_edges = lab.open_ids[np.isin(lab.labels[lab.uv[:, 0]], cyclic)]
            want = len(ref.cycle_vertices(ends, cyc_edges))
            got = tp.cycles.long_cycle_vertex_count(cfg)
            problems.expect(got == (want, False),
                            f"d=7 r={r}: long-cycle count {got} != non-bridge vertices {want}")
            biggest = cyclic[np.argsort(-lab.sizes[cyclic], kind="stable")][:100]
            for label in biggest:
                root = int(lab.vertices(label)[0])
                cl = cm.cluster(int(cm.labels[root]))
                ans = tp.cycles.min_long_cycle_cut(cfg, cl)
                dim = ref.cycle_space_dim(ends, lab.edges(label))
                problems.expect(ans.is_yes and ans.value == dim,
                                f"d=7 r={r}: cut {ans.value} of cluster at {root} != "
                                f"cycle-space dimension {dim}")


class VlcD4R8(Workload):
    name = "vlc-d4-r8"
    # Fixed fault replicas: est_vertex_long_cycle at p_c with master seed 9.
    # Their inputs do not depend on --seed, so their outcomes repeat exactly
    # in every round: replica 0 ends Unknown, replica 1 finds its long cycles.
    # The two cost about the same, so the two pool workers finish together.
    FAULT_SEED = 9
    FAULT_REPLICAS = 2
    # Seeded replicas below p_c, where no search has exhausted its budget.
    SEEDED_FRACTION = 0.75
    SEEDED_REPLICAS = 6

    def setup(self):
        tp.lattice.get_torus(4, 8).edge_array()

    def execute(self, seed, threads):
        res = RoundResult()
        est = tp.estimators
        pc = _pc_reference(4).p_c
        _run_estimator(res, "vlc-fault", est.est_vertex_long_cycle, 4, [8],
                       replicas=self.FAULT_REPLICAS, seed=self.FAULT_SEED, threads=threads)
        _run_estimator(res, "vlc-seeded", est.est_vertex_long_cycle, 4, [8],
                       p=self.SEEDED_FRACTION * pc, replicas=self.SEEDED_REPLICAS,
                       seed=seed, threads=threads)
        return res

    def final_check(self, seed, problems):
        g = _get_torus(4, 8)
        torus = ref_torus(4, 8)
        ends = torus.endpoints()
        t = 8 // 4
        pc = _pc_reference(4).p_c
        for j, p in enumerate((pc, self.SEEDED_FRACTION * pc)):
            cfg = _sample_config(g, p, derived_seed(seed, 98, j))
            lab = ref.Labelling(torus.num_vertices, ends, cfg.open_mask())
            cyclic = np.flatnonzero(lab.surplus > 0)
            enumerable = [c for c in cyclic if lab.surplus[c] <= ENUMERABLE_DIM]
            large = [c for c in cyclic if lab.surplus[c] > ENUMERABLE_DIM]
            # the three largest enumerable clusters, eight vertices each; a few
            # vertices of the largest other cluster, at a smaller budget
            picks = [(c, 8) for c in sorted(enumerable, key=lambda c: -lab.sizes[c])[:3]]
            picks += [(c, 3) for c in sorted(large, key=lambda c: -lab.sizes[c])[:1]]
            for label, count in picks:
                verts = lab.vertices(label)
                truth = (ref.long_cycle_vertices(torus, lab.edges(label), t, ENUMERABLE_DIM)
                         if lab.surplus[label] <= ENUMERABLE_DIM else None)
                budget = tp.cycles.DEFAULT_BUDGET if truth is not None else 10**5
                for x in verts[:: max(1, len(verts) // count)][:count]:
                    ans = tp.cycles.vertex_in_long_cycle(cfg, int(x), budget)
                    if ans.is_yes:
                        bad = ref.walk_problem(torus, ans.witness.vertices, t, cfg.peek_open)
                        problems.expect(bad is None and int(x) in ans.witness.vertices,
                                        f"d=4 r=8: Yes witness for {x} fails: {bad}")
                    if truth is not None:
                        problems.expect(not ans.is_unknown and ans.is_yes == (int(x) in truth),
                                        f"d=4 r=8: verdict {ans.verdict} for {x} disagrees "
                                        f"with the cycle-space enumeration")


class ExploreD3(Workload):
    name = "explore-d3"
    pool = False
    # (r, p or None for p_c, explorations per round, required surplus and
    # size range of the largest cluster, or None).  At r=8 the cost of an
    # exploration grows steeply with the surplus of the cluster and its upper
    # tail reaches seconds; at a fixed surplus it still follows the size of
    # the cluster.  So each r=8 exploration is drawn from the configs whose
    # largest cluster has a given surplus and a size in a given range.
    SURGERY = ((5, 0.4, 6, None), (8, None, 2, (4, range(100, 151))))
    COUPLED = 10                                # coupled samples per round
    COUPLING = (3, 5, 0.2)                      # (d, r, p) of the coupled samples
    WINDOW_FACTOR = 4
    K_VALUES = range(0, 21)

    def setup(self):
        for r in sorted({job[0] for job in self.SURGERY}):
            tp.lattice.get_torus(3, r).incident_edges(0)
        d, r, _ = self.COUPLING
        tp.lattice.build_box([0] * d, self.WINDOW_FACTOR * r)

    def prepare(self, seed, k):
        rng = np.random.default_rng(derived_seed(seed, k, 1))
        jobs = []
        for r, p, count, wanted in self.SURGERY:
            p = _pc_reference(3).p_c if p is None else p
            g = _get_torus(3, r)
            torus = ref_torus(3, r)
            found = 0
            while found < count:
                cfg = _sample_config(g, p, int(rng.integers(2**62)))
                lab = ref.Labelling(torus.num_vertices, torus.endpoints(), cfg.open_mask())
                big = lab.largest()
                if wanted is None or (lab.surplus[big] == wanted[0]
                                      and lab.sizes[big] in wanted[1]):
                    jobs.append((r, cfg, int(rng.choice(lab.vertices(big)))))
                    found += 1
        seeds = [int(rng.integers(2**62)) for _ in range(self.COUPLED)]
        return jobs, seeds

    def execute(self, inputs, threads):
        jobs, seeds = inputs
        res = RoundResult()
        for r, cfg, root in jobs:
            icfg = cfg.instrumented()
            out = tp.surgery.explore_cluster(icfg, root)
            res.attempted += 1
            res.failed += not out.valid
            res.reads += len(icfg.read_log)
            res.outputs.append(("surgery", r, icfg, out))
        for s in seeds:
            sample = tp.coupling.coupled_sample(*self.COUPLING, s,
                                                window_factor=self.WINDOW_FACTOR)
            rep = tp.coupling.check_inclusion_property(sample, self.K_VALUES)
            res.attempted += 1
            res.reads += len(sample.torus_reads)
            # The checks do not read the ghost set, the bulk of a sample's
            # memory: holding ten of them per round made peak_rss_mb follow
            # how many large samples a round drew.
            res.outputs.append(("coupling", replace(sample, ghost_edges=frozenset()), rep))
        return res

    def check(self, res, k, problems):
        heavy = k == 0          # certificate and enumeration checks on the first round
        for out in res.outputs:
            if out[0] == "surgery":
                self._check_surgery(*out[1:], heavy, problems)
            else:
                self._check_coupling(*out[1:], heavy, problems)

    @staticmethod
    def _check_surgery(r, cfg, out, heavy, problems):
        s1 = out.stage1
        where = f"surgery r={r} root={s1.root}"
        if not out.valid:
            return
        probed, special = set(out.probed_edges), set(out.special_edges)
        problems.expect(cfg.read_log == set(s1.explored_edges) | probed,
                        f"{where}: read log is not explored + probed")
        problems.expect(not special & cfg.read_log, f"{where}: a special edge was read")
        problems.expect(probed | special == set(s1.surplus_edges) and not probed & special,
                        f"{where}: probed and special do not partition the surplus")
        if not heavy:
            return
        torus = ref_torus(3, r)
        ends = torus.endpoints()
        t = r // 4
        for e in out.special_edges:
            w = out.certificates.get(e)
            if w is None:
                bad = "missing"
            elif e not in ref.walk_edges(torus, w.vertices):
                bad = "does not pass through the edge"
            else:
                bad = ref.walk_problem(torus, w.vertices, t, cfg.peek_open, unread={e})
            problems.expect(bad is None, f"{where}: certificate of special edge {e}: {bad}")
        if t <= 1:
            problems.expect(ref.is_forest(ends, out.graph_edges),
                            f"{where}: graph edges are not a forest")
        else:
            found = ref.long_cycle_vertices(torus, out.graph_edges, t, ENUMERABLE_DIM)
            problems.expect(not found, f"{where}: graph edges carry a long cycle")

    def _check_coupling(self, sample, rep, heavy, problems):
        reads = sample.torus_reads
        problems.expect(len(reads) == len(set(reads)), "coupling: a torus edge was read twice")
        (d, r, _), n = self.COUPLING, sample.window.n
        box = ref_box(d, n)
        torus = ref_torus(d, r)
        status = sample.torus_config.open_mask()
        for edges, want in ((sample.explored_open, True), (sample.explored_closed, False)):
            for e in edges:
                u, v = (torus.index(ref.box_coords(d, n, x)) for x in box[e])
                te = torus.edge_between(u, v)
                problems.expect(bool(status[te]) == want and sample.lattice_open[e] == want,
                                f"coupling: window edge {e} does not carry the status "
                                f"of torus edge {te}")
        problems.expect(sample.truncated != rep.applicable,
                        "coupling: applicability does not follow truncation")
        if not heavy or sample.truncated:
            return
        kmax = max(self.K_VALUES)
        dt = ref.bfs_distances(torus.num_vertices, torus.endpoints(), status,
                               torus.index([0] * d))
        side = 2 * n + 1
        window_origin = int(n * (side ** np.arange(d)).sum())
        dz = ref.bfs_distances(side ** d, box, sample.lattice_open, window_origin)
        rep_of = torus.index(ref.box_coords(d, n, np.arange(side ** d)))
        best = np.full(torus.num_vertices, np.inf)
        np.minimum.at(best, rep_of, dz)
        near = dt <= kmax
        holds = bool((best[near] <= dt[near]).all())
        problems.expect(holds and rep.applicable and rep.ok,
                        f"coupling: inclusion by BFS {holds}, program says {rep.ok}")


WORKLOADS = {w.name: w for w in (D7Estimates(), VlcD4R8(), ExploreD3())}
