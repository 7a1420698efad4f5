"""Two-stage exploration surgery: depth-first tree, surplus edges, special edges.

Stage 1 is a depth-first exploration that reveals edge statuses only for edges
leading out of the explored set; edges closing back into it (surplus edges)
are set aside unread.  Stage 2 walks the surplus edges in an order derived
from an auxiliary tree on branch vertices, revealing an edge only when adding
it to the growing open graph cannot create a long cycle; the rest become
special edges whose statuses are never read.  With all special edges closed
the cluster provably contains no long cycles, which is the kill-switch the
estimators build on.

The graph grown in stage 2 is a plain set of open edges, starting from the
stage-1 tree, and each decision is one `cycles.edge_closes_long_cycle` call.
Only `cycles` knows the long-cycle threshold: when every cycle is long, every
surplus edge closes a tree cycle and so comes out special.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cluster as _cluster
from . import cycles as _cycles
from .cycles import DEFAULT_BUDGET, CycleWitness
from .percolation import BondConfig, replica_rng


class ExplorationInvariantError(AssertionError):
    """A structural property of the exploration failed (indicates a bug)."""


@dataclass
class Stage1Result:
    """Depth-first exploration output for one root.

    `explored_edges` were revealed; the open ones are exactly `tree_edges`.
    `surplus_edges` have both endpoints in the cluster and were never read.
    """
    geometry: object
    root: int
    vertices: list[int]                      # discovery order
    parent: dict[int, tuple[int | None, int | None]]   # v -> (parent, edge)
    depth: dict[int, int]
    explored_edges: list[int]
    surplus_edges: list[int]
    tree_edges: list[int]

    @property
    def vertex_set(self) -> set[int]:
        return set(self.vertices)

    def tree_path_to_root(self, v: int) -> list[int]:
        path = [int(v)]
        while self.parent[path[-1]][0] is not None:
            path.append(self.parent[path[-1]][0])
        return path

    def is_tree_ancestor(self, anc: int, v: int) -> bool:
        anc, v = int(anc), int(v)
        while self.depth[v] > self.depth[anc]:
            v = self.parent[v][0]
        return v == anc

    def to_json(self) -> dict:
        return {"root": self.root,
                "vertices": sorted(self.vertices),
                "tree_edges": sorted(self.tree_edges),
                "explored_edges": sorted(self.explored_edges),
                "surplus_edges": sorted(self.surplus_edges)}


@dataclass
class BranchOrdering:
    """Numbered branch vertices and the abstract tree that justifies the order."""
    order: list[int]                  # position i holds the vertex numbered i+1
    aux_parent: dict[int, int]        # branch vertex -> parent in the abstract tree
    aux_depth: dict[int, int]
    oriented_surplus: dict[int, tuple[int, int]]   # edge -> (descendant a, ancestor b)

    def number(self, b: int) -> int:
        return self.order.index(b) + 1


@dataclass
class Stage2Result:
    """Special-edge selection output.

    `graph_edges` induce the long-cycle-free open graph; `probed_edges` were
    revealed; `special_edges` were never read, and adding any one of them to
    the graph creates a long cycle that necessarily traverses it.
    """
    stage1: Stage1Result
    ordering: BranchOrdering
    graph_edges: list[int]
    probed_edges: list[int]
    special_edges: list[int]
    valid: bool
    certificates: dict[int, CycleWitness] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"graph_edges": sorted(self.graph_edges),
                "probed_edges": sorted(self.probed_edges),
                "special_edges": sorted(self.special_edges),
                "branch_order": list(self.ordering.order),
                "valid": self.valid}


def depth_first_explore(cfg: BondConfig, root: int,
                        check_invariants: bool = False) -> Stage1Result:
    """Stage 1: reveal statuses depth-first, diverting surplus edges unread.

    At each step the unique deepest extendable vertex is advanced along its
    smallest unprocessed incident EdgeId.  With `check_invariants` the
    uniqueness property (extendable vertices lie on one root path with a
    single deepest element) is re-verified from scratch at every step.
    """
    g = cfg.geometry
    root = int(root)
    X = {root}
    order = [root]
    parent: dict[int, tuple[int | None, int | None]] = {root: (None, None)}
    depth = {root: 0}
    W: set[int] = set()
    E: list[int] = []
    U: list[int] = []
    T: list[int] = []
    incident = {root: g.incident_edges(root)}
    ptr = {root: 0}
    stack = [root]
    # for invariant checking: per-X-vertex count of incident edges not yet in W,
    # with the positive-count (extendable) set maintained incrementally
    pending: dict[int, int] = {}
    extendable: set[int] = set()
    on_stack: set[int] = set()
    if check_invariants:
        pending[root] = len(incident[root][0])
        extendable.add(root)
        on_stack.add(root)

    def note_in_w(e: int, u: int, v: int) -> None:
        for w in (u, v):
            if w in pending:
                pending[w] -= 1
                if pending[w] == 0:
                    extendable.discard(w)

    while stack:
        a = stack[-1]
        eids, others = incident[a]
        i = ptr[a]
        while i < len(eids) and int(eids[i]) in W:
            i += 1
        ptr[a] = i
        if i == len(eids):
            stack.pop()
            if check_invariants:
                on_stack.discard(a)
            continue
        if check_invariants:
            _assert_unique_deepest(extendable, on_stack, depth, a)
        e, b = int(eids[i]), int(others[i])
        W.add(e)
        if check_invariants:
            note_in_w(e, a, b)
        if b in X:
            U.append(e)                 # surplus: status deliberately unread
            continue
        E.append(e)
        if cfg.is_open(e):
            X.add(b)
            order.append(b)
            parent[b] = (a, e)
            depth[b] = depth[a] + 1
            T.append(e)
            incident[b] = g.incident_edges(b)
            ptr[b] = 0
            stack.append(b)
            if check_invariants:
                cnt = sum(1 for f in incident[b][0] if int(f) not in W)
                pending[b] = cnt
                if cnt > 0:
                    extendable.add(b)
                on_stack.add(b)
    return Stage1Result(g, root, order, parent, depth, E, U, T)


def _assert_unique_deepest(extendable, on_stack, depth, chosen):
    """The extendable vertices lie on one root path with a unique deepest one.

    The exploration stack is the root path of the current deepest vertex, so
    stack membership certifies the single-path property.
    """
    chosen_depth = depth[chosen]
    if chosen not in extendable:
        raise ExplorationInvariantError("selected vertex is not extendable")
    for v in extendable:
        if v not in on_stack:
            raise ExplorationInvariantError(
                f"extendable vertex {v} is off the current root path")
        if depth[v] > chosen_depth or (depth[v] == chosen_depth and v != chosen):
            raise ExplorationInvariantError(
                f"vertex {v} at depth {depth[v]} beats the selected vertex")


def order_branch_vertices(s1: Stage1Result) -> BranchOrdering:
    """Number the surplus-edge ancestors so tree ancestors come first.

    Every surplus edge {a, b} has exactly one endpoint b on the tree path from
    the other endpoint to the root; those b form the branch vertices.  Ties
    between incomparable vertices break by tree depth, then vertex id.
    """
    oriented: dict[int, tuple[int, int]] = {}
    for e in s1.surplus_edges:
        u, v = s1.geometry.edge_endpoints(e)
        u_anc = s1.is_tree_ancestor(u, v)
        v_anc = s1.is_tree_ancestor(v, u)
        if u_anc == v_anc:
            raise ExplorationInvariantError(
                f"surplus edge {e} endpoints are not tree-comparable")
        a, b = (v, u) if u_anc else (u, v)
        oriented[e] = (a, b)
    branch = sorted({b for _, b in oriented.values()})
    branch_set = set(branch)
    aux_parent: dict[int, int] = {}
    for b in branch:
        v = s1.parent[b][0]
        while v is not None and v not in branch_set and v != s1.root:
            v = s1.parent[v][0]
        aux_parent[b] = s1.root if v is None or v == s1.root else v
        if b == s1.root:
            aux_parent[b] = s1.root
    aux_depth = {s1.root: 0}

    def adepth(b: int) -> int:
        if b in aux_depth:
            return aux_depth[b]
        aux_depth[b] = adepth(aux_parent[b]) + 1
        return aux_depth[b]

    for b in branch:
        adepth(b)
    order = sorted(branch, key=lambda b: (aux_depth[b], s1.depth[b], b))
    return BranchOrdering(order, aux_parent, aux_depth, oriented)


def second_stage(cfg: BondConfig, s1: Stage1Result,
                 ordering: BranchOrdering | None = None,
                 budget_per_decision: int = DEFAULT_BUDGET,
                 check_invariants: bool = False,
                 collect_certificates: bool = True) -> Stage2Result:
    """Stage 2: probe surplus edges unless they would close a long cycle.

    Branch vertices are processed from the largest number down; at each one
    the smallest admissible surplus EdgeId is selected.  An edge whose
    addition cannot create a long cycle is revealed (and joins the graph when
    open); otherwise it becomes special and its status is never read.  Any
    Unknown long-cycle decision invalidates the whole result.
    """
    g = cfg.geometry
    if ordering is None:
        ordering = order_branch_vertices(s1)
    want_witness = collect_certificates or check_invariants
    incident_surplus: dict[int, list[int]] = {}
    for e in s1.surplus_edges:
        u, v = g.edge_endpoints(e)
        incident_surplus.setdefault(u, []).append(e)
        incident_surplus.setdefault(v, []).append(e)
    graph_edges = set(s1.tree_edges)
    claimed: set[int] = set()
    probed: list[int] = []
    special: list[int] = []
    certificates: dict[int, CycleWitness] = {}
    remaining = list(ordering.order)          # ascending numbers
    while remaining:
        b = remaining[-1]                     # biggest number first
        admissible = sorted(e for e in incident_surplus.get(b, ())
                            if e not in claimed)
        if not admissible:
            remaining.pop()
            continue
        if len(admissible) == 1:
            remaining.pop()
        e = admissible[0]
        claimed.add(e)
        decision = _cycles.edge_closes_long_cycle(g, graph_edges, e,
                                                  budget_per_decision,
                                                  witness=want_witness)
        if decision.is_unknown:
            return Stage2Result(s1, ordering, sorted(graph_edges), probed,
                                special, valid=False, certificates=certificates)
        if decision.is_yes:
            special.append(e)                 # status deliberately unread
            if decision.witness is not None:
                certificates[e] = decision.witness
            if check_invariants:
                _check_special_edge(g, s1, ordering, e, decision.witness)
        else:
            probed.append(e)
            if cfg.is_open(e):
                graph_edges.add(e)
    if set(probed) | set(special) != set(s1.surplus_edges) or set(probed) & set(special):
        raise ExplorationInvariantError("probed/special do not partition the surplus")
    return Stage2Result(s1, ordering, sorted(graph_edges), probed, special,
                        valid=True, certificates=certificates)


def _check_special_edge(g, s1: Stage1Result, ordering: BranchOrdering, e: int,
                        witness: CycleWitness) -> None:
    if e not in witness.edges:
        raise ExplorationInvariantError(
            f"special edge {e} not on its certificate cycle")
    a, b = ordering.oriented_surplus[e]
    path = s1.tree_path_to_root(b)
    path_edges = {s1.parent[v][1] for v in path if s1.parent[v][0] is not None}
    if path_edges & set(witness.edges):
        raise ExplorationInvariantError(
            f"certificate cycle of {e} shares edges with the root path of {b}")


def explore_cluster(cfg: BondConfig, root: int,
                    budget_per_decision: int = DEFAULT_BUDGET,
                    check_invariants: bool = False,
                    collect_certificates: bool = True) -> Stage2Result:
    """Run both stages from one root."""
    s1 = depth_first_explore(cfg, root, check_invariants=check_invariants)
    ordering = order_branch_vertices(s1)
    return second_stage(cfg, s1, ordering, budget_per_decision,
                        check_invariants=check_invariants,
                        collect_certificates=collect_certificates)


def estimate_no_long_cycle_probability(configs, delta: float,
                                       method: str = "direct",
                                       budget: int = DEFAULT_BUDGET,
                                       rep_seed: int = 0):
    """Estimate the probability that no cluster above the size threshold
    contains a long cycle.

    direct: per sample, sum the minimum long-cycle cuts of clusters larger
    than delta * V^(2/3) and report the fraction of samples where the sum is
    zero.  special-edge: run both exploration stages from a uniformly chosen
    representative per qualifying cluster and average
    (1-p) ** (total special-edge count); both estimators share the same mean.

    Returns (estimate, stderr, used, discarded).
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if method not in ("direct", "special-edge"):
        raise ValueError(f"unknown method {method!r}")
    values = []
    discarded = 0
    for idx, cfg in enumerate(configs):
        g = cfg.geometry
        threshold = delta * g.num_vertices ** (2.0 / 3.0)
        if method == "direct":
            sums = _cycles.cut_sums(cfg, [threshold], budget)
            if sums is None:
                discarded += 1
                continue
            values.append(1.0 if sums[0] == 0 else 0.0)
        else:
            cm = _cluster.component_map(cfg)
            rng = replica_rng(rep_seed, idx)
            exponent = 0
            bad = False
            for lab in np.flatnonzero(cm.sizes > threshold):
                verts = cm.cluster_vertices(lab)
                root = int(verts[rng.integers(len(verts))])
                res = explore_cluster(cfg, root, budget)
                if not res.valid:
                    bad = True
                    break
                exponent += len(res.special_edges)
            if bad:
                discarded += 1
                continue
            values.append((1.0 - cfg.p) ** exponent)
    n = len(values)
    if n == 0:
        return math.nan, math.nan, 0, discarded
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, stderr, n, discarded
