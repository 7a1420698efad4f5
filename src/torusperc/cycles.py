"""Long-cycle detection, winding vectors, and budgeted cycle searches.

A cycle here is an edge-self-avoiding closed walk: consecutive vertices are
adjacent, all edges are pairwise distinct, and vertices may repeat (so
figure-eight walks count).  A cycle is long when every one of its vertices has
another cycle vertex at torus sup-distance at least floor(r/4).

For floor(r/4) <= 1 every cycle is long, which admits exact linear-time
answers through bridge decomposition; the general case runs budgeted
depth-first walk enumeration with sound pruning, returning a tri-state
BudgetedAnswer whose No verdicts are exhaustive-search certificates.

This module is the only one that branches on that threshold.  The surgery
asks `edge_closes_long_cycle` for each stage-2 decision, and the cut
estimators ask `cut_sums` for per-threshold cut sums; both pick the exact
shortcut or the budgeted search themselves.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cluster as _cluster
from .lattice import TorusGeometry, bfs
from .percolation import BondConfig

DEFAULT_BUDGET = 10**6

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class MalformedCycleError(ValueError):
    """The vertex sequence is not an edge-self-avoiding closed walk."""


class BudgetExhausted(Exception):
    """Internal signal: the work counter hit the budget."""


@dataclass
class WorkBudget:
    limit: int
    spent: int = 0

    def charge(self, n: int = 1) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise BudgetExhausted


@dataclass
class BudgetedAnswer:
    """Tri-state search result.

    Yes carries a witness that re-validates; No is only returned after an
    exhaustive search certificate; Unknown means the work counter hit the
    budget.  Value-carrying queries (cut numbers) use verdict Yes for an exact
    value and Unknown otherwise, with cheap upper bounds preserved.
    """
    verdict: str
    witness: "CycleWitness | None" = None
    value: int | None = None
    work: int = 0
    budget: int = 0
    upper_bound: int | None = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == YES

    @property
    def is_no(self) -> bool:
        return self.verdict == NO

    @property
    def is_unknown(self) -> bool:
        return self.verdict == UNKNOWN


def long_cycle_threshold(g: TorusGeometry) -> int:
    return g.r // 4


def _all_cycles_long(g: TorusGeometry) -> bool:
    # Any cycle has two distinct vertices at sup-distance >= 1, so thresholds
    # 0 and 1 are met by every cycle.
    return long_cycle_threshold(g) <= 1


@dataclass
class CycleWitness:
    """An edge-self-avoiding closed walk with its winding and long-flag."""
    vertices: list[int]          # closed: vertices[0] == vertices[-1]
    edges: list[int]
    winding: tuple[int, ...]
    length: int
    long: bool

    @classmethod
    def from_vertices(cls, g: TorusGeometry, vertices) -> "CycleWitness":
        verts = [int(v) for v in vertices]
        if len(verts) < 2 or verts[0] != verts[-1]:
            raise MalformedCycleError("cycle must be a closed vertex sequence")
        edges = []
        total = np.zeros(g.d, dtype=np.int64)
        for u, v in zip(verts, verts[1:]):
            e = g.edge_between(u, v)
            if e is None:
                raise MalformedCycleError(f"vertices {u} and {v} are not adjacent")
            edges.append(e)
            total += g.displacement(u, v)
        if len(set(edges)) != len(edges):
            raise MalformedCycleError("edges repeat; cycle must be edge-self-avoiding")
        if len(edges) < 3:
            raise MalformedCycleError("a cycle needs at least 3 edges")
        if (total % g.r != 0).any():
            raise MalformedCycleError("displacements do not close up modulo r")
        winding = tuple(int(w) for w in total // g.r)
        return cls(verts, edges, winding,
                   len(edges), cycle_radius(g, verts) >= long_cycle_threshold(g))

    def validate(self, g: TorusGeometry, cfg: BondConfig | None = None) -> None:
        """Re-derive everything; raise if any stored field is inconsistent."""
        fresh = CycleWitness.from_vertices(g, self.vertices)
        if (fresh.edges != self.edges or fresh.winding != self.winding
                or fresh.length != self.length or fresh.long != self.long):
            raise MalformedCycleError("stored cycle fields are inconsistent")
        if cfg is not None:
            for e in self.edges:
                if not cfg.peek_open(e):
                    raise MalformedCycleError(f"edge {e} is not open in the config")

    def to_json(self) -> dict:
        return {"vertices": self.vertices, "winding": list(self.winding),
                "length": self.length, "long": self.long}


def cycle_radius(g: TorusGeometry, vertices) -> int:
    """min over cycle vertices u of max over cycle vertices v of sup-distance."""
    verts = sorted({int(v) for v in vertices})
    coords = g.vertex_coords(np.asarray(verts, dtype=np.int64))
    best = None
    for i in range(len(verts)):
        delta = np.abs(((coords - coords[i]) + g.r // 2) % g.r - g.r // 2)
        far = int(delta.max(axis=1).max())
        if best is None or far < best:
            best = far
            if best == 0:
                break
    return best if best is not None else 0


def is_long_cycle(g: TorusGeometry, cycle) -> bool:
    """Radius criterion for long cycles; raises on malformed input."""
    verts = cycle.vertices if isinstance(cycle, CycleWitness) else cycle
    CycleWitness.from_vertices(g, verts)      # structural validation
    return cycle_radius(g, verts) >= long_cycle_threshold(g)


def winding_vector(g: TorusGeometry, cycle) -> np.ndarray:
    """Signed wrap count per axis; zero iff the loop is contractible."""
    verts = cycle.vertices if isinstance(cycle, CycleWitness) else cycle
    return np.asarray(CycleWitness.from_vertices(g, verts).winding, dtype=np.int64)


# ---------------------------------------------------------------------------
# open subgraphs


class OpenSubgraph:
    """An explicit open edge set with its induced adjacency, for searches."""

    def __init__(self, geometry, edge_ids):
        self.geometry = geometry
        self.edge_ids = sorted(int(e) for e in edge_ids)
        adj: dict[int, list[tuple[int, int]]] = {}
        for e, (u, v) in zip(self.edge_ids, geometry.endpoints(self.edge_ids).tolist()):
            adj.setdefault(u, []).append((e, v))
            adj.setdefault(v, []).append((e, u))
        self.adj = adj
        self.vertices = sorted(adj)

    @classmethod
    def from_cluster(cls, cfg: BondConfig, cl: "_cluster.Cluster") -> "OpenSubgraph":
        sub = cls(cfg.geometry, cl.edges)
        for v in cl.vertices:
            sub.adj.setdefault(int(v), [])
        sub.vertices = sorted(sub.adj)
        return sub

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    def without(self, removed) -> "OpenSubgraph":
        removed = {int(e) for e in removed}
        return OpenSubgraph(self.geometry, [e for e in self.edge_ids if e not in removed])

    def component_count(self) -> int:
        seen: set[int] = set()
        n = 0
        for s in self.vertices:
            if s not in seen:
                n += 1
                seen.update(bfs(s, self.adj.__getitem__)[0])
        return n

    def cycle_space_dim(self) -> int:
        return self.num_edges - len(self.vertices) + self.component_count()

    def path_between(self, a: int, b: int, forbidden=()) -> list[int] | None:
        """Shortest vertex path a..b over edges not in `forbidden`, or None."""
        forbidden = set(forbidden)
        a, b = int(a), int(b)
        if a == b:
            return [a]
        if a not in self.adj:
            return None
        step = self.adj.__getitem__
        if forbidden:
            def step(v):
                return [(e, w) for e, w in self.adj[v] if e not in forbidden]
        _, parent = bfs(a, step, target=b)
        if b not in parent:
            return None
        return _root_path(parent, b)


def _bridges(sub: OpenSubgraph) -> set[int]:
    """Bridge edges of the subgraph (iterative lowlink computation)."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[int] = set()
    timer = 0
    for s in sub.vertices:
        if s in disc:
            continue
        disc[s] = low[s] = timer
        timer += 1
        stack = [(s, None, iter(sub.adj[s]))]
        while stack:
            v, pe, it = stack[-1]
            descended = False
            for eid, w in it:
                if eid == pe:
                    continue
                if w not in disc:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(sub.adj[w])))
                    descended = True
                    break
                low[v] = min(low[v], disc[w])
            if not descended:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.add(pe)
    return bridges


def _cycle_vertices_exact(sub: OpenSubgraph) -> set[int]:
    """Vertices lying on some cycle = endpoints of non-bridge edges."""
    bridges = _bridges(sub)
    out: set[int] = set()
    for e in sub.edge_ids:
        if e not in bridges:
            u, v = sub.geometry.edge_endpoints(e)
            out.add(u)
            out.add(v)
    return out


def _lift_forest(sub: OpenSubgraph, budget: WorkBudget):
    """BFS spanning forest with lift offsets relative to each component root."""
    g = sub.geometry

    def step(v):
        for pair in sub.adj[v]:
            budget.charge()
            yield pair

    pos: dict[int, np.ndarray] = {}
    parent: dict[int, tuple[int | None, int | None]] = {}
    for s in sub.vertices:
        if s in pos:
            continue
        _, tree = bfs(s, step)
        for w, (v, _) in tree.items():
            pos[w] = (np.zeros(g.d, dtype=np.int64) if v is None
                      else pos[v] + g.displacement(v, w))
        parent.update(tree)
    tree_edges = {e for _, e in parent.values() if e is not None}
    return pos, parent, tree_edges


def _chord_cycle(parent, u: int, v: int) -> list[int]:
    """Closed vertex walk through the chord {u, v} and the forest paths."""
    pu = _root_path(parent, u)
    pv = _root_path(parent, v)
    i = 0
    while i < min(len(pu), len(pv)) and pu[i] == pv[i]:
        i += 1
    # pu[i-1] is the meet vertex; run meet..u, cross to v, return v..meet
    return pu[i - 1:] + list(reversed(pv[i - 1:]))


def _wrap_cycle_witness(sub: OpenSubgraph, budget: WorkBudget) -> CycleWitness | None:
    """A nonzero-winding cycle found through the lift to Z^d, or None.

    BFS assigns each vertex a lift offset; a non-tree edge whose endpoints
    disagree about the offset closes a wrapping cycle.  Scanning every
    non-tree edge is exhaustive: winding is additive over the cycle space.
    """
    g = sub.geometry
    pos, parent, tree_edges = _lift_forest(sub, budget)
    for e in sub.edge_ids:
        if e in tree_edges:
            continue
        budget.charge()
        u, v = g.edge_endpoints(e)
        mismatch = pos[u] + g.displacement(u, v) - pos[v]
        if (mismatch != 0).any():
            return CycleWitness.from_vertices(g, _chord_cycle(parent, u, v))
    return None


def _root_path(parent, v) -> list[int]:
    path = [v]
    while parent[path[-1]][0] is not None:
        path.append(parent[path[-1]][0])
    return path[::-1]


# ---------------------------------------------------------------------------
# budgeted walk enumeration


def _closed_walk_search(sub: OpenSubgraph, x: int, budget: WorkBudget,
                        on_closure, *, min_vertex: int | None = None,
                        feasible: set[int] | None = None,
                        dist_to_x: dict[int, int] | None = None,
                        cap: list | None = None) -> bool:
    """DFS over edge-self-avoiding closed walks from x.

    Calls on_closure(vertex_sequence) at every closure; a truthy return aborts
    the search (first witness wins).  Returns True when aborted, False when
    the enumeration ran to exhaustion.  Walks may pass through x and close
    later, so composite (figure-eight) cycles are enumerated too.

    Sound pruning only: vertices outside `feasible` can never lie on a long
    cycle, and `cap`/`dist_to_x` bound the achievable closure length from
    below.  One unit of budget is charged per edge traversal.
    """
    x = int(x)
    if x not in sub.adj:
        return False
    used: set[int] = set()
    path = [x]
    frames = [(x, 0)]
    while frames:
        v, idx = frames[-1]
        adj = sub.adj[v]
        advanced = False
        while idx < len(adj):
            e, w = adj[idx]
            idx += 1
            if e in used:
                continue
            if min_vertex is not None and w < min_vertex:
                continue
            if feasible is not None and w not in feasible:
                continue
            limit = cap[0] if cap is not None else None
            if limit is not None:
                need = len(used) + 1
                back = 0 if w == x else (dist_to_x.get(w) if dist_to_x else 0)
                if back is None or need + back > limit:
                    continue
            budget.charge()
            if w == x and len(used) + 1 >= 3:
                if on_closure(path + [x]):
                    return True
                if cap is not None and cap[0] is not None and len(used) + 1 > cap[0]:
                    continue
            frames[-1] = (v, idx)
            used.add(e)
            path.append(w)
            frames.append((w, 0))
            advanced = True
            break
        if not advanced:
            frames.pop()
            path.pop()
            if frames:
                fv, fidx = frames[-1]
                used.discard(sub.adj[fv][fidx - 1][0])
    return False


def _first_long_walk(sub: OpenSubgraph, x: int, budget: WorkBudget,
                     through: int | None = None, **prune) -> CycleWitness | None:
    """The first long closed walk the search from x meets, or None; with
    `through`, only walks that traverse that edge count."""
    g = sub.geometry
    t = long_cycle_threshold(g)
    found: list[CycleWitness] = []

    def grab(verts) -> bool:
        if cycle_radius(g, verts) >= t:
            w = CycleWitness.from_vertices(g, verts)
            if through is None or through in w.edges:
                found.append(w)
                return True
        return False

    _closed_walk_search(sub, x, budget, grab, **prune)
    return found[0] if found else None


def _feasible_vertices(sub: OpenSubgraph, t: int, budget: WorkBudget) -> set[int]:
    """Vertices that see some subgraph vertex at sup-distance >= t.

    A cycle vertex must see another cycle vertex that far, and cycle vertices
    are a subset of the subgraph's, so this prune never discards a long cycle.
    """
    g = sub.geometry
    verts = np.asarray(sub.vertices, dtype=np.int64)
    if len(verts) == 0:
        return set()
    budget.charge(len(verts))
    coords = g.vertex_coords(verts)
    half = g.r // 2
    out = set()
    for i, v in enumerate(verts):
        delta = np.abs((coords - coords[i] + half) % g.r - half)
        if int(delta.max(axis=1).max()) >= t:
            out.add(int(v))
    return out


def _shortest_cycle_through(sub: OpenSubgraph, x: int,
                            budget: WorkBudget) -> CycleWitness | None:
    """Shortest edge-simple cycle through x, by per-incident-edge BFS."""
    g = sub.geometry
    best: list[int] | None = None
    for e, a in sub.adj.get(int(x), ()):
        budget.charge(len(sub.edge_ids))
        path = sub.path_between(a, int(x), forbidden=(e,))
        if path is not None and (best is None or len(path) + 1 < len(best)):
            best = [int(x)] + path
    return CycleWitness.from_vertices(g, best) if best is not None else None


# ---------------------------------------------------------------------------
# subgraph-level searches


def _subgraph_contains_long_cycle(sub: OpenSubgraph, budget: WorkBudget) -> BudgetedAnswer:
    g = sub.geometry
    t = long_cycle_threshold(g)
    budget.charge()
    if sub.cycle_space_dim() == 0:
        return BudgetedAnswer(NO, work=budget.spent, budget=budget.limit)
    if _all_cycles_long(g):
        budget.charge(sub.num_edges)
        witness = _any_cycle_witness(sub, budget)
        witness.validate(g)
        return BudgetedAnswer(YES, witness=witness, work=budget.spent, budget=budget.limit)
    feasible = _feasible_vertices(sub, t, budget)
    if not feasible:
        return BudgetedAnswer(NO, work=budget.spent, budget=budget.limit)
    wrap = _wrap_cycle_witness(sub, budget)
    if wrap is not None and wrap.long:
        return BudgetedAnswer(YES, witness=wrap, work=budget.spent, budget=budget.limit)
    for s in sorted(feasible):
        found = _first_long_walk(sub, s, budget, min_vertex=s, feasible=feasible)
        if found is not None:
            return BudgetedAnswer(YES, witness=found,
                                  work=budget.spent, budget=budget.limit)
    return BudgetedAnswer(NO, work=budget.spent, budget=budget.limit)


def _any_cycle_witness(sub: OpenSubgraph, budget: WorkBudget) -> CycleWitness:
    """Some simple cycle of a subgraph with positive cycle-space dimension."""
    _, parent, tree_edges = _lift_forest(sub, budget)
    for e in sub.edge_ids:
        if e in tree_edges:
            continue
        u, v = sub.geometry.edge_endpoints(e)
        return CycleWitness.from_vertices(sub.geometry, _chord_cycle(parent, u, v))
    raise AssertionError("cycle space positive but no chord found")


def _min_long_cycle_through(sub: OpenSubgraph, x: int, budget: WorkBudget,
                            length_cap: int | None = None) -> CycleWitness | None:
    """A minimum-length long cycle through x (None if none within the cap)."""
    g = sub.geometry
    t = long_cycle_threshold(g)
    x = int(x)
    budget.charge()
    if x not in sub.adj or not sub.adj[x]:
        return None
    if _all_cycles_long(g):
        w = _shortest_cycle_through(sub, x, budget)
        if w is None or (length_cap is not None and w.length > length_cap):
            return None
        return w
    feasible = _feasible_vertices(sub, t, budget)
    if x not in feasible:
        return None
    dist, _ = bfs(x, sub.adj.__getitem__)
    cap = [length_cap]
    best: list[CycleWitness | None] = [None]

    def note(verts) -> bool:
        if cycle_radius(g, verts) >= t:
            w = CycleWitness.from_vertices(g, verts)
            if best[0] is None or w.length < best[0].length:
                best[0] = w
                cap[0] = w.length - 1
        return False

    _closed_walk_search(sub, x, budget, note, feasible=feasible,
                        dist_to_x=dist, cap=cap)
    return best[0]


# ---------------------------------------------------------------------------
# public operations on configs


def vertex_in_long_cycle(cfg: BondConfig, x: int,
                         budget: int = DEFAULT_BUDGET) -> BudgetedAnswer:
    """Is x on an open long cycle?  Tri-state with witness and certificates."""
    g = cfg.geometry
    t = long_cycle_threshold(g)
    b = WorkBudget(budget)
    try:
        cl = _cluster.component_of(cfg, x)
        b.charge(max(1, len(cl.edges)))
        if cl.surplus == 0:
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        sub = OpenSubgraph.from_cluster(cfg, cl)
        if _all_cycles_long(g):
            b.charge(len(cl.edges))
            if int(x) in _cycle_vertices_exact(sub):
                witness = _shortest_cycle_through(sub, x, b)
                witness.validate(g, cfg)
                return BudgetedAnswer(YES, witness=witness, work=b.spent, budget=budget)
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        feasible = _feasible_vertices(sub, t, b)
        if int(x) not in feasible:
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        wrap = _wrap_cycle_witness(sub, b)
        if wrap is not None and wrap.long and int(x) in wrap.vertices:
            return BudgetedAnswer(YES, witness=wrap, work=b.spent, budget=budget)
        found = _first_long_walk(sub, x, b, feasible=feasible)
        if found is not None:
            found.validate(g, cfg)
            return BudgetedAnswer(YES, witness=found, work=b.spent, budget=budget)
        return BudgetedAnswer(NO, work=b.spent, budget=budget)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def cluster_contains_long_cycle(cfg: BondConfig, cl: "_cluster.Cluster",
                                budget: int = DEFAULT_BUDGET) -> BudgetedAnswer:
    """Does the cluster contain any open long cycle?"""
    b = WorkBudget(budget)
    try:
        sub = OpenSubgraph.from_cluster(cfg, cl)
        return _subgraph_contains_long_cycle(sub, b)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def long_cycle_vertex_count(cfg: BondConfig,
                            budget: int = DEFAULT_BUDGET) -> tuple[int, bool]:
    """Number of vertices with a definite Yes; flag set if any query was Unknown.

    The budget applies per cluster.  Clusters that are trees or whose vertex
    set is too concentrated to host a long cycle are skipped outright.
    """
    g = cfg.geometry
    t = long_cycle_threshold(g)
    count = 0
    any_unknown = False
    if cfg.read_log is None:
        cm = _cluster.component_map(cfg)
        candidates = np.flatnonzero(cm.surplus >= 1)
        clusters = (cm.cluster(int(lab)) for lab in candidates)
    else:
        clusters = (cl for cl in _instrumented_components(cfg) if cl.surplus >= 1)
    for cl in clusters:
        b = WorkBudget(budget)
        try:
            sub = OpenSubgraph.from_cluster(cfg, cl)
            if _all_cycles_long(g):
                b.charge(max(1, len(cl.edges)))
                count += len(_cycle_vertices_exact(sub))
                continue
            feasible = _feasible_vertices(sub, t, b)
            if not feasible:
                continue
            count += len(_long_cycle_vertices_general(sub, feasible, b))
        except BudgetExhausted:
            any_unknown = True
    return count, any_unknown


def _instrumented_components(cfg: BondConfig):
    """Cluster iteration that respects the read log (no bulk mask access)."""
    seen: set[int] = set()
    for v in range(cfg.geometry.num_vertices):
        if v in seen:
            continue
        cl = _cluster.component_of(cfg, v)
        seen.update(int(u) for u in cl.vertices)
        yield cl


def _long_cycle_vertices_general(sub: OpenSubgraph, feasible: set[int],
                                 b: WorkBudget) -> set[int]:
    yes: set[int] = set()
    wrap = _wrap_cycle_witness(sub, b)
    if wrap is not None and wrap.long:
        yes.update(wrap.vertices)
    for x in sorted(feasible):
        if x in yes:
            continue
        found = _first_long_walk(sub, x, b, feasible=feasible)
        if found is not None:
            yes.update(found.vertices)
    return yes


def longest_long_fundamental_cycle(cfg: BondConfig, budget: int = DEFAULT_BUDGET) -> int:
    """Length of the longest long cycle among spanning-forest chord cycles.

    A cheap witness generator: the true maximum cycle length is at least this.
    The budget applies per cluster, and a cluster that exhausts it is skipped.
    """
    g = cfg.geometry
    t = long_cycle_threshold(g)
    cm = _cluster.component_map(cfg)
    best = 0
    for lab in np.flatnonzero(cm.surplus >= 1):
        sub = OpenSubgraph(g, cm.cluster_edges(int(lab)))
        b = WorkBudget(budget)
        try:
            _, parent, tree_edges = _lift_forest(sub, b)
            for e in sub.edge_ids:
                if e in tree_edges:
                    continue
                u, v = g.edge_endpoints(e)
                verts = _chord_cycle(parent, u, v)
                length = len(verts) - 1
                if length > best and cycle_radius(g, verts) >= t:
                    best = length
        except BudgetExhausted:
            continue
    return best


def shortest_long_cycle_through(cfg: BondConfig, x: int, k: int,
                                budget: int = DEFAULT_BUDGET) -> BudgetedAnswer:
    """Decide whether x lies on an open long cycle of length at most k."""
    g = cfg.geometry
    t = long_cycle_threshold(g)
    b = WorkBudget(budget)
    step = g.L if g.model == "spread-out" else 1
    min_len = max(3, 2 * -(-t // step))    # must reach distance t and return
    if k < min_len:
        return BudgetedAnswer(NO, work=1, budget=budget)
    try:
        cl = _cluster.component_of(cfg, x)
        b.charge(max(1, len(cl.edges)))
        if cl.surplus == 0:
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        sub = OpenSubgraph.from_cluster(cfg, cl)
        witness = _min_long_cycle_through(sub, x, b, length_cap=int(k))
        if witness is None:
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        return BudgetedAnswer(YES, witness=witness, value=witness.length,
                              work=b.spent, budget=budget)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def min_long_cycle_cut(cfg: BondConfig, cl: "_cluster.Cluster",
                       budget: int = DEFAULT_BUDGET,
                       special_edge_count: int | None = None) -> BudgetedAnswer:
    """Smallest number of edges whose removal leaves the cluster long-cycle-free.

    Exact value rides on verdict Yes.  Bridges never help, so candidates are
    restricted to edges on some cycle; the cycle-space dimension (and, when
    supplied, the surgery module's special-edge count) caps the answer.
    """
    g = cfg.geometry
    b = WorkBudget(budget)
    sub = OpenSubgraph.from_cluster(cfg, cl)
    s = sub.cycle_space_dim()
    ub = s if special_edge_count is None else min(s, special_edge_count)
    try:
        if s == 0:
            return BudgetedAnswer(YES, value=0, upper_bound=ub,
                                  work=b.spent, budget=budget)
        if _all_cycles_long(g):
            # every cycle is long, so the cut must break all cycles: exactly
            # the cycle-space dimension (remove the chords of a spanning forest)
            b.charge(sub.num_edges)
            return BudgetedAnswer(YES, value=s, upper_bound=ub,
                                  work=b.spent, budget=budget)
        first = _subgraph_contains_long_cycle(sub, b)
        if first.is_no:
            return BudgetedAnswer(YES, value=0, upper_bound=ub,
                                  work=b.spent, budget=budget)
        bridges = _bridges(sub)
        candidates = [e for e in sub.edge_ids if e not in bridges]
        for k in range(1, ub + 1):
            for subset in itertools.combinations(candidates, k):
                b.charge()
                check = _subgraph_contains_long_cycle(sub.without(subset), b)
                if check.is_no:
                    return BudgetedAnswer(YES, value=k, upper_bound=ub,
                                          work=b.spent, budget=budget)
        raise AssertionError("removing all non-bridge edges must kill every cycle")
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, upper_bound=ub, work=b.spent, budget=budget)


def cut_sums(cfg: BondConfig, thresholds,
             budget: int = DEFAULT_BUDGET) -> list[int] | None:
    """Per size threshold t, the summed minimum long-cycle cuts of the
    clusters with more than t vertices; None if any of those cuts is Unknown.

    When every cycle is long a cluster's cut is its surplus, summed straight
    from the component map.  Otherwise every cluster with a cycle above the
    smallest threshold gets one budgeted `min_long_cycle_cut`.
    """
    cm = _cluster.component_map(cfg)
    if _all_cycles_long(cfg.geometry):
        cuts = cm.surplus
    else:
        cuts = np.zeros_like(cm.surplus)
        low = min(thresholds, default=math.inf)
        for lab in np.flatnonzero((cm.sizes > low) & (cm.surplus > 0)):
            ans = min_long_cycle_cut(cfg, cm.cluster(int(lab)), budget)
            if ans.is_unknown:
                return None
            cuts[lab] = ans.value
    return [int(cuts[cm.sizes > t].sum()) for t in thresholds]


def edge_closes_long_cycle(g: TorusGeometry, graph_edges, e: int,
                           budget: int = DEFAULT_BUDGET,
                           witness: bool = True) -> BudgetedAnswer:
    """Does adding edge e to a long-cycle-free open graph create a long cycle?

    Every such cycle traverses e.  When every cycle is long the graph is a
    forest, so e closes one exactly when a forest path joins its endpoints;
    the certificate is that path closed by e, built only with `witness`.
    Otherwise a budgeted walk search over the graph plus e runs from one
    endpoint of e, only closures through e count, and a Yes always carries
    its witness.
    """
    b = WorkBudget(budget)
    u, v = g.edge_endpoints(e)
    try:
        if _all_cycles_long(g):
            path = OpenSubgraph(g, graph_edges).path_between(u, v)
            if path is None:
                return BudgetedAnswer(NO, work=b.spent, budget=budget)
            b.charge(len(path))
            cert = CycleWitness.from_vertices(g, path + [u]) if witness else None
            return BudgetedAnswer(YES, witness=cert, work=b.spent, budget=budget)
        sub = OpenSubgraph(g, [*graph_edges, e])
        feasible = _feasible_vertices(sub, long_cycle_threshold(g), b)
        found = None
        if u in feasible and v in feasible:
            found = _wrap_cycle_witness(sub, b)
            if found is None or not (found.long and e in found.edges):
                found = _first_long_walk(sub, u, b, through=e, feasible=feasible)
        return BudgetedAnswer(NO if found is None else YES, witness=found,
                              work=b.spent, budget=budget)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def long_cycle_interior(cfg: BondConfig, root: int,
                        budget: int = DEFAULT_BUDGET) -> tuple[set[int], bool]:
    """Cluster vertices z with edge-disjoint witnesses: a root-z path and a
    long cycle through z.

    Returns a lower approximation and an exactness flag; the flag is True only
    when every remaining vertex carries an exhaustive non-existence
    certificate.
    """
    g = cfg.geometry
    t = long_cycle_threshold(g)
    b = WorkBudget(budget)
    members: set[int] = set()
    try:
        cl = _cluster.component_of(cfg, root)
        b.charge(max(1, len(cl.edges)))
        if cl.surplus == 0:
            return set(), True
        sub = OpenSubgraph.from_cluster(cfg, cl)
        feasible = (set(sub.vertices) if _all_cycles_long(g)
                    else _feasible_vertices(sub, t, b))
        for z in [int(v) for v in cl.vertices]:
            if z not in feasible:
                continue
            hit: list[bool] = []

            def probe(verts, _z=z, _hit=hit) -> bool:
                if cycle_radius(g, verts) < t:
                    return False
                w = CycleWitness.from_vertices(g, verts)
                if int(root) == _z:
                    _hit.append(True)
                    return True
                if sub.path_between(int(root), _z, forbidden=w.edges) is not None:
                    _hit.append(True)
                    return True
                return False

            _closed_walk_search(sub, z, b, probe)
            if hit:
                members.add(z)
        return members, True
    except BudgetExhausted:
        return members, False


def has_wrapping_cluster(cfg: BondConfig) -> dict[int, bool]:
    """Per-cluster wrap flags keyed by cluster root (smallest vertex id).

    A cluster wraps iff its lift to Z^d connects two distinct r-equivalent
    copies of a vertex, equivalently iff it contains a nonzero-winding cycle.
    Meant for desk-scale configs; every cluster, including singletons, gets a
    row.
    """
    cm = _cluster.component_map(cfg)
    out: dict[int, bool] = {}
    b = WorkBudget(max(DEFAULT_BUDGET, 100 * cfg.geometry.num_edges))
    for lab in range(cm.num_clusters):
        root = int(cm.roots[lab])
        if cm.surplus[lab] < 1:
            out[root] = False
            continue
        sub = OpenSubgraph(cfg.geometry, cm.cluster_edges(lab))
        out[root] = _wrap_cycle_witness(sub, b) is not None
    return out
