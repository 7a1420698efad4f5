"""Long-cycle detection, winding vectors, and budgeted cycle searches.

A cycle here is an edge-self-avoiding closed walk: consecutive vertices are
adjacent, all edges are pairwise distinct, and vertices may repeat (so
figure-eight walks count).  A cycle is long when every one of its vertices has
another cycle vertex at torus sup-distance at least floor(r/4).

A cycle uses no bridge and is connected, so it lies inside one
2-edge-connected block of its cluster.  Every search runs on one block.  The
blocks of one subgraph come from the chord cycles of one BFS spanning forest
(`_blocks`).  The vertex count splits every cluster of a configuration at
once.  A cycle uses no vertex of degree one, so it first peels the open edges
down to their 2-core (`_two_core`), and reads no component map; then
`_edge_blocks` gives the core's blocks and components, the same split in a
few numpy/scipy passes over an edge list, and `_group_reach` the reach of
every block in one array pass.  Those passes cost a fixed millisecond or so
per call, more than `_blocks` takes on one surgery graph of a hundred-odd
vertices, and several times less than per-cluster subgraphs and `_blocks`
take on a whole configuration at d=7 (figures in BENCH_12.json).
The vertex count, the vertex query, containment, the surgery's edge
decisions and the minimum cut (the sum of the blocks' cuts) find their
cycles through `_long_cycle_in_block`; the length-bounded query searches x's
block, and the interior set each block from the block vertex nearest the
root.  Every walk search reads one generator, `_closed_walks`, in a plain loop
over the closed walks it yields, and stops it by leaving the loop.  For
floor(r/4) <= 1 every cycle is long, so the vertices on long cycles are
exactly the block vertices.  Otherwise, with t = floor(r/4), a block vertex
whose reach inside its block is below t is on no long cycle, and one whose
reach is at least 2t - 1 is on one: two edge-disjoint paths join x to a
block vertex y at distance >= 2t - 1 (Menger), and every vertex w of the
closed walk they form has d(w, x) + d(w, y) >= 2t - 1, so, distances being
integers, w is at distance >= t from x or from y.  The rest runs budgeted
depth-first walk enumeration inside the block with sound pruning, returning a
tri-state BudgetedAnswer whose No verdicts are exhaustive-search
certificates.

This module is the only one that branches on that threshold.  The surgery
asks `edge_closes_long_cycle` for each stage-2 decision, passing the one
`OpenSubgraph` it grows in place with `OpenSubgraph.add`, and the cut
estimators ask `cut_sums` for per-threshold cut sums; both pick the exact
shortcut or the budgeted search themselves.
"""
from __future__ import annotations

import itertools
import math
from bisect import insort
from dataclasses import dataclass
from operator import add

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
        total = (0,) * g.d
        for u, v in zip(verts, verts[1:]):
            e = g.edge_between(u, v)
            if e is None:
                raise MalformedCycleError(f"vertices {u} and {v} are not adjacent")
            edges.append(e)
            total = tuple(map(add, total, g.edge_offset(e, u)))
        if len(set(edges)) != len(edges):
            raise MalformedCycleError("edges repeat; cycle must be edge-self-avoiding")
        if len(edges) < 3:
            raise MalformedCycleError("a cycle needs at least 3 edges")
        if any(c % g.r for c in total):
            raise MalformedCycleError("displacements do not close up modulo r")
        winding = tuple(c // g.r for c in total)
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


def _sup_reach(g: TorusGeometry, verts) -> list[int]:
    """Per vertex, the largest torus sup-distance to any vertex of the set.

    The sup-distance is a max over axes, so per axis only the at most r
    occupied coordinates matter: each one's circular distance to the farthest
    occupied one (found by scanning inward from its antipode) is tabulated
    once, then each vertex takes the max of its d table entries.  Coordinates
    are read as mixed-radix digits.
    """
    r = g.r
    verts = list(verts)
    per_axis = []
    for step in (r ** a for a in range(g.d)):
        coords = [v // step % r for v in verts]
        occupied = set(coords)
        far = {c: next(k for k in range(r // 2, -1, -1)
                       if (c + k) % r in occupied or (c - k) % r in occupied)
               for c in occupied}
        per_axis.append(map(far.__getitem__, coords))
    return [max(row) for row in zip(*per_axis)]


def _group_reach(g: TorusGeometry, group: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Per entry, the largest torus sup-distance from its vertex to any vertex
    of its group: `_sup_reach` of every group at once, in one array pass.

    Per group and axis, an occupancy mask over the r coordinates (mixed-radix
    digits) times the r x r table of circular distances gives each
    coordinate's distance to the farthest occupied one.
    """
    r, d = g.r, g.d
    c = np.arange(r)
    gap = np.abs(c[:, None] - c)
    dist = np.minimum(gap, r - gap).astype(np.min_scalar_type(r // 2))
    # one cell per (group, axis, coordinate)
    cells = (group[:, None] * d + np.arange(d)) * r + verts[:, None] // r ** np.arange(d) % r
    occupied = np.zeros((int(group.max(initial=-1)) + 1) * d * r, dtype=bool)
    occupied[cells] = True
    far = (occupied.reshape(-1, 1, r) * dist).max(axis=-1)
    return far.ravel()[cells].max(axis=1)


def cycle_radius(g: TorusGeometry, vertices) -> int:
    """min over cycle vertices u of max over cycle vertices v of sup-distance."""
    return min(_sup_reach(g, {int(v) for v in vertices}), default=0)


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

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    def add(self, e: int) -> None:
        """Insert a new edge in place, in the order a fresh build would give."""
        e = int(e)
        u, v = self.geometry.edge_endpoints(e)
        insort(self.edge_ids, e)
        for a, b in ((u, v), (v, u)):
            if a not in self.adj:
                self.adj[a] = []
                insort(self.vertices, a)
            insort(self.adj[a], (e, b))

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


def _blocks(sub: OpenSubgraph) -> list[tuple[set[int], list[int]]]:
    """Each 2-edge-connected block with an edge, as (vertex set, sorted edges),
    in the order of their smallest edges.

    The chord cycles of one BFS spanning forest span the cycle space, so an
    edge lies on a cycle exactly when it is a chord or lies on a chord's
    forest path, and the blocks are the chord cycles merged where they share
    a vertex.  Each chord lifts the deeper of its two ends into its parent
    until they meet, in a union-find whose sets are forest subtrees named by
    their top vertex, so each forest edge is lifted once.  An
    edge-self-avoiding closed walk uses no bridge and is connected, so every
    cycle lies inside one block, and every block vertex lies on some cycle.
    """
    depth: dict[int, int] = {}
    parent: dict[int, tuple[int | None, int | None]] = {}
    for s in sub.vertices:
        if s not in depth:
            dist, tree = bfs(s, sub.adj.__getitem__)
            depth.update(dist)
            parent.update(tree)
    up: dict[int, int] = {}         # lifted vertex -> a higher vertex of its set

    def top(v: int) -> int:
        t = v
        while t in up:
            t = up[t]
        while v != t:
            up[v], v = t, up[v]
        return t

    tree_edges = {e for _, e in parent.values()}
    chords = [e for e in sub.edge_ids if e not in tree_edges]
    ends = sub.geometry.endpoints(chords).tolist()
    for u, v in ends:
        u, v = top(u), top(v)
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            up[u] = parent[u][0]
            u = top(u)
    blocks: dict[int, tuple[set[int], list[int]]] = {}
    for v in list(up):
        t = top(v)
        verts, edges = blocks.setdefault(t, ({t}, []))
        verts.add(v)
        edges.append(parent[v][1])
    for e, (u, _) in zip(chords, ends):
        blocks[top(u)][1].append(e)
    return sorted(((verts, sorted(edges)) for verts, edges in blocks.values()),
                  key=lambda block: block[1][0])


def _two_core(uv: np.ndarray, num_vertices: int) -> np.ndarray:
    """The rows of an (E, 2) endpoint array that lie in its 2-core, ascending.

    A cycle uses no vertex of degree one, so every cycle lies in the 2-core,
    the largest subgraph of minimum degree two.  Each round deletes, one leaf
    layer at a time, every row with an endpoint of degree one, until none is
    left (the core of Batagelj and Zaversnik 2003, peeled in layers).
    """
    deg = np.bincount(uv.ravel(), minlength=num_vertices)
    # the narrowest degree type gathers fastest; the step has the same type,
    # which keeps `subtract.at` on its fast path
    deg = deg.astype(np.min_scalar_type(deg.max(initial=0)))
    one = deg.dtype.type(1)
    rows = np.arange(len(uv))
    u, v = uv[:, 0], uv[:, 1]
    while len(rows):
        leaf = (deg[u] == 1) | (deg[v] == 1)
        gone = np.flatnonzero(leaf)
        if not len(gone):
            break
        np.subtract.at(deg, u[gone], one)
        np.subtract.at(deg, v[gone], one)
        keep = np.flatnonzero(~leaf)
        rows, u, v = rows[keep], u[keep], v[keep]
    return rows


def _csr(indices: np.ndarray, indptr: np.ndarray, n: int):
    """An n x n CSR adjacency matrix in the form csgraph reads without a copy:
    float64 data and int32 indices."""
    from scipy import sparse
    return sparse.csr_matrix((np.ones(len(indices)), indices.astype(np.int32),
                              indptr.astype(np.int32)), shape=(n, n))


def _edge_blocks(uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of an (E, 2) endpoint array, its 2-edge-connected block (-1 for
    a bridge) and its connected component; blocks are numbered in the order of
    their first rows, components in the order of their smallest vertices.

    The array form of `_blocks`, for a whole configuration at once.  A forest
    edge is a bridge exactly when no chord's forest path covers it (Tarjan
    1974).  The forest is one BFS from a virtual root joined to the smallest
    vertex of each component; all chords lift together, one level per step,
    to their lowest common ancestors, marking the forest edges they cover.
    The covered forest edges join each block into one subtree (a spanning
    tree less the bridges spans each 2-edge-connected component), so pointer
    jumping up them names every block by its top vertex.
    """
    from scipy.sparse import csgraph

    rows = len(uv)
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    verts, ends = np.unique(uv, return_inverse=True)
    n = len(verts)
    a, b = ends.reshape(rows, 2).T
    src = np.concatenate([a, b])
    by_src = np.argsort(src, kind="stable")
    indices = np.concatenate([b, a])[by_src]
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:n + 1])
    # verts ascend, so each component's first compact id is its smallest vertex;
    # the symmetric matrix's strong components are its components
    _, comp = csgraph.connected_components(_csr(indices, indptr[:n + 1], n),
                                           connection="strong")
    tops = np.unique(comp, return_index=True)[1]
    comp_rank = np.empty_like(tops)
    comp_rank[np.argsort(tops)] = np.arange(len(tops))
    indptr[n + 1] = 2 * rows + len(tops)
    order, parent = csgraph.breadth_first_order(
        _csr(np.concatenate([indices, tops]), indptr, n + 1), n)
    # BFS order is level order and the places of the parents never decrease,
    # so each level ends where the parents leave the level above
    place = np.empty(n + 1, dtype=np.int64)
    place[order] = np.arange(n + 1)
    above = place[parent[order[1:]]]
    cuts = [0, 1]
    while cuts[-1] <= n:
        cuts.append(1 + int(np.searchsorted(above, cuts[-1])))
    depth = np.empty_like(place)
    depth[order] = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    # each vertex's forest edge is its first row to its parent
    child = np.where(parent[b] == a, b, np.where(parent[a] == b, a, -1))
    first = np.unique(child, return_index=True)[1]
    is_tree = np.zeros(rows, dtype=bool)
    is_tree[first[child[first] >= 0]] = True
    # the chords lift their ends to their lowest common ancestors, marking
    # each forest edge they cross as covered
    covered = np.zeros(n + 1, dtype=bool)
    x, y = a[~is_tree], b[~is_tree]
    deeper = depth[x] < depth[y]
    x, y = np.where(deeper, y, x), np.where(deeper, x, y)
    live = np.flatnonzero(depth[x] > depth[y])
    while len(live):
        lifted = x[live]
        covered[lifted] = True
        x[live] = parent[lifted]
        live = live[depth[x[live]] > depth[y[live]]]
    live = np.flatnonzero(x != y)
    while len(live):
        xs, ys = x[live], y[live]
        covered[xs] = covered[ys] = True
        x[live], y[live] = parent[xs], parent[ys]
        live = live[x[live] != y[live]]
    keep = ~is_tree
    keep[is_tree] = covered[child[is_tree]]
    up = np.where(covered, parent, np.arange(n + 1))
    while True:
        higher = up[up]
        if np.array_equal(higher, up):
            break
        up = higher
    _, first, inverse = np.unique(up[a[keep]], return_index=True, return_inverse=True)
    block_rank = np.empty(len(first), dtype=np.int64)
    block_rank[np.argsort(first)] = np.arange(len(first))
    label = np.full(rows, -1, dtype=np.int64)
    label[keep] = block_rank[inverse]
    return label, comp_rank[comp[a]]


def _lift_forest(sub: OpenSubgraph, budget: WorkBudget):
    """BFS spanning forest with lift offsets relative to each component root."""
    g = sub.geometry

    def step(v):
        for pair in sub.adj[v]:
            budget.charge()
            yield pair

    pos: dict[int, tuple[int, ...]] = {}
    parent: dict[int, tuple[int | None, int | None]] = {}
    for s in sub.vertices:
        if s in pos:
            continue
        _, tree = bfs(s, step)
        for w, (v, e) in tree.items():
            pos[w] = ((0,) * g.d if v is None
                      else tuple(map(add, pos[v], g.edge_offset(e, v))))
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
        if tuple(map(add, pos[u], g.edge_offset(e, u))) != pos[v]:
            return CycleWitness.from_vertices(g, _chord_cycle(parent, u, v))
    return None


def _root_path(parent, v) -> list[int]:
    path = [v]
    while parent[path[-1]][0] is not None:
        path.append(parent[path[-1]][0])
    return path[::-1]


# ---------------------------------------------------------------------------
# budgeted walk enumeration


def _closed_walks(sub: OpenSubgraph, x: int, budget: WorkBudget, *,
                  min_vertex: int | None = None, feasible: set[int] | None = None,
                  dist_to_x: dict[int, int] | None = None, cap: list | None = None):
    """DFS over edge-self-avoiding closed walks from x, yielding each closed
    vertex sequence as it closes; the caller stops the search by leaving its
    loop.  Walks may pass through x and close later, so composite
    (figure-eight) cycles are enumerated too.

    Sound pruning only: vertices outside `feasible` can never lie on a long
    cycle, and `cap`/`dist_to_x` bound the achievable closure length from
    below.  `cap[0]` may be lowered between closures; the next step reads it.
    One unit of budget is charged per edge traversal.
    """
    x = int(x)
    if x not in sub.adj:
        return
    used: set[int] = set()
    path = [x]
    frames = [(x, 0)]
    while frames:
        v, idx = frames[-1]
        adj = sub.adj[v]
        while idx < len(adj):
            e, w = adj[idx]
            idx += 1
            if e in used:
                continue
            if min_vertex is not None and w < min_vertex:
                continue
            if feasible is not None and w not in feasible:
                continue
            if cap is not None and cap[0] is not None:
                back = 0 if w == x else (dist_to_x.get(w) if dist_to_x else 0)
                if back is None or len(used) + 1 + back > cap[0]:
                    continue
            budget.charge()
            if w == x and len(used) + 1 >= 3:
                yield path + [x]
            frames[-1] = (v, idx)
            used.add(e)
            path.append(w)
            frames.append((w, 0))
            break
        else:
            frames.pop()
            path.pop()
            if frames:
                fv, fidx = frames[-1]
                used.discard(sub.adj[fv][fidx - 1][0])


def _feasible_vertices(sub: OpenSubgraph, t: int, budget: WorkBudget) -> set[int]:
    """Vertices that see some subgraph vertex at sup-distance >= t.

    A cycle vertex must see another cycle vertex that far, and cycle vertices
    are a subset of the subgraph's, so this prune never discards a long cycle.
    """
    verts = sub.vertices
    if not verts:
        return set()
    budget.charge(len(verts))
    return {v for v, far in zip(verts, _sup_reach(sub.geometry, verts)) if far >= t}


def _shortest_cycle_through(sub: OpenSubgraph, x: int, budget: WorkBudget,
                            through: int | None = None) -> CycleWitness | None:
    """Shortest edge-simple cycle through x, by per-incident-edge BFS; with
    `through`, only cycles that leave x along that edge count."""
    g = sub.geometry
    best: list[int] | None = None
    for e, a in sub.adj.get(int(x), ()):
        if through is not None and e != through:
            continue
        budget.charge(len(sub.edge_ids))
        path = sub.path_between(a, int(x), forbidden=(e,))
        if path is not None and (best is None or len(path) + 1 < len(best)):
            best = [int(x)] + path
    return CycleWitness.from_vertices(g, best) if best is not None else None


# ---------------------------------------------------------------------------
# subgraph-level searches


def _block_prune(block: OpenSubgraph, budget: WorkBudget, ends=(),
                 feasible: set[int] | None = None):
    """A block's feasible vertices and its lift's wrapping cycle (or None), or
    None when no long cycle of the block can pass through all of `ends`.

    Both depend on the block alone, so a caller that searches from many of
    its vertices computes them once and passes them to `_long_cycle_in_block`.
    """
    if feasible is None:
        feasible = _feasible_vertices(block, long_cycle_threshold(block.geometry), budget)
    if not feasible or not feasible.issuperset(ends):
        return None
    return feasible, _wrap_cycle_witness(block, budget)


def _long_cycle_in_block(block: OpenSubgraph, budget: WorkBudget,
                         x: int | None = None, e: int | None = None,
                         prune=None) -> CycleWitness | None:
    """A long cycle of one block, through vertex x or edge e when one is given;
    None once the search has ruled one out.

    Every query for one long cycle runs here, so this holds the one threshold
    shortcut for that question: when every cycle is long, the answer is the
    shortest cycle through x, through e, or through the block's first vertex.
    Otherwise the feasibility prune runs first (or comes from `_block_prune`
    as `prune`), then the lift's wrapping cycle is tried, then the walk
    search: from x, from an endpoint of e, or from each feasible vertex in
    turn over the vertices above it, so that every cycle is met from its
    smallest vertex.
    """
    g = block.geometry
    if e is not None:
        ends = list(g.edge_endpoints(e))
    else:
        ends = [] if x is None else [x]
    if _all_cycles_long(g):
        start = ends[0] if ends else block.vertices[0]
        return _shortest_cycle_through(block, start, budget, through=e)
    if prune is None:
        prune = _block_prune(block, budget, ends)
    if prune is None or not prune[0].issuperset(ends):
        return None
    feasible, wrap = prune
    if (wrap is not None and wrap.long and (x is None or x in wrap.vertices)
            and (e is None or e in wrap.edges)):
        return wrap
    t = long_cycle_threshold(g)
    for s in ends[:1] or sorted(feasible):
        for walk in _closed_walks(block, s, budget, feasible=feasible,
                                  min_vertex=None if ends else s):
            if cycle_radius(g, walk) >= t:
                found = CycleWitness.from_vertices(g, walk)
                if e is None or e in found.edges:
                    return found
    return None


def _subgraph_contains_long_cycle(sub: OpenSubgraph, budget: WorkBudget) -> BudgetedAnswer:
    """Does the subgraph hold a long cycle?  Its blocks are searched in turn."""
    budget.charge(max(1, sub.num_edges))
    for _, edges in _blocks(sub):
        found = _long_cycle_in_block(OpenSubgraph(sub.geometry, edges), budget)
        if found is not None:
            return BudgetedAnswer(YES, witness=found, work=budget.spent, budget=budget.limit)
    return BudgetedAnswer(NO, work=budget.spent, budget=budget.limit)


def _min_long_cycle_through(block: OpenSubgraph, x: int, budget: WorkBudget,
                            length_cap: int | None = None) -> CycleWitness | None:
    """A minimum-length long cycle through x in x's block (None if none within
    the cap)."""
    g = block.geometry
    t = long_cycle_threshold(g)
    budget.charge()
    if _all_cycles_long(g):
        w = _shortest_cycle_through(block, x, budget)
        if w is None or (length_cap is not None and w.length > length_cap):
            return None
        return w
    feasible = _feasible_vertices(block, t, budget)
    if x not in feasible:
        return None
    dist, _ = bfs(x, block.adj.__getitem__)
    cap = [length_cap]
    best = None
    # each long closure lowers the cap below its length, so the last is shortest
    for walk in _closed_walks(block, x, budget, feasible=feasible,
                              dist_to_x=dist, cap=cap):
        if cycle_radius(g, walk) >= t:
            best = CycleWitness.from_vertices(g, walk)
            cap[0] = best.length - 1
    return best


# ---------------------------------------------------------------------------
# public operations on configs


def _block_of(cfg: BondConfig, x: int, budget: WorkBudget) -> OpenSubgraph | None:
    """The 2-edge-connected block that holds x, or None when x is on no cycle.

    Every cycle through x lies in that block, so the queries about cycles
    through x search only it.
    """
    cl = _cluster.component_of(cfg, x)
    budget.charge(max(1, len(cl.edges)))
    if cl.surplus == 0:
        return None
    budget.charge(len(cl.edges))
    edges = next((edges for verts, edges in _blocks(OpenSubgraph(cfg.geometry, cl.edges))
                  if x in verts), None)
    return None if edges is None else OpenSubgraph(cfg.geometry, edges)


def vertex_in_long_cycle(cfg: BondConfig, x: int,
                         budget: int = DEFAULT_BUDGET) -> BudgetedAnswer:
    """Is x on an open long cycle?  Tri-state with witness and certificates;
    only x's block is searched."""
    g = cfg.geometry
    b = WorkBudget(budget)
    x = int(x)
    try:
        block = _block_of(cfg, x, b)
        found = None if block is None else _long_cycle_in_block(block, b, x=x)
        if found is None:
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        found.validate(g, cfg)
        return BudgetedAnswer(YES, witness=found, work=b.spent, budget=budget)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def cluster_contains_long_cycle(cfg: BondConfig, cl: "_cluster.Cluster",
                                budget: int = DEFAULT_BUDGET) -> BudgetedAnswer:
    """Does the cluster contain any open long cycle?"""
    b = WorkBudget(budget)
    try:
        return _subgraph_contains_long_cycle(OpenSubgraph(cfg.geometry, cl.edges), b)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def long_cycle_vertex_count(cfg: BondConfig,
                            budget: int = DEFAULT_BUDGET) -> tuple[int, bool]:
    """Number of vertices with a definite Yes; flag set if any query was Unknown.

    Every cycle lies in the 2-core, so the open edges are peeled down to it
    (`_two_core`), and one `_edge_blocks` call splits the core into its
    2-edge-connected blocks and its components.  A core component is the
    core of one cluster with a cycle.  The budget applies per core component,
    which is first charged its edge count, and each of its blocks is decided
    on its own from the reach of its vertices inside the block, with
    t = floor(r/4); `_group_reach` gives every block's reach in one pass.
    When every cycle is long, every block vertex counts.  Otherwise a vertex
    of reach below t is on no long cycle, one of reach at least 2t - 1 is on
    one, and only the vertices between are searched, each one not yet met on
    a witness, with the block's prune and wrapping cycle computed once.
    """
    g = cfg.geometry
    t = long_cycle_threshold(g)
    V = g.num_vertices
    eids = np.flatnonzero(cfg.open_mask())
    uv = g.endpoints(eids)
    core = _two_core(uv, V)
    eids, uv = eids[core], uv[core]
    blocks, comps = _edge_blocks(uv)
    edge_counts = np.bincount(comps)
    over = edge_counts > budget                     # the first charge fails
    unknown = bool(over.any())
    on = blocks >= 0
    if _all_cycles_long(g):
        return len(np.unique(uv[on & ~over[comps]])), unknown
    blocks, eids, uv, comps = blocks[on], eids[on], uv[on], comps[on]
    num = int(blocks.max(initial=-1)) + 1
    # each block's edges and vertices, sorted, as slices of two flat arrays
    eids = eids[np.argsort(blocks, kind="stable")]
    edge_ptr = np.concatenate([[0], np.cumsum(np.bincount(blocks, minlength=num))]).tolist()
    group, verts = np.divmod(np.unique(np.repeat(blocks, 2) * V + uv.ravel()), V)
    vert_ptr = np.searchsorted(group, np.arange(num + 1)).tolist()
    reach = _group_reach(g, group, verts)
    sure = np.bincount(group[reach >= 2 * t - 1], minlength=num).tolist()
    todo = np.bincount(group[(reach >= t) & (reach < 2 * t - 1)], minlength=num).tolist()
    home = np.empty(num, dtype=np.int64)
    home[blocks] = comps
    count = 0
    for lab, ks in itertools.groupby(np.argsort(home, kind="stable").tolist(),
                                     key=home.__getitem__):
        b = WorkBudget(budget)
        try:
            b.charge(int(edge_counts[lab]))
            for k in ks:
                lo, hi = vert_ptr[k], vert_ptr[k + 1]
                b.charge(hi - lo)
                if not todo[k]:
                    count += sure[k]
                    continue
                block_verts = verts[lo:hi].tolist()
                far = reach[lo:hi].tolist()
                yes = {x for x, f in zip(block_verts, far) if f >= 2 * t - 1}
                feasible = {x for x, f in zip(block_verts, far) if f >= t}
                block = OpenSubgraph(g, eids[edge_ptr[k]:edge_ptr[k + 1]])
                prune = _block_prune(block, b, feasible=feasible)
                for x in sorted(feasible - yes):
                    if x not in yes:
                        found = _long_cycle_in_block(block, b, x=x, prune=prune)
                        if found is not None:
                            yes.update(found.vertices)
                count += len(yes)
        except BudgetExhausted:
            unknown = True
    return count, unknown


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
        x = int(x)
        block = _block_of(cfg, x, b)
        witness = None if block is None else _min_long_cycle_through(
            block, x, b, length_cap=int(k))
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

    Exact value rides on verdict Yes.  A long cycle lies in one
    2-edge-connected block, so the cut is the sum of the blocks' cuts, from one
    split of the cluster.  The cycle-space dimension (and, when supplied, the
    surgery module's special-edge count) caps the answer.
    """
    g = cfg.geometry
    b = WorkBudget(budget)
    s = int(cl.surplus)
    ub = s if special_edge_count is None else min(s, special_edge_count)
    try:
        b.charge(len(cl.edges))
        if _all_cycles_long(g):
            # every cycle is long, so the cut must break all cycles: exactly
            # the cycle-space dimension (remove the chords of a spanning forest)
            value = s
        else:
            sub = OpenSubgraph(g, cl.edges)
            value = sum(_block_cut(OpenSubgraph(g, edges), b) for _, edges in _blocks(sub))
        return BudgetedAnswer(YES, value=value, upper_bound=ub, work=b.spent, budget=budget)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, upper_bound=ub, work=b.spent, budget=budget)


def _block_cut(block: OpenSubgraph, budget: WorkBudget) -> int:
    """Fewest edges of a block whose removal leaves it no long cycle, by trying
    its edge subsets in order of size; all its edges always suffice."""
    for k in itertools.count():
        for subset in itertools.combinations(block.edge_ids, k):
            budget.charge()
            if _long_cycle_in_block(block.without(subset), budget) is None:
                return k


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


def edge_closes_long_cycle(graph: OpenSubgraph, e: int,
                           budget: int = DEFAULT_BUDGET,
                           witness: bool = True) -> BudgetedAnswer:
    """Does adding edge e to a long-cycle-free open graph create a long cycle?

    Every such cycle traverses e, so there is none unless a path of the graph
    joins e's endpoints, and it lies in the block of the graph plus e that
    holds e.  When every cycle is long the graph is a forest, so that path
    closed by e is the certificate, built only with `witness`.  Otherwise only
    that block is searched, and a Yes always carries its witness.  The graph
    itself is left unchanged.
    """
    g = graph.geometry
    b = WorkBudget(budget)
    u, v = g.edge_endpoints(e)
    try:
        path = graph.path_between(u, v)
        if path is None:
            return BudgetedAnswer(NO, work=b.spent, budget=budget)
        if _all_cycles_long(g):
            b.charge(len(path))
            cert = CycleWitness.from_vertices(g, path + [u]) if witness else None
            return BudgetedAnswer(YES, witness=cert, work=b.spent, budget=budget)
        plus = OpenSubgraph(g, [*graph.edge_ids, e])
        b.charge(plus.num_edges)
        block = next(edges for _, edges in _blocks(plus) if e in edges)
        found = _long_cycle_in_block(OpenSubgraph(g, block), b, e=e)
        return BudgetedAnswer(NO if found is None else YES, witness=found,
                              work=b.spent, budget=budget)
    except BudgetExhausted:
        return BudgetedAnswer(UNKNOWN, work=b.spent, budget=budget)


def long_cycle_interior(cfg: BondConfig, root: int,
                        budget: int = DEFAULT_BUDGET) -> tuple[set[int], bool]:
    """Cluster vertices z with edge-disjoint witnesses: a root-z path and a
    long cycle through z.

    The cycle lies in z's block, and every root-z path enters that block at
    its entry vertex a, the block vertex nearest the root, then stays inside
    it; the part up to a crosses bridges, which no cycle uses.  So each block
    is searched alone, for a long cycle through z that leaves an a-z path of
    the block.  Returns a lower approximation and an exactness flag; the flag
    is True only when every remaining vertex carries an exhaustive
    non-existence certificate.
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
        sub = OpenSubgraph(g, cl.edges)
        depth, _ = bfs(int(root), sub.adj.__getitem__)
        for verts, edges in _blocks(sub):
            block = OpenSubgraph(g, edges)
            a = min(verts, key=depth.__getitem__)
            for z in sorted(_feasible_vertices(block, t, b)):
                for walk in _closed_walks(block, z, b):
                    if cycle_radius(g, walk) < t:
                        continue
                    used = CycleWitness.from_vertices(g, walk).edges
                    if block.path_between(a, z, forbidden=used) is not None:
                        members.add(z)
                        break
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
