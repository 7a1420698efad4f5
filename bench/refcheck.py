"""Independent reference code for checking torusperc outputs.

Nothing here calls torusperc.  Every routine is rebuilt from the documented
rules so that a check compares the program against a second implementation,
never against the routine it checks:

- the nearest-neighbour torus T_r^d: coordinates in the centered domain
  {-floor(r/2), ..., ceil(r/2)-1}, vertex id = sum_i (c_i - lo) * r^i, and
  EdgeId = base * d + axis for the edge from `base` to `base + e_axis`;
- the free-boundary box Q_n(0): the same mixed-radix code with side 2n+1, and
  edge ids that number the valid (base, axis) pairs in base * d + axis order;
- cluster labelling with scipy's connected components;
- a validator for long closed walks;
- an exhaustive enumeration of a cluster's cycle space, for clusters small
  enough to enumerate.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


class Torus:
    """Mixed-radix indexing of the nearest-neighbour torus T_r^d."""

    def __init__(self, d: int, r: int):
        self.d, self.r = int(d), int(r)
        self.lo = -(self.r // 2)
        self.num_vertices = self.r ** self.d
        self.num_edges = self.num_vertices * self.d
        self.radix = self.r ** np.arange(self.d, dtype=np.int64)
        self._endpoints = None

    def coords(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        return (v[..., None] // self.radix) % self.r + self.lo

    def index(self, c):
        digits = (np.asarray(c, dtype=np.int64) - self.lo) % self.r
        idx = (digits * self.radix).sum(axis=-1)
        return int(idx) if np.ndim(idx) == 0 else idx

    def endpoints(self) -> np.ndarray:
        """(E, 2) endpoints; row e is (base, base + e_axis) for e = base*d + axis."""
        if self._endpoints is None:
            e = np.arange(self.num_edges, dtype=np.int64)
            base, axis = e // self.d, e % self.d
            step = np.eye(self.d, dtype=np.int64)[axis]
            other = self.index(self.coords(base) + step)
            self._endpoints = np.column_stack([base, other])
        return self._endpoints

    def edge_between(self, u: int, v: int) -> int | None:
        """EdgeId joining u and v, or None when they are not neighbours."""
        delta = (self.coords(v) - self.coords(u) - self.lo) % self.r + self.lo
        nonzero = np.flatnonzero(delta)
        if len(nonzero) != 1 or abs(int(delta[nonzero[0]])) != 1:
            return None
        axis = int(nonzero[0])
        base = u if delta[axis] == 1 else v
        return int(base) * self.d + axis

    def radius(self, verts) -> int:
        """min over u of max over v of the torus sup-distance, on a vertex set."""
        if not verts:
            return 0
        c = self.coords(np.asarray(sorted(verts), dtype=np.int64))
        diff = np.abs(c[:, None, :] - c[None, :, :]) % self.r
        return int(np.minimum(diff, self.r - diff).max(axis=2).max(axis=1).min())


def box_endpoints(d: int, n: int) -> np.ndarray:
    """(E, 2) endpoints of the box Q_n(0), in the box's EdgeId order."""
    side = 2 * n + 1
    V = side ** d
    radix = side ** np.arange(d, dtype=np.int64)
    coords = (np.arange(V, dtype=np.int64)[:, None] // radix) % side - n
    base = np.repeat(np.arange(V, dtype=np.int64), d)
    axis = np.tile(np.arange(d), V)
    target = coords[base] + np.eye(d, dtype=np.int64)[axis]
    ok = (target <= n).all(axis=1)
    other = ((target[ok] + n) * radix).sum(axis=1)
    return np.column_stack([base[ok], other])


def box_coords(d: int, n: int, v) -> np.ndarray:
    side = 2 * n + 1
    radix = side ** np.arange(d, dtype=np.int64)
    return (np.asarray(v, dtype=np.int64)[..., None] // radix) % side - n


class Labelling:
    """Clusters of an open edge set, labelled by scipy."""

    def __init__(self, num_vertices: int, endpoints: np.ndarray, open_mask: np.ndarray):
        self.open_ids = np.flatnonzero(open_mask)
        self.uv = endpoints[self.open_ids]
        m = sparse.csr_matrix(
            (np.ones(len(self.uv), dtype=np.int8), (self.uv[:, 0], self.uv[:, 1])),
            shape=(num_vertices, num_vertices))
        self.count, self.labels = csgraph.connected_components(m, directed=False)
        self.sizes = np.bincount(self.labels, minlength=self.count)
        self.edge_counts = np.bincount(self.labels[self.uv[:, 0]], minlength=self.count)
        self.surplus = self.edge_counts - self.sizes + 1

    def vertices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def edges(self, label: int) -> np.ndarray:
        return self.open_ids[self.labels[self.uv[:, 0]] == label]

    def largest(self) -> int:
        """Label of the largest cluster; ties go to the smallest vertex id."""
        return int(self.labels[np.flatnonzero(self.sizes[self.labels] == self.sizes.max())[0]])


def bfs_distances(num_vertices: int, endpoints: np.ndarray, open_mask: np.ndarray,
                  source: int) -> np.ndarray:
    """Open-path distance from source to every vertex (inf when unreachable)."""
    uv = endpoints[np.asarray(open_mask, dtype=bool)]
    m = sparse.csr_matrix((np.ones(len(uv)), (uv[:, 0], uv[:, 1])),
                          shape=(num_vertices, num_vertices))
    return csgraph.shortest_path(m, directed=False, unweighted=True, indices=int(source))


# ---------------------------------------------------------------------------
# graphs given as edge lists


def _adjacency(endpoints: np.ndarray, edges) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        u, v = (int(x) for x in endpoints[int(e)])
        adj.setdefault(u, []).append((int(e), v))
        adj.setdefault(v, []).append((int(e), u))
    return adj


def spanning_forest(endpoints: np.ndarray, edges):
    """BFS forest: (parent map v -> (parent, edge), depth map, chord list)."""
    adj = _adjacency(endpoints, edges)
    parent: dict[int, tuple[int | None, int | None]] = {}
    depth: dict[int, int] = {}
    tree: set[int] = set()
    for s in sorted(adj):
        if s in parent:
            continue
        parent[s], depth[s] = (None, None), 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for e, w in adj[v]:
                    if w not in parent:
                        parent[w], depth[w] = (v, e), depth[v] + 1
                        tree.add(e)
                        nxt.append(w)
            frontier = nxt
    chords = [int(e) for e in edges if int(e) not in tree]
    return parent, depth, chords


def _tree_path_edges(parent, depth, u: int, v: int) -> list[int]:
    out = []
    while u != v:
        if depth[u] < depth[v]:
            u, v = v, u
        out.append(parent[u][1])
        u = parent[u][0]
    return out


def cycle_vertices(endpoints: np.ndarray, edges) -> set[int]:
    """Vertices on some cycle: endpoints of edges that are not bridges.

    An edge lies on a cycle iff it is a chord of a spanning forest or a tree
    edge on the fundamental cycle of some chord.
    """
    parent, depth, chords = spanning_forest(endpoints, edges)
    on_cycle = set(chords)
    for c in chords:
        u, v = (int(x) for x in endpoints[c])
        on_cycle.update(_tree_path_edges(parent, depth, u, v))
    out: set[int] = set()
    for e in on_cycle:
        out.update(int(x) for x in endpoints[e])
    return out


def is_forest(endpoints: np.ndarray, edges) -> bool:
    return not spanning_forest(endpoints, edges)[2]


def cycle_space_dim(endpoints: np.ndarray, edges) -> int:
    return len(spanning_forest(endpoints, edges)[2])


def long_cycle_vertices(torus: Torus, edges, t: int, max_dim: int) -> set[int] | None:
    """Vertices on a long edge-self-avoiding closed walk, by enumeration.

    The edge sets of edge-self-avoiding closed walks are exactly the nonempty
    connected even subgraphs (an Euler circuit traverses each one), so the
    walks through a vertex are read off the cycle space: every element is a
    sum of fundamental cycles.  Returns None when the cycle space has more
    than 2^max_dim elements.
    """
    endpoints = torus.endpoints()
    edges = [int(e) for e in edges]
    parent, depth, chords = spanning_forest(endpoints, edges)
    if len(chords) > max_dim:
        return None
    position = {e: i for i, e in enumerate(edges)}
    basis = []
    for c in chords:
        u, v = (int(x) for x in endpoints[c])
        mask = 1 << position[c]
        for e in _tree_path_edges(parent, depth, u, v):
            mask ^= 1 << position[e]
        basis.append(mask)
    ends = [tuple(int(x) for x in endpoints[e]) for e in edges]
    found: set[int] = set()
    element = 0
    for k in range(1, 1 << len(basis)):
        element ^= basis[(k & -k).bit_length() - 1]          # Gray-code step
        verts = _connected_vertex_set(element, ends)
        if verts is not None and not verts <= found and torus.radius(verts) >= t:
            found |= verts
    return found


def _connected_vertex_set(mask: int, ends) -> set[int] | None:
    """Vertex set of the edge subset `mask`, or None when it is disconnected."""
    root: dict[int, int] = {}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    i = 0
    while mask:
        if mask & 1:
            u, v = ends[i]
            root.setdefault(u, u)
            root.setdefault(v, v)
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
        mask >>= 1
        i += 1
    if len({find(x) for x in root}) != 1:
        return None
    return set(root)


def walk_problem(torus: Torus, vertices, t: int, is_open, unread=()) -> str | None:
    """Why `vertices` is not a long edge-self-avoiding closed walk over open
    edges, or None when it is one.

    `is_open(e)` gives an edge's status; edges in `unread` are taken as given
    (a special edge whose status the surgery never read).
    """
    verts = [int(v) for v in vertices]
    if len(verts) < 4 or verts[0] != verts[-1]:
        return "not a closed walk of at least three edges"
    edges = []
    for u, v in zip(verts, verts[1:]):
        e = torus.edge_between(u, v)
        if e is None:
            return f"{u} and {v} are not adjacent"
        edges.append(e)
    if len(set(edges)) != len(edges):
        return "an edge repeats"
    closed = [e for e in edges if e not in set(unread) and not is_open(e)]
    if closed:
        return f"edge {closed[0]} is closed"
    if torus.radius(set(verts)) < t:
        return f"radius {torus.radius(set(verts))} below {t}"
    return None


def walk_edges(torus: Torus, vertices) -> list[int]:
    verts = [int(v) for v in vertices]
    return [torus.edge_between(u, v) for u, v in zip(verts, verts[1:])]
