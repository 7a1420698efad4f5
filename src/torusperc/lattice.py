"""Torus and box graph substrates with dense vertex and edge indexing.

Vertex coordinates live in the centered domain {-floor(r/2), ..., ceil(r/2)-1}
per axis and map bijectively to dense integer ids through a mixed-radix code.
An edge is identified by (base vertex, canonical offset): every unordered edge
{u, v} is stored exactly once, with the base chosen so that the displacement
from base to the other endpoint is lexicographically positive.  The resulting
integer EdgeId order is the fixed, platform-independent edge enumeration that
the exploration algorithms rely on.  On the torus, EdgeId = base * K + rank
yields both endpoints by mixed-radix arithmetic; no endpoint table is stored.
The same code gives each edge step its displacement, +offsets[rank] from the
base and -offsets[rank] from the other end (`edge_offset`), so walks sum
displacements without touching coordinates, and each vertex its incident
edges: it is the base of its outgoing edges v * K + j, and the base of its
j-th incoming edge is v shifted by -offsets[j].  Conversely an id difference
of +-r^j or -+(r-1) r^j names a nearest-neighbour edge along axis j unless
digit j of one end shows a borrow (`edge_between`).  A torus stores nothing
that grows with its vertex count.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

NEAREST_NEIGHBOR = "nn"
SPREAD_OUT = "spread-out"

#: Vertex and edge counts must stay below this to fit comfortably in int64.
INDEX_LIMIT = 2**62


class GeometryError(ValueError):
    """Invalid lattice parameters (bad dimension, side, or overflow)."""


def _lex_positive(offset) -> bool:
    for c in offset:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


def canonical_offsets(d: int, model: str, L: int = 1) -> np.ndarray:
    """One displacement per unordered edge direction, lexicographically positive.

    Nearest-neighbor: the d unit vectors.  Spread-out with range L: the
    lexicographically positive half of the punctured sup-norm ball, giving
    ((2L+1)^d - 1) / 2 directions.
    """
    if model == NEAREST_NEIGHBOR:
        return np.eye(d, dtype=np.int64)
    if model == SPREAD_OUT:
        offs = [o for o in itertools.product(range(-L, L + 1), repeat=d)
                if _lex_positive(o)]
        return np.asarray(offs, dtype=np.int64)
    raise GeometryError(f"unknown edge model: {model!r}")


def centered_mod(delta, r: int):
    """Reduce lattice displacements to the centered domain {-floor(r/2), ..., ceil(r/2)-1}."""
    lo = -(r // 2)
    return (np.asarray(delta) - lo) % r + lo


def r_equivalent(x, y, r: int) -> bool:
    """True iff y = x + r*z for an integer vector z."""
    diff = np.asarray(x, dtype=np.int64) - np.asarray(y, dtype=np.int64)
    return bool(((diff % r) == 0).all())


def canonical_rep(point, r: int) -> tuple[int, ...]:
    """Representative of a lattice point in the torus fundamental domain.

    Idempotent and constant on r-equivalence classes.  Use
    TorusGeometry.vertex_index to convert the coordinates to a VertexId.
    """
    return tuple(int(c) for c in centered_mod(np.asarray(point, dtype=np.int64), r))


class TorusGeometry:
    """d-dimensional torus of side r with nearest-neighbor or spread-out edges.

    Immutable after construction; safe to share across threads.  Edge
    endpoints and incident edges are computed arithmetically from the ids;
    no table is stored.
    """

    def __init__(self, d: int, r: int, model: str = NEAREST_NEIGHBOR, L: int = 1):
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise GeometryError(f"dimension must be an integer >= 1, got {d!r}")
        if not isinstance(r, (int, np.integer)) or r < 3:
            raise GeometryError(f"side must be an integer >= 3, got {r!r}")
        if model == SPREAD_OUT:
            if L < 1:
                raise GeometryError(f"spread-out range must be >= 1, got {L!r}")
            if 2 * L + 1 > r:
                raise GeometryError(
                    f"spread-out requires 2L+1 <= r (L={L}, r={r})")
        elif model != NEAREST_NEIGHBOR:
            raise GeometryError(f"unknown edge model: {model!r}")
        self.d = int(d)
        self.r = int(r)
        self.model = model
        self.L = int(L) if model == SPREAD_OUT else 1
        self.offsets = canonical_offsets(self.d, model, self.L)
        self.num_offsets = len(self.offsets)
        num_vertices = self.r ** self.d              # exact Python int
        num_edges = num_vertices * self.num_offsets
        if num_edges > INDEX_LIMIT:
            raise GeometryError(
                f"r^d = {num_vertices} with {self.num_offsets} directions "
                f"overflows the index width")
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.degree = 2 * self.num_offsets
        self._lo = -(self.r // 2)
        self._radix = self.r ** np.arange(self.d, dtype=np.int64)
        self._steps = [self.r ** j for j in range(self.d)]     # _radix as Python ints
        self._signed_offsets = _signed_offsets(self.offsets)
        self._offset_rank = {o: j for j, (o, _) in enumerate(self._signed_offsets)}
        k = self.r - 1      # nearest-neighbour id gap -> (r^j, j, digit, wraps), see edge_between
        self._id_gaps = {m * s: (s, j, digit, m in (k, -k)) for j, s in enumerate(self._steps)
                         for m, digit in ((1, k), (-k, k), (-1, 0), (k, 0))}
        self.origin = int(((0 - self._lo) * self._radix).sum())   # id of (0,...,0)

    # -- vertex indexing ---------------------------------------------------

    def vertex_coords(self, v) -> np.ndarray:
        """Coordinates in the centered domain; accepts scalars or arrays."""
        v = np.asarray(v, dtype=np.int64)
        digits = (v[..., None] // self._radix) % self.r
        return digits + self._lo

    def vertex_index(self, coords) -> np.ndarray | int:
        """Dense id of a lattice point; arbitrary points are wrapped first."""
        c = np.asarray(coords, dtype=np.int64)
        digits = (c - self._lo) % self.r
        idx = (digits * self._radix).sum(axis=-1)
        return int(idx) if idx.ndim == 0 else idx

    def displacement(self, u, v) -> np.ndarray:
        """Centered representative of coords(v) - coords(u), componentwise."""
        delta = self.vertex_coords(v) - self.vertex_coords(u)
        return centered_mod(delta, self.r)

    # -- edge indexing -----------------------------------------------------

    def endpoints(self, eids) -> np.ndarray:
        """Endpoint ids of EdgeIds, shape eids.shape + (2,): (base, other).

        With e = base * K + rank, a nearest-neighbor edge steps digit `rank`
        of base up by one, wrapping from r-1 to 0; a spread-out edge adds
        offsets[rank] to the coordinates of base.
        """
        eids = np.asarray(eids, dtype=np.int64)
        base = eids // self.num_offsets         # faster than np.divmod
        rank = eids - base * self.num_offsets
        if self.model == NEAREST_NEIGHBOR:      # wraps iff base mod r*step >= (r-1) step
            step = self._radix[rank]
            span = self.r * step
            other = base + step - (base % span >= span - step) * span
        else:
            other = self.vertex_index(self.vertex_coords(base) + self.offsets[rank])
        return np.stack([base, other], axis=-1)

    def edge_endpoints(self, e) -> tuple[int, int]:
        """Endpoints of one edge as Python ints; the scalar form of `endpoints`."""
        base, rank = divmod(int(e), self.num_offsets)
        if self.model != NEAREST_NEIGHBOR:
            return base, int(self.endpoints(e)[1])
        step = self._steps[rank]
        if base // step % self.r == self.r - 1:
            return base, base - (self.r - 1) * step
        return base, base + step

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) array of endpoint ids; row index is the EdgeId."""
        return self.endpoints(np.arange(self.num_edges, dtype=np.int64))

    def edge_offset(self, e, frm) -> tuple[int, ...]:
        """Displacement of the step along edge e that leaves endpoint frm."""
        base, rank = divmod(int(e), self.num_offsets)
        return self._signed_offsets[rank][int(frm) != base]

    def edge_between(self, u, v) -> int | None:
        """EdgeId joining u and v, or None if not adjacent; GeometryError unless
        both are vertices.

        Nearest-neighbour: v - u is +r^j or -(r-1) r^j from the base of an
        axis-j edge, the negatives from its other end (r-1 is no power of r, so
        the 4d gaps differ), and it is no borrow iff digit j of u is r-1 (from
        the base) or 0 (to it) exactly when the step wraps.  Spread-out: digit
        j of the displacement, (v // r^j - u // r^j) mod r centered, names the
        edge by its offset rank or its negative's.
        """
        u, v = int(u), int(v)
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            raise GeometryError(f"vertex pair ({u}, {v}) outside [0, {self.num_vertices})")
        if self.model == NEAREST_NEIGHBOR:
            gap = self._id_gaps.get(v - u)
            if gap is None:
                return None
            s, j, digit, wraps = gap
            if (u // s % self.r == digit) != wraps:
                return None
            return (u if digit else v) * self.num_offsets + j     # digit r-1: u is the base
        delta = tuple((v // s - u // s - self._lo) % self.r + self._lo
                      for s in self._steps)
        rank = self._offset_rank.get(delta)
        if rank is not None:
            return u * self.num_offsets + rank
        rank = self._offset_rank.get(tuple(-c for c in delta))
        if rank is not None:
            return v * self.num_offsets + rank
        return None

    def incident_edges(self, v) -> tuple[np.ndarray, np.ndarray]:
        """(edge ids ascending, matching other endpoints) for vertex v."""
        eids, others = zip(*self._incident_pairs(v))
        return np.array(eids, dtype=np.int64), np.array(others, dtype=np.int64)

    def _incident_pairs(self, v) -> list[tuple[int, int]]:
        """(edge id, other endpoint) pairs at v as Python ints, ids ascending.

        v is the base of its outgoing edges v*K + j.  The base of its j-th
        incoming edge is v shifted by -offsets[j].  For nearest-neighbor
        edges that base is v - r^j, or v + (r-1) r^j where digit j of v is 0,
        so the ids ascend as the incoming edges from bases below v in
        decreasing j, the outgoing block, then those from above in increasing j.
        """
        v = _vertex_id(self, v)
        K, r = self.num_offsets, self.r
        if self.model != NEAREST_NEIGHBOR:
            coords = self.vertex_coords(v)
            outs = self.vertex_index(coords + self.offsets).tolist()
            ins = self.vertex_index(coords - self.offsets).tolist()
            return sorted([(v * K + j, w) for j, w in enumerate(outs)]
                          + [(b * K + j, b) for j, b in enumerate(ins)])
        below, outgoing, above = [], [], []
        for j, s in enumerate(self._steps):
            digit = v // s % r
            outgoing.append((v * K + j, v + s - (digit == r - 1) * r * s))
            b = v - s + (digit == 0) * r * s
            (above if b > v else below).append((b * K + j, b))
        return below[::-1] + outgoing + above

    def neighbors(self, v) -> np.ndarray:
        return self.incident_edges(v)[1]


_torus_cache = lru_cache(maxsize=32, typed=True)(TorusGeometry)


def get_torus(d: int, r: int, model: str = NEAREST_NEIGHBOR, L: int = 1) -> TorusGeometry:
    """Cached torus construction; every call form of one torus shares an entry."""
    return _torus_cache(d, r, model, L if model == SPREAD_OUT else 1)


get_torus.cache_clear = _torus_cache.cache_clear
get_torus.cache_info = _torus_cache.cache_info


def bfs(start, step, kmax=None, target=None):
    """Breadth-first search from start; returns (dist, parent) in discovery order.

    step(v) yields v's (edge, neighbour) pairs in a fixed order; parent[w] is
    (v, edge) and parent[start] is (None, None).  Vertices at depth kmax are
    not expanded, and the search returns as soon as target is discovered.
    """
    dist = {start: 0}
    parent = {start: (None, None)}
    frontier = [start]
    depth = 0
    while frontier and start != target and (kmax is None or depth < kmax):
        depth += 1
        nxt = []
        for v in frontier:
            for e, w in step(v):
                if w not in dist:
                    dist[w] = depth
                    parent[w] = (v, e)
                    if w == target:
                        return dist, parent
                    nxt.append(w)
        frontier = nxt
    return dist, parent


def torus_distance(g: TorusGeometry, x, y, norm: str = "sup"):
    """Torus metric between vertices: min over r-translates of the displacement.

    norm="sup" gives the max-coordinate metric (values in [0, floor(r/2)]);
    norm="l1" sums the coordinates.
    """
    a = np.abs(g.displacement(x, y))
    if norm == "sup":
        val = a.max(axis=-1)
    elif norm == "l1":
        val = a.sum(axis=-1)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return int(val) if np.ndim(val) == 0 else val


class BoxGeometry:
    """Lattice box Q_n(center) = {y : |y - center|_sup <= n} with free boundary.

    Edges join vertices inside the box only.  EdgeIds enumerate valid
    (base, offset) pairs in (base * K + rank) order, compacted to be dense.
    """

    def __init__(self, center, n: int, d: int | None = None,
                 model: str = NEAREST_NEIGHBOR, L: int = 1):
        center = tuple(int(c) for c in np.atleast_1d(np.asarray(center, dtype=np.int64)))
        if d is None:
            d = len(center)
        if len(center) != d:
            raise GeometryError(f"center has {len(center)} coords, expected d={d}")
        if n < 0:
            raise GeometryError(f"box radius must be >= 0, got {n!r}")
        self.center = center
        self.n = int(n)
        self.d = int(d)
        self.model = model
        self.L = int(L) if model == SPREAD_OUT else 1
        self.side = 2 * self.n + 1
        num_vertices = self.side ** self.d
        self.offsets = canonical_offsets(self.d, model, self.L)
        self.num_offsets = len(self.offsets)
        if num_vertices * max(1, self.num_offsets) > INDEX_LIMIT:
            raise GeometryError("box vertex/edge count overflows the index width")
        self.num_vertices = num_vertices
        self._origin = np.asarray(center, dtype=np.int64) - self.n
        self._radix = self.side ** np.arange(self.d, dtype=np.int64)
        self._signed_offsets = _signed_offsets(self.offsets)
        self._offset_rank = {o: j for j, (o, _) in enumerate(self._signed_offsets)}
        self._build_edges()
        self.center_vertex = int(self.vertex_index(np.asarray(center, dtype=np.int64)))

    def _build_edges(self):
        V, K = self.num_vertices, self.num_offsets
        coords = self.vertex_coords(np.arange(V))
        bases, ranks, others = [], [], []
        for j, off in enumerate(self.offsets):
            target = coords + off
            ok = ((target >= self._origin) & (target < self._origin + self.side)).all(axis=1)
            idx = np.flatnonzero(ok)
            bases.append(idx)
            ranks.append(np.full(len(idx), j, dtype=np.int64))
            others.append(self.vertex_index(target[ok]))
        base = np.concatenate(bases) if bases else np.empty(0, dtype=np.int64)
        rank = np.concatenate(ranks) if ranks else np.empty(0, dtype=np.int64)
        other = np.concatenate(others) if others else np.empty(0, dtype=np.int64)
        order = np.argsort(base * K + rank, kind="stable")
        self._edge_base = base[order]
        self._edge_rank = rank[order]
        self._edge_other = other[order]
        self.num_edges = len(order)
        lookup = np.full((V, K), -1, dtype=np.int64)
        lookup[self._edge_base, self._edge_rank] = np.arange(self.num_edges)
        self._edge_lookup = lookup
        # CSR-style incidence, rows sorted by edge id
        u = np.concatenate([self._edge_base, self._edge_other])
        e = np.concatenate([np.arange(self.num_edges)] * 2)
        v_other = np.concatenate([self._edge_other, self._edge_base])
        order = np.lexsort((e, u))
        self._inc_vertex_sorted = u[order]
        self._inc_eids = e[order]
        self._inc_others = v_other[order]
        self._inc_ptr = np.searchsorted(self._inc_vertex_sorted, np.arange(V + 1))

    # -- vertex indexing ---------------------------------------------------

    def vertex_coords(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        digits = (v[..., None] // self._radix) % self.side
        return digits + self._origin

    def contains(self, coords) -> bool:
        c = np.asarray(coords, dtype=np.int64)
        return bool(((c >= self._origin) & (c < self._origin + self.side)).all())

    def vertex_index(self, coords):
        c = np.asarray(coords, dtype=np.int64)
        digits = c - self._origin
        if ((digits < 0) | (digits >= self.side)).any():
            raise GeometryError(f"coordinates {coords!r} outside the box")
        idx = (digits * self._radix).sum(axis=-1)
        return int(idx) if idx.ndim == 0 else idx

    # -- edges ---------------------------------------------------------------

    def endpoints(self, eids) -> np.ndarray:
        """Endpoint ids of EdgeIds, shape eids.shape + (2,): (base, other)."""
        e = np.asarray(eids, dtype=np.int64)
        return np.stack([self._edge_base[e], self._edge_other[e]], axis=-1)

    def edge_endpoints(self, e) -> tuple[int, int]:
        e = int(e)
        return int(self._edge_base[e]), int(self._edge_other[e])

    def edge_base_rank(self, e) -> tuple[int, int]:
        e = int(e)
        return int(self._edge_base[e]), int(self._edge_rank[e])

    def edge_offset(self, e, frm) -> tuple[int, ...]:
        """Displacement of the step along edge e that leaves endpoint frm.

        Box EdgeIds are compacted, so the rank comes from the stored arrays.
        """
        base, rank = self.edge_base_rank(e)
        return self._signed_offsets[rank][int(frm) != base]

    def edge_array(self) -> np.ndarray:
        return np.column_stack([self._edge_base, self._edge_other])

    def edge_between(self, u, v) -> int | None:
        u, v = _vertex_id(self, u), _vertex_id(self, v)
        delta = tuple(int(c) for c in (self.vertex_coords(v) - self.vertex_coords(u)))
        for base, probe in ((u, delta), (v, tuple(-c for c in delta))):
            rank = self._offset_rank.get(probe)
            if rank is not None:
                e = int(self._edge_lookup[int(base), rank])
                if e >= 0:
                    return e
        return None

    def incident_edges(self, v) -> tuple[np.ndarray, np.ndarray]:
        v = _vertex_id(self, v)
        lo, hi = self._inc_ptr[v], self._inc_ptr[v + 1]
        return self._inc_eids[lo:hi], self._inc_others[lo:hi]

    def _incident_pairs(self, v) -> list[tuple[int, int]]:
        eids, others = self.incident_edges(v)
        return list(zip(eids.tolist(), others.tolist()))

    def neighbors(self, v) -> np.ndarray:
        return self.incident_edges(v)[1]

    # -- boundary ------------------------------------------------------------

    def is_boundary(self, v) -> bool:
        c = self.vertex_coords(v) - np.asarray(self.center, dtype=np.int64)
        return bool(np.abs(c).max() == self.n)

    def boundary_vertices(self) -> np.ndarray:
        c = self.vertex_coords(np.arange(self.num_vertices))
        sup = np.abs(c - np.asarray(self.center, dtype=np.int64)).max(axis=1)
        return np.flatnonzero(sup == self.n)


def _vertex_id(g, v) -> int:
    """v as a Python int; GeometryError unless it is a vertex of g."""
    v = int(v)
    if not 0 <= v < g.num_vertices:
        raise GeometryError(f"vertex {v} outside [0, {g.num_vertices})")
    return v


def _signed_offsets(offsets: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per rank, (offset, -offset) as tuples of Python ints."""
    return [(tuple(o), tuple(-c for c in o)) for o in offsets.tolist()]


def build_box(center, n: int, d: int | None = None,
              model: str = NEAREST_NEIGHBOR, L: int = 1) -> BoxGeometry:
    """Adjacency restricted to the box Q_n(center), boundary marked."""
    return BoxGeometry(center, n, d, model, L)
