"""Connected components, intrinsic-metric balls, and bounded connectivity.

Components are computed by breadth-first traversal (`lattice.bfs`) over open
edges so intrinsic distances come for free; the bulk path delegates labeling to
scipy.sparse.csgraph.  Traversals list open edges through
`BondConfig.open_incident`, which on instrumented configs reads every incident
status through `is_open`, keeping the read log sound.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .lattice import _vertex_id, bfs
from .percolation import BondConfig


@dataclass
class Cluster:
    """One open cluster: its vertices plus the open edges they induce."""
    root: int                 # smallest vertex id in the cluster
    vertices: np.ndarray      # sorted ascending
    edges: np.ndarray         # open edge ids inside the cluster, sorted

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def surplus(self) -> int:
        """Tree excess: number of independent cycles of the cluster."""
        return len(self.edges) - len(self.vertices) + 1


def component_of(cfg: BondConfig, x: int) -> Cluster:
    """Exact open cluster of x via breadth-first traversal."""
    edges = set()

    def step(v):
        pairs = cfg.open_incident(v)
        edges.update(e for e, _ in pairs)
        return pairs

    verts = np.array(sorted(bfs(int(x), step)[0]), dtype=np.int64)
    return Cluster(int(verts[0]), verts, np.array(sorted(edges), dtype=np.int64))


class ComponentMap:
    """Label-based view of all open clusters, for bulk statistics.

    The open edges (`_open_ids`, ascending) and their endpoints (`_uv`) stay
    with the labels, to list each cluster's edges.  The long-cycle vertex
    count reads no map: it peels the open edges to their 2-core itself.
    `roots` (the smallest vertex of each cluster) and `order` are computed on
    first use: the estimator replicas read neither.  `order` ranks clusters
    by size descending with ties broken by the smallest vertex id they
    contain, matching the sort contract of all_components.
    """

    def __init__(self, cfg: BondConfig):
        g = cfg.geometry
        mask = cfg.open_mask()
        open_ids = np.flatnonzero(mask)
        uv = g.endpoints(open_ids)
        V = g.num_vertices
        if len(open_ids):
            # EdgeIds ascend with their base endpoints, so the rows of uv are
            # already grouped by base: a CSR matrix as it stands, with the
            # float data the labelling would otherwise copy it into
            indptr = np.zeros(V + 1, dtype=np.int64)
            np.cumsum(np.bincount(uv[:, 0], minlength=V), out=indptr[1:])
            m = sparse.csr_matrix((np.ones(len(open_ids)), uv[:, 1], indptr), shape=(V, V))
            _, labels = csgraph.connected_components(m, directed=False)
            del m
        else:
            labels = np.arange(V)
        self.cfg = cfg
        self.labels = labels
        self.num_clusters = int(labels.max()) + 1 if V else 0
        self.sizes = np.bincount(labels, minlength=self.num_clusters)
        self.edge_counts = np.bincount(labels[uv[:, 0]], minlength=self.num_clusters) \
            if len(open_ids) else np.zeros(self.num_clusters, dtype=np.int64)
        self.surplus = self.edge_counts - self.sizes + 1
        self._open_ids = open_ids
        self._uv = uv

    @cached_property
    def roots(self) -> np.ndarray:
        """Smallest vertex id per label."""
        first = np.full(self.num_clusters, len(self.labels), dtype=np.int64)
        np.minimum.at(first, self.labels, np.arange(len(self.labels), dtype=np.int64))
        return first

    @cached_property
    def order(self) -> np.ndarray:
        return np.lexsort((self.roots, -self.sizes))

    @cached_property
    def _vertex_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex ids grouped by label, with each label's slice bounds."""
        return _grouped(self.labels, self.num_clusters)

    @cached_property
    def _edge_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Open-edge rows grouped by label, with each label's slice bounds."""
        return _grouped(self.labels[self._uv[:, 0]], self.num_clusters)

    def cluster_vertices(self, label: int) -> np.ndarray:
        order, ptr = self._vertex_groups
        return np.sort(order[ptr[label]:ptr[label + 1]])

    def cluster_edges(self, label: int) -> np.ndarray:
        order, ptr = self._edge_groups
        return np.sort(self._open_ids[order[ptr[label]:ptr[label + 1]]])

    def cluster(self, label: int) -> Cluster:
        verts = self.cluster_vertices(label)
        return Cluster(int(self.roots[label]), verts, self.cluster_edges(label))


def _grouped(labels: np.ndarray, num: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices sorted stably by label, and per label its slice bounds."""
    ptr = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=num))])
    return np.argsort(labels, kind="stable"), ptr


def component_map(cfg: BondConfig) -> ComponentMap:
    return ComponentMap(cfg)


def all_components(cfg: BondConfig) -> list[Cluster]:
    """All open clusters, largest first, ties broken by smallest root id."""
    cm = ComponentMap(cfg)
    return [cm.cluster(int(lab)) for lab in cm.order]


@dataclass
class IntrinsicBall:
    """Vertices within open-path distance k of the center, with exact distances."""
    center: int
    radius: int
    distances: dict[int, int]

    def vertices(self) -> list[int]:
        return sorted(self.distances)

    def boundary(self, k: int | None = None) -> list[int]:
        """Vertices at distance exactly k (defaults to the ball radius)."""
        k = self.radius if k is None else k
        return sorted(v for v, dv in self.distances.items() if dv == k)

    def contains(self, v: int) -> bool:
        return int(v) in self.distances


def intrinsic_ball(cfg: BondConfig, x: int, k: int) -> IntrinsicBall:
    """Exact BFS ball of radius k around x in the open graph."""
    if k < 0:
        raise ValueError(f"radius must be >= 0, got {k!r}")
    x = _vertex_id(cfg.geometry, x)
    return IntrinsicBall(x, k, bfs(x, cfg.open_incident, k)[0])


def connected_within(cfg: BondConfig, x: int, y: int, k: int) -> bool:
    """True iff y lies in the radius-k intrinsic ball of x."""
    if k < 0:
        raise ValueError(f"radius must be >= 0, got {k!r}")
    x, y = _vertex_id(cfg.geometry, x), _vertex_id(cfg.geometry, y)
    if x == y:
        return True
    return intrinsic_ball(cfg, x, k).contains(y)
