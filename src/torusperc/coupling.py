"""Joint sampling of torus and lattice percolation through unwrapping.

The exploration starts at the origin of a finite lattice window and unwraps
the torus cluster of the origin edge by edge: each selected lattice edge
inherits the status of its torus representative, and every other window
member of its wrap-equivalence class is declared ghost.  One cached map sends
each window edge to its torus EdgeId, so a class is just the preimage of one
torus edge: the exploration skips edges whose torus edge was already
consumed, each torus edge status is consumed at most once, and the ghosts
are read off the consumed torus edges once the exploration stops, in one
array pass that keeps them as one sorted array of window edge ids.
Unexplored window edges (ghosts included) are filled from an independent
lattice sample, so both marginals remain product Bernoulli(p) while the two
intrinsic balls around the origin are coupled.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import NEAREST_NEIGHBOR, BoxGeometry, bfs, get_torus
from .percolation import BondConfig, derive_seed, sample_config


@lru_cache(maxsize=8)
def _get_window(d: int, n: int, model: str) -> BoxGeometry:
    return BoxGeometry([0] * d, n, d, model)


class CouplingError(ValueError):
    """Invalid coupling parameters."""


@dataclass
class CouplingSample:
    """One joint draw: torus config, window config, and the explored sets."""
    torus_config: BondConfig
    window: BoxGeometry
    lattice_open: np.ndarray            # bool per window edge id
    explored_open: frozenset[int]       # window edge ids, status copied from torus
    explored_closed: frozenset[int]
    ghost_edges: np.ndarray             # sorted int64 window edge ids
    torus_reads: tuple[int, ...]        # torus edge ids in consumption order
    truncated: bool
    steps: int
    window_factor: int

    @property
    def explored(self) -> frozenset[int]:
        return self.explored_open | self.explored_closed

    def to_json(self) -> dict:
        return {"truncated": self.truncated,
                "steps": self.steps,
                "explored_open": sorted(self.explored_open),
                "explored_closed": sorted(self.explored_closed),
                "ghost_edges": self.ghost_edges.tolist(),
                "torus_reads": list(self.torus_reads)}


def coupled_sample(d: int, r: int, p: float, seed: int, window_factor: int = 4,
                   step_budget: int | None = None,
                   model: str = NEAREST_NEIGHBOR) -> CouplingSample:
    """Run the unwrapping exploration and assemble the coupled pair.

    The lattice is truncated to the window [-K*r, K*r]^d; the truncation flag
    is set when the exploration reaches the window boundary or exhausts the
    step budget, and such samples are excluded from coupling-property
    statistics upstream.
    """
    if model != NEAREST_NEIGHBOR:
        raise CouplingError("the coupling is defined for the nearest-neighbor model")
    if window_factor < 2:
        raise CouplingError(f"window factor must be >= 2, got {window_factor!r}")
    if not 0.0 <= p <= 1.0:
        raise CouplingError(f"edge probability must be in [0, 1], got {p!r}")
    g = get_torus(d, r, model)
    n = window_factor * r
    window = _get_window(d, n, model)
    torus_cfg = sample_config(g, p, derive_seed(seed, 0))
    free_cfg = sample_config(window, p, derive_seed(seed, 1))
    probe = torus_cfg.instrumented()

    torus_of = _torus_edge_map(d, r, n)
    origin = int(window.vertex_index([0] * d))
    dist: dict[int, int] = {origin: 0}
    explored_open: set[int] = set()
    explored_closed: set[int] = set()
    torus_reads: list[int] = []
    consumed = np.zeros(g.num_edges, dtype=bool)
    truncated = bool(window.is_boundary(origin))
    heap: list[tuple[int, int]] = []     # (BFS distance, window edge id)

    def push_vertex_edges(v: int) -> None:
        eids, _ = window.incident_edges(v)
        dv = dist[v]
        for e in eids[~consumed[torus_of[eids]]].tolist():
            heapq.heappush(heap, (dv, e))

    push_vertex_edges(origin)
    steps = 0
    while heap:
        if step_budget is not None and steps >= step_budget:
            truncated = True
            break
        _, e = heapq.heappop(heap)
        te = int(torus_of[e])
        if consumed[te]:            # e itself or a wrap-equivalent edge was read
            continue
        steps += 1
        consumed[te] = True
        torus_reads.append(te)
        if probe.is_open(te):
            explored_open.add(e)
            u, v = window.edge_endpoints(e)
            du, dv = dist.get(u), dist.get(v)
            if du is None and dv is None:
                raise AssertionError("active edge with no labeled endpoint")
            if du is None or dv is None:
                w = u if du is None else v
                dist[w] = (dv if du is None else du) + 1
                if window.is_boundary(w):
                    truncated = True
                push_vertex_edges(w)
        else:
            explored_closed.add(e)
    if len(set(torus_reads)) != len(torus_reads):
        raise AssertionError("a torus edge was consumed twice")

    # ghosts: the other window members of every read wrap-equivalence class
    explored = np.fromiter((*explored_open, *explored_closed), dtype=np.int64)
    ghosts = np.setdiff1d(np.flatnonzero(consumed[torus_of]), explored, assume_unique=True)
    lattice_open = free_cfg.open_mask().copy()
    lattice_open[sorted(explored_open)] = True
    lattice_open[sorted(explored_closed)] = False
    return CouplingSample(torus_cfg, window, lattice_open,
                          frozenset(explored_open), frozenset(explored_closed),
                          ghosts, tuple(torus_reads), truncated,
                          steps, window_factor)


@lru_cache(maxsize=8)
def _torus_edge_map(d: int, r: int, n: int) -> np.ndarray:
    """Torus EdgeId of every nearest-neighbour edge of the window [-n, n]^d.

    A window edge steps +1 along axis `rank` from its base, and so does its
    torus image from the wrapped base; with r >= 3 that step is already the
    canonical offset, so the image is wrap(base) * K + rank.  Window edges
    share an image exactly when they are wrap-equivalent.
    """
    g = get_torus(d, r)
    window = _get_window(d, n, NEAREST_NEIGHBOR)
    coords = window.vertex_coords(window.endpoints(np.arange(window.num_edges)))
    ranks = np.argmax(coords[:, 1] - coords[:, 0], axis=-1)
    return g.vertex_index(coords[:, 0]) * g.num_offsets + ranks


def lattice_distances(sample: CouplingSample, kmax: int) -> dict[int, int]:
    """Intrinsic distances from the window origin over the coupled lattice config."""
    window = sample.window
    origin = int(window.vertex_index([0] * window.d))
    lattice_cfg = BondConfig.from_bits(window, sample.lattice_open)
    return bfs(origin, lattice_cfg.open_incident, kmax)[0]


def torus_distances(sample: CouplingSample, kmax: int) -> dict[int, int]:
    """Intrinsic distances from the torus origin over the torus config."""
    cfg = sample.torus_config
    return bfs(cfg.geometry.origin, cfg.open_incident, kmax)[0]


@dataclass
class InclusionReport:
    applicable: bool
    violations: dict[int, list[int]]

    @property
    def ok(self) -> bool:
        return self.applicable and not any(self.violations.values())


def check_inclusion_property(sample: CouplingSample, k_values) -> InclusionReport:
    """Verify that the torus intrinsic ball embeds in the lattice balls.

    For every k and every torus vertex within intrinsic distance k of the
    origin, some wrap-equivalent window vertex must be within lattice
    intrinsic distance k.  Truncated samples are inapplicable.
    """
    k_values = sorted(int(k) for k in k_values)
    if sample.truncated:
        return InclusionReport(False, {})
    g = sample.torus_config.geometry
    window = sample.window
    kmax = k_values[-1] if k_values else 0
    dt = torus_distances(sample, kmax)
    dz = lattice_distances(sample, kmax)
    xs = g.vertex_index(window.vertex_coords(np.fromiter(dz, dtype=np.int64)))
    best: dict[int, int] = {}
    for x, dy in zip(xs.tolist(), dz.values()):
        if x not in best or dy < best[x]:
            best[x] = dy
    violations: dict[int, list[int]] = {}
    for k in k_values:
        bad = [x for x, dx in dt.items() if dx <= k and best.get(x, kmax + 1) > k]
        violations[k] = sorted(bad)
    return InclusionReport(True, violations)
