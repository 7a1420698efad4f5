"""Joint sampling of torus and lattice percolation through unwrapping.

The exploration starts at the origin of a finite lattice window and unwraps
the torus cluster of the origin edge by edge: each time a lattice edge is
selected, every other window member of its wrap-equivalence class is declared
ghost, and the edge inherits the status of its torus representative.  Each
torus edge status is consumed at most once.  Unexplored window edges (ghosts
included) are filled from an independent lattice sample, so both marginals
remain product Bernoulli(p) while the two intrinsic balls around the origin
are coupled.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import NEAREST_NEIGHBOR, BoxGeometry, TorusGeometry, bfs, get_torus
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
    ghost_edges: frozenset[int]
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
                "ghost_edges": sorted(self.ghost_edges),
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

    origin = int(window.vertex_index([0] * d))
    dist: dict[int, int] = {origin: 0}
    explored: set[int] = set()
    explored_open: set[int] = set()
    explored_closed: set[int] = set()
    ghosts: set[int] = set()
    torus_reads: list[int] = []
    consumed: set[int] = set()
    truncated = bool(window.is_boundary(origin))
    heap: list[tuple[int, int]] = []     # (BFS distance, window edge id)

    def push_vertex_edges(v: int) -> None:
        eids, _ = window.incident_edges(v)
        dv = dist[v]
        for e in eids:
            e = int(e)
            if e not in explored:
                heapq.heappush(heap, (dv, e))

    push_vertex_edges(origin)
    steps = 0
    while heap:
        if step_budget is not None and steps >= step_budget:
            truncated = True
            break
        _, e = heapq.heappop(heap)
        if e in explored:
            continue
        steps += 1
        # ghost all other members of the wrap-equivalence class first
        for f in _class_members(window, e, r).tolist():
            if f != e and f not in explored:
                ghosts.add(f)
                explored.add(f)
        te = _torus_edge_of(g, window, e, r)
        if te in consumed:
            raise AssertionError(f"torus edge {te} consumed twice")
        consumed.add(te)
        torus_reads.append(te)
        status = probe.is_open(te)
        explored.add(e)
        if status:
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

    lattice_open = free_cfg.open_mask().copy()
    lattice_open[sorted(explored_open)] = True
    lattice_open[sorted(explored_closed)] = False
    return CouplingSample(torus_cfg, window, lattice_open,
                          frozenset(explored_open), frozenset(explored_closed),
                          frozenset(ghosts), tuple(torus_reads), truncated,
                          steps, window_factor)


def _class_members(window: BoxGeometry, e: int, r: int) -> np.ndarray:
    """Window edge ids wrap-equivalent to e (including e itself)."""
    base, rank = window.edge_base_rank(e)
    c = window.vertex_coords(base)
    n = window.n
    axes = []
    for i in range(window.d):
        delta = 1 if i == rank else 0
        lo = -((n + int(c[i])) // r)                 # ceil((-n - c_i) / r)
        hi = (n - int(c[i]) - delta) // r
        axes.append(np.arange(lo, hi + 1, dtype=np.int64) * r + int(c[i]))
    grids = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([a.ravel() for a in grids], axis=-1)
    bases = window.vertex_index(coords)
    eids = window.edge_ids_for(bases, rank)
    return eids[eids >= 0]


def _torus_edge_of(g: TorusGeometry, window: BoxGeometry, e: int, r: int) -> int:
    u, v = window.edge_endpoints(e)
    tu = g.vertex_index(window.vertex_coords(u))
    tv = g.vertex_index(window.vertex_coords(v))
    te = g.edge_between(tu, tv)
    if te is None:
        raise AssertionError("window edge has no torus representative")
    return te


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
    best: dict[int, int] = {}
    for y, dy in dz.items():
        x = int(g.vertex_index(window.vertex_coords(y)))
        if x not in best or dy < best[x]:
            best[x] = dy
    violations: dict[int, list[int]] = {}
    for k in k_values:
        bad = [x for x, dx in dt.items() if dx <= k and best.get(x, kmax + 1) > k]
        violations[k] = sorted(bad)
    return InclusionReport(True, violations)
