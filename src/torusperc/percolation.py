"""Seeded bond configurations and the critical-point reference table.

Sampling uses the counter-based Philox generator keyed through a SeedSequence,
so replica k's stream is a pure function of (master seed, k) and is stable
across platforms and worker counts.  Edge statuses are bit-packed; an
instrumented config records every edge whose status is read, which the
exploration algorithms use to prove their read discipline.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .lattice import NEAREST_NEIGHBOR, bfs


class InstrumentationError(RuntimeError):
    """Bulk status access was attempted on an instrumented config."""


class UnknownCriticalPointError(KeyError):
    """No tabulated critical-point estimate for the requested (d, model, L)."""


def replica_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Philox generator for a derived stream; pure function of (seed, stream)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *stream: int) -> int:
    """64-bit seed derived from (master seed, stream indices)."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class BondConfig:
    """One percolation sample: a bit per EdgeId plus (p, seed) provenance.

    Immutable after sampling.  `read_log`, when not None, is a set collecting
    every EdgeId whose status was queried through `is_open`; bulk access via
    `open_mask` is forbidden in that mode so no read can escape the log.
    """

    __slots__ = ("geometry", "p", "seed", "_packed", "read_log", "_mask")

    def __init__(self, geometry, p, seed, packed, read_log=None):
        self.geometry = geometry
        self.p = p
        self.seed = seed
        self._packed = packed
        self.read_log = read_log
        self._mask = None

    @classmethod
    def from_bits(cls, geometry, bits, p=None, seed=None) -> "BondConfig":
        """Wrap explicit statuses: an int bitmask or a boolean array."""
        E = geometry.num_edges
        if isinstance(bits, (int, np.integer)):
            nbytes = (E + 7) // 8
            packed = np.frombuffer(int(bits).to_bytes(nbytes, "little"), dtype=np.uint8)
        else:
            arr = np.asarray(bits, dtype=bool)
            if arr.shape != (E,):
                raise ValueError(f"expected {E} edge bits, got shape {arr.shape}")
            packed = np.packbits(arr, bitorder="little")
        return cls(geometry, p, seed, packed)

    @property
    def num_edges(self) -> int:
        return self.geometry.num_edges

    def is_open(self, e) -> bool:
        e = int(e)
        if self.read_log is not None:
            self.read_log.add(e)
        return bool((self._packed[e >> 3] >> (e & 7)) & 1)

    def open_incident(self, v) -> list[tuple[int, int]]:
        """Open (edge, neighbour) pairs at v in ascending edge order.

        Instrumented configs read every incident status through `is_open`, so
        a traversal built on this stays inside the read log.
        """
        pairs = self.geometry._incident_pairs(v)
        if self.read_log is not None:
            return [(e, w) for e, w in pairs if self.is_open(e)]
        mask = self.open_mask()
        return [(e, w) for e, w in pairs if mask[e]]

    def peek_open(self, e) -> bool:
        """Status check that bypasses the read log (validation and tests only)."""
        e = int(e)
        return bool((self._packed[e >> 3] >> (e & 7)) & 1)

    def open_mask(self) -> np.ndarray:
        """Boolean status array; only for uninstrumented configs."""
        if self.read_log is not None:
            raise InstrumentationError(
                "open_mask bypasses the read log; use is_open on instrumented configs")
        if self._mask is None:
            self._mask = np.unpackbits(
                self._packed, count=self.num_edges, bitorder="little").astype(bool)
        return self._mask

    def open_edge_ids(self) -> np.ndarray:
        return np.flatnonzero(self.open_mask())

    def count_open(self) -> int:
        return int(self.open_mask().sum())

    def instrumented(self) -> "BondConfig":
        """Copy sharing the same statuses, with a fresh read log."""
        return BondConfig(self.geometry, self.p, self.seed, self._packed, read_log=set())

    def packed_bytes(self) -> bytes:
        return self._packed.tobytes()


#: Edges per `rng.random` call in `sample_config` (a 16 MB float64 draw).
#: Draws in chunks equal one draw, and a chunk is a whole number of bytes, so
#: the packed chunks concatenate.  Chunks of 2^18 ran the d=7, r <= 6
#: estimators about 10% slower, with several times the page faults per replica.
_SAMPLE_CHUNK = 1 << 21


def sample_config(geometry, p: float, seed: int) -> BondConfig:
    """Sample each edge open independently with probability p; deterministic per seed.

    Independent replicas are obtained by passing seeds derived via
    `derive_seed(master, replica)`.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p!r}")
    rng = replica_rng(seed)
    E = geometry.num_edges
    packed = np.empty(-(-E // 8), dtype=np.uint8)
    for lo in range(0, E, _SAMPLE_CHUNK):
        bits = np.packbits(rng.random(min(_SAMPLE_CHUNK, E - lo)) < p, bitorder="little")
        packed[lo // 8:lo // 8 + len(bits)] = bits
    return BondConfig(geometry, p, seed, packed)


@dataclass(frozen=True)
class PcEntry:
    d: int
    model: str
    L: int | None
    p_c: float
    source: str


@lru_cache(maxsize=1)
def _pc_table() -> tuple[PcEntry, ...]:
    text = resources.files("torusperc").joinpath("data/pc_reference.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        d, model, L, pc, source = line.split()
        value = float(pc)
        if not 0.0 < value < 1.0:
            raise ValueError(f"reference p_c out of (0,1): {line!r}")
        rows.append(PcEntry(int(d), model, None if L == "-" else int(L), value, source))
    return tuple(rows)


def pc_reference(d: int, model: str = NEAREST_NEIGHBOR, L: int | None = None) -> PcEntry:
    """Tabulated critical-point estimate with its source tag.

    Raises UnknownCriticalPointError when no row matches; never silently
    substitutes a default.
    """
    want_L = None if model == NEAREST_NEIGHBOR else L
    for row in _pc_table():
        if row.d == d and row.model == model and row.L == want_L:
            return row
    raise UnknownCriticalPointError(
        f"no reference p_c for d={d}, model={model!r}, L={L!r}; "
        f"available: {[(r.d, r.model, r.L) for r in _pc_table()]}")


def calibrate_pc_scan(d: int, r: int, p_grid, samples: int, seed: int,
                      k_grid=None, model: str = NEAREST_NEIGHBOR, L: int = 1):
    """Diagnostic table of k * P(the intrinsic ball boundary at depth k is nonempty).

    Near criticality the one-arm probability decays like 1/k, so the scaled
    value plateaus; deep subcritical it drops to 0 and at p=1 it equals k while
    the ball keeps growing.  Used to sanity-check the reference table, not to
    override it.
    """
    from .lattice import get_torus

    p_grid = list(p_grid)
    if not p_grid:
        raise ValueError("empty p grid")
    if k_grid is None:
        k_grid = [1, 2, 5, 10, 20]
    k_grid = sorted(int(k) for k in k_grid)
    kmax = k_grid[-1]
    g = get_torus(d, r, model, L)
    rows = []
    for pi, p in enumerate(p_grid):
        depths = np.empty(samples, dtype=np.int64)
        for i in range(samples):
            cfg = sample_config(g, p, derive_seed(seed, pi, i))
            depths[i] = _ball_growth_depth(cfg, g.origin, kmax)
        for k in k_grid:
            phat = float((depths >= k).mean())
            rows.append({"p": p, "k": k, "prob": phat, "k_times_prob": k * phat,
                         "samples": samples})
    return rows


def _ball_growth_depth(cfg: BondConfig, x: int, kmax: int) -> int:
    """Largest k <= kmax with a vertex at intrinsic distance exactly k from x."""
    return max(bfs(int(x), cfg.open_incident, kmax)[0].values())
