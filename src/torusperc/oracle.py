"""Brute-force ground truth at fixture scale.

Everything here enumerates: all edge-self-avoiding cycles of a small open
graph, exact minimum cuts by hitting-set search over the enumerated cycles,
and exact event probabilities by summing over every configuration of a tiny
geometry in rational arithmetic.  Hard size guards keep these impossible to
invoke at scale by accident.
"""
from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import numpy as np

from .cycles import CycleWitness, OpenSubgraph, long_cycle_threshold
from .percolation import BondConfig

CYCLE_GUARD_EDGES = 40
CONFIG_GUARD_EDGES = 24


class OracleGuardError(RuntimeError):
    """The input exceeds the oracle's hard size guard."""


def brute_force_radius(g, vertices) -> int:
    """min over vertices u of max over vertices v of the torus sup-distance,
    pair by pair: the definition that `cycles.cycle_radius` computes per axis."""
    verts = sorted({int(v) for v in vertices})
    coords = g.vertex_coords(np.asarray(verts, dtype=np.int64))
    half = g.r // 2
    return min((int(np.abs((coords - c + half) % g.r - half).max()) for c in coords),
               default=0)


def _canonical_closed_walk(verts: list[int]) -> tuple[int, ...]:
    """Canonical form of a closed walk: among all rotations that start at an
    occurrence of the smallest vertex, in both directions, the lexicographically
    smallest open sequence."""
    seq = verts[:-1]
    m = len(seq)
    smallest = min(seq)
    best = None
    for i, v in enumerate(seq):
        if v != smallest:
            continue
        fwd = tuple(seq[(i + j) % m] for j in range(m))
        rev = tuple(seq[(i - j) % m] for j in range(m))
        for cand in (fwd, rev):
            if best is None or cand < best:
                best = cand
    return best


def enumerate_all_cycles(sub: OpenSubgraph, max_length: int | None = None,
                         guard: int = CYCLE_GUARD_EDGES,
                         override: bool = False) -> list[CycleWitness]:
    """Every edge-self-avoiding cycle exactly once, in canonical form.

    Walks may pass through vertices repeatedly (figure-eights included); each
    cycle is reported from its smallest vertex with the lexicographically
    smaller direction.  The long-flag comes from `brute_force_radius`.
    """
    if sub.num_edges > guard and not override:
        raise OracleGuardError(
            f"{sub.num_edges} open edges exceeds the oracle guard ({guard})")
    g = sub.geometry
    t = long_cycle_threshold(g)
    out: dict[tuple, CycleWitness] = {}

    def dfs(start: int):
        # enumerate walks whose minimum vertex is `start`
        path = [start]
        used: list[int] = []
        used_set: set[int] = set()

        def step(v: int):
            for e, w in sub.adj[v]:
                if e in used_set or w < start:
                    continue
                if max_length is not None and len(used) + 1 > max_length:
                    continue
                used.append(e)
                used_set.add(e)
                path.append(w)
                if w == start and len(used) >= 3:
                    key = _canonical_closed_walk(path)
                    if key not in out:
                        cyc = CycleWitness.from_vertices(g, list(key) + [key[0]])
                        out[key] = dataclasses.replace(
                            cyc, long=brute_force_radius(g, key) >= t)
                step(w)
                path.pop()
                used_set.discard(used.pop())

        step(start)

    for s in sub.vertices:
        dfs(s)
    return sorted(out.values(), key=lambda c: (c.length, c.vertices))


def exact_min_long_cycle_cut(sub: OpenSubgraph, guard: int = CYCLE_GUARD_EDGES,
                             override: bool = False) -> int:
    """Smallest k such that removing k edges leaves no long cycle.

    Removing edges never creates cycles, so this is the minimum hitting set
    of the enumerated long cycles' edge sets.
    """
    cycles = enumerate_all_cycles(sub, guard=guard, override=override)
    long_sets = [frozenset(c.edges) for c in cycles if c.long]
    if not long_sets:
        return 0
    universe = sorted(set().union(*long_sets))
    for k in range(1, len(universe) + 1):
        for subset in itertools.combinations(universe, k):
            s = set(subset)
            if all(s & es for es in long_sets):
                return k
    raise AssertionError("removing every candidate edge must hit all cycles")


def exhaustive_config_probability(geometry, p, predicate,
                                  guard: int = CONFIG_GUARD_EDGES,
                                  override: bool = False) -> Fraction:
    """Exact probability of `predicate(config)` by summing all 2^E configs.

    p is treated as an exact rational; per-popcount counting keeps the sum to
    E+1 rational terms.
    """
    E = geometry.num_edges
    if E > guard and not override:
        raise OracleGuardError(f"{E} edges exceeds the oracle guard ({guard})")
    p = Fraction(p)
    counts = [0] * (E + 1)
    for bits in range(1 << E):
        cfg = BondConfig.from_bits(geometry, bits, p=float(p))
        if predicate(cfg):
            counts[bits.bit_count()] += 1
    total = Fraction(0)
    q = 1 - p
    for m, c in enumerate(counts):
        if c:
            total += c * p**m * q**(E - m)
    return total


def verify_coupling_property_b(sample, k_values, guard_edges: int = 400,
                               path_budget: int = 2_000_000) -> list[dict]:
    """Check the disjoint-connection witness on every lattice-over-torus
    discrepancy of a coupled sample.

    For each k and each window vertex y reachable from the origin within k on
    the lattice side while its torus representative is not reachable within k
    on the torus, search exhaustively for a hub z and distinct r-equivalent
    v1, v2 with four edge-disjoint open paths (origin-z, z-v1, z-v2, v1-y),
    each of length at most k.  Returns one record per discrepancy with a
    `witness_found` flag; an empty list means the check was vacuous.
    """
    from .coupling import lattice_distances, torus_distances

    window = sample.window
    if window.num_edges > guard_edges:
        raise OracleGuardError(
            f"window has {window.num_edges} edges, oracle guard is {guard_edges}")
    g = sample.torus_config.geometry
    records = []
    kmax = max(k_values)
    dist_z = lattice_distances(sample, kmax)
    dist_t = torus_distances(sample, kmax)
    sub = OpenSubgraph(window, [e for e in range(window.num_edges)
                                if sample.lattice_open[e]])
    origin = window.vertex_index([0] * window.d)
    for k in sorted(k_values):
        for y, dy in dist_z.items():
            if dy > k:
                continue
            x = g.vertex_index(window.vertex_coords(y))
            if dist_t.get(int(x), kmax + 1) <= k:
                continue
            found = _disjoint_connection_witness(sub, window, origin, y, k,
                                                 g.r, path_budget)
            records.append({"k": k, "y": int(y), "x": int(x),
                            "witness_found": found})
    return records


def _paths_up_to(sub: OpenSubgraph, a: int, b: int, k: int, forbidden: frozenset,
                 budget: list) -> list[frozenset]:
    """All edge-simple open paths a..b of length <= k avoiding `forbidden`."""
    out = []

    def step(v, used: frozenset):
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleGuardError("path enumeration budget exhausted")
        if v == b:
            out.append(used)
            return
        if len(used) == k:
            return
        for e, w in sub.adj.get(v, ()):
            if e in used or e in forbidden:
                continue
            step(w, used | {e})

    if a == b:
        return [frozenset()]
    step(a, frozenset())
    return out


def _disjoint_connection_witness(sub: OpenSubgraph, window, origin: int, y: int,
                                 k: int, r: int, path_budget: int) -> bool:
    from .lattice import r_equivalent

    budget = [path_budget]
    coords = {v: tuple(window.vertex_coords(v)) for v in sub.adj}
    verts = sorted(sub.adj)
    for z in verts:
        p0 = _paths_up_to(sub, origin, z, k, frozenset(), budget)
        if not p0:
            continue
        for v1 in verts:
            for v2 in verts:
                if v1 == v2:
                    continue
                if not r_equivalent(coords[v1], coords[v2], r):
                    continue
                for used0 in p0:
                    for used1 in _paths_up_to(sub, z, v1, k, used0, budget):
                        for used2 in _paths_up_to(sub, z, v2, k, used0 | used1,
                                                  budget):
                            if _paths_up_to(sub, v1, y, k,
                                            used0 | used1 | used2, budget):
                                return True
    return False
