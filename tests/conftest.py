import numpy as np
import pytest

from torusperc.lattice import get_torus
from torusperc.percolation import BondConfig


def edge_of(g, a, b):
    e = g.edge_between(g.vertex_index(list(a)), g.vertex_index(list(b)))
    assert e is not None, f"{a} and {b} are not adjacent"
    return e


def config_from_edges(g, open_edges, p=0.5):
    mask = np.zeros(g.num_edges, dtype=bool)
    mask[list(open_edges)] = True
    return BondConfig.from_bits(g, mask, p=p)


def patch_edges(g, cells_x, cells_y):
    """All edges of an axis-aligned vertex patch [0..cells_x] x [0..cells_y]."""
    edges = []
    for x in range(cells_x + 1):
        for y in range(cells_y + 1):
            if x < cells_x:
                edges.append(edge_of(g, (x, y), (x + 1, y)))
            if y < cells_y:
                edges.append(edge_of(g, (x, y), (x, y + 1)))
    return edges


def wrap_line_edges(g, axis=0):
    """The straight cycle wrapping the torus once along one axis."""
    r, d = g.r, g.d
    coords = []
    for i in range(r):
        c = [0] * d
        c[axis] = -(r // 2) + i
        coords.append(tuple(c))
    return [edge_of(g, coords[i], coords[(i + 1) % r]) for i in range(r)]


@pytest.fixture
def g25():
    return get_torus(2, 5)


@pytest.fixture
def g28():
    return get_torus(2, 8)


@pytest.fixture
def g23():
    return get_torus(2, 3)


@pytest.fixture
def no_pool(monkeypatch):
    """Make any process pool start in the estimators fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr("torusperc.estimators.ProcessPoolExecutor", refuse)
