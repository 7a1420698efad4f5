"""Module boundaries, checked on the source: only `cycles` knows the
long-cycle threshold, its private names stay inside it, its per-edge-step
kernels never go through coordinates, its long-cycle searches run block by
block, the hashed box traverses through the shared BFS, and one dispatch
loop alone starts process pools."""
import ast
from pathlib import Path

import torusperc

PACKAGE = Path(torusperc.__file__).parent


def _tree(name):
    return ast.parse((PACKAGE / name).read_text())


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def _private_cycles_names(tree):
    """Underscore names taken from `cycles`, by attribute or by import."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "torusperc"):
            aliases.update(a.asname or a.name for a in node.names if a.name == "cycles")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("cycles", "torusperc.cycles"):
            yield from (a.name for a in node.names if a.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            yield node.attr


def test_only_cycles_knows_the_threshold_shortcut():
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "_all_cycles_long" in _identifiers(_tree(path.name)))
    assert users == ["cycles.py"]


def test_no_private_cycles_names_outside_cycles():
    for name in ("estimators.py", "surgery.py", "cli.py"):
        assert list(_private_cycles_names(_tree(name))) == [], name


#: Per-edge-step and radius kernels: displacements come from `edge_offset`
#: and coordinates from mixed-radix digits, never from a numpy call per step.
COORDINATE_FREE = {"from_vertices", "_lift_forest", "_wrap_cycle_witness",
                   "_feasible_vertices", "cycle_radius", "_sup_reach", "_group_reach"}


def _called(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_cycle_kernels_take_no_coordinates():
    found = {}
    for node in ast.walk(_tree("cycles.py")):
        if isinstance(node, ast.FunctionDef) and node.name in COORDINATE_FREE:
            found[node.name] = {_called(c) for c in ast.walk(node) if isinstance(c, ast.Call)}
    assert set(found) == COORDINATE_FREE
    for name, calls in found.items():
        assert not calls & {"displacement", "vertex_coords", "centered_mod"}, name


#: The queries for long cycles that split one subgraph with `_blocks` and
#: search block by block; `_block_of` splits for the two queries about cycles
#: through one vertex.  The vertex count splits a whole configuration with
#: `_edge_blocks` instead.
BLOCK_SEARCHES = {"_block_of", "long_cycle_interior",
                  "_subgraph_contains_long_cycle", "min_long_cycle_cut",
                  "edge_closes_long_cycle"}

#: The walk searches, each of which runs on one block and reads the one
#: closed-walk generator in a plain loop.
WALK_SEARCHES = {"_long_cycle_in_block", "_min_long_cycle_through", "long_cycle_interior"}


def _callers(tree, name):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and _called(c) == name for c in ast.walk(node))}


def test_blocks_alone_compute_bridges():
    # no module computes bridges or keeps a whole-cluster search; the block
    # searches take their blocks from `_blocks`, or for the whole-configuration
    # count from `_edge_blocks`, and search each one through the one
    # per-block routine or a walk search on that block; the walk search is
    # one generator, with no callback protocol and no subgraph that pads a
    # cluster with edgeless vertices
    for path in PACKAGE.glob("*.py"):
        names = set(_identifiers(_tree(path.name)))
        assert not names & {"_bridges", "_cycle_vertices_exact", "_any_cycle_witness",
                            "_long_cycle_vertices_general",
                            "_instrumented_components", "_closed_walk_search",
                            "_first_long_walk", "from_cluster"}, path.name
    tree = _tree("cycles.py")
    assert _callers(tree, "_blocks") == BLOCK_SEARCHES
    assert _callers(tree, "_edge_blocks") == {"long_cycle_vertex_count"}
    assert _callers(tree, "_block_of") == {"vertex_in_long_cycle",
                                           "shortest_long_cycle_through"}
    assert _callers(tree, "_long_cycle_in_block") <= BLOCK_SEARCHES | {
        "_block_cut", "vertex_in_long_cycle", "long_cycle_vertex_count"}
    assert _callers(tree, "_closed_walks") == WALK_SEARCHES
    assert _callers(tree, "_min_long_cycle_through") == {"shortest_long_cycle_through"}


def test_count_reads_the_two_core_without_a_component_map():
    # the vertex count peels the open edges to their 2-core and takes every
    # block's reach in one array pass; the scalar reach serves the radius
    # and the feasibility prune alone
    tree = _tree("cycles.py")
    assert _callers(tree, "_two_core") == {"long_cycle_vertex_count"}
    assert "long_cycle_vertex_count" not in _callers(tree, "component_map")
    assert _callers(tree, "_sup_reach") == {"cycle_radius", "_feasible_vertices"}
    assert _callers(tree, "_group_reach") == {"long_cycle_vertex_count"}


def test_hashed_box_traverses_only_through_bfs():
    (box,) = [node for node in ast.walk(_tree("estimators.py"))
              if isinstance(node, ast.ClassDef) and node.name == "_HashedBox"]
    assert "bfs" in {_called(c) for c in ast.walk(box) if isinstance(c, ast.Call)}
    assert not any(isinstance(node, ast.While) for node in ast.walk(box))


def test_only_map_replicas_starts_a_pool():
    # every process pool is started, and joined, inside one estimator
    # dispatch loop, which runs cheap calls without one
    starters = {(path.name, caller) for path in PACKAGE.glob("*.py")
                for caller in _callers(_tree(path.name), "ProcessPoolExecutor")}
    assert starters == {("estimators.py", "_map_replicas")}
