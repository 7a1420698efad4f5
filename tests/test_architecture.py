"""Module boundaries, checked on the source: only `cycles` knows the
long-cycle threshold, and its private names stay inside it."""
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
