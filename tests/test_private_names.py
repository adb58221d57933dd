"""Every name of the library is used by the library, or declared as its API.

Code that only the tests use gets deleted. So:

* each module-level function, class or constant and each method whose name has
  one leading underscore appears in ``src/gprs`` somewhere outside its own
  definition;
* ``gprs.__all__`` is the list in the README's "Public API" section;
* each other public name, module-level or a method, has a caller in
  ``src/gprs`` or in the benchmark (``perfbench/``, its tests aside), or is a
  thin member of the API edge on ``API_EDGE``;
* only ``matrix`` and ``codes`` read the subset layer (``SUBSET_LAYER``).

Uses are matched by name (loads, attributes and imported names), so a caller
of any attribute of the same name counts. The re-exports of ``gprs/__init__``
call nothing and count for no name.
"""

import ast
import re
from pathlib import Path

import gprs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gprs"
BENCH = ROOT / "perfbench"

# public members that no library or benchmark path calls, kept as the thin edge of the API
API_EDGE = {
    "_EvaluationCode.D",
    "GprsCode.generator",
    "Matrix.determinant",
    "Matrix.row_encodings",
    "Polynomial.coefficient",
}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(owner, name, defining node) of each module-level function, class and constant (owner
    None), and each method (owner its class name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield None, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield node.name, item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield None, leaf.id, node


def _uses(tree):
    """(name, line) of each read of a name: loads, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _parse(paths):
    return {path: ast.parse(path.read_text()) for path in sorted(paths)}


def _uses_by_name(trees):
    uses = {}
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    return uses


def _unused(trees, uses, wanted):
    """'module:line owner.name' of each wanted definition with no use outside its own lines."""
    out = []
    for path, tree in trees.items():
        for owner, name, node in _definitions(tree):
            if not wanted(owner, name):
                continue
            outside = [
                (p, line) for p, line in uses.get(name, [])
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                out.append(f"{path.name}:{node.lineno} {_qualified(owner, name)}")
    return out


def _qualified(owner, name):
    return name if owner is None else f"{owner}.{name}"


def test_every_private_name_is_used_by_the_library():
    trees = _parse(SRC.glob("*.py"))
    assert _unused(trees, _uses_by_name(trees), lambda owner, name: _is_private(name)) == []


# the subset layer: run sizing, the shape cache and subset ranks, read by the scans beside it
SUBSET_LAYER = {"_RUN_BYTES", "_INDEX_BYTES", "subset_runs", "_subset_index", "_drop_ranks"}


def test_only_matrix_and_codes_read_the_subset_layer():
    trees = _parse(p for p in SRC.glob("*.py") if p.name not in ("matrix.py", "codes.py"))
    reads = [f"{path.name}:{line} {name}" for path, tree in trees.items()
             for name, line in _uses(tree) if name in SUBSET_LAYER]
    assert reads == []


def _readme_api():
    """The names in backticks in the "* " bullets of the README's "Public API" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* .*(?:\n  .*)*", section, re.M)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_all_is_the_api_the_readme_declares():
    declared = _readme_api()
    assert len(declared) == len(set(declared))
    assert sorted(gprs.__all__) == sorted(declared)


def _public_callers():
    """The library's definitions, and the uses of names on library and benchmark paths."""
    trees = _parse(SRC.glob("*.py"))
    bench = _parse(p for p in BENCH.glob("*.py") if not p.name.startswith("test_"))
    callers = {path: tree for path, tree in {**trees, **bench}.items() if path.name != "__init__.py"}
    return trees, _uses_by_name(callers)


def _undeclared_public(owner, name):
    return not (_is_private(name) or name.startswith("__") or owner is None and name in gprs.__all__)


def test_every_public_name_has_a_caller_or_is_declared():
    trees, uses = _public_callers()
    uncalled = _unused(trees, uses, _undeclared_public)
    assert [entry for entry in uncalled if entry.split()[1] not in API_EDGE] == []
    # and the edge list names only members that exist and still have no caller
    assert sorted(entry.split()[1] for entry in uncalled) == sorted(API_EDGE)
