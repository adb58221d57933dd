"""Every private name of the library is used by the library itself.

Code that only the tests use gets deleted, so each module-level function,
class or constant and each method whose name has one leading underscore must
appear in ``src/gprs`` somewhere outside its own definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gprs"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree):
    """(name, defining node) of each module-level function, class and constant, and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node


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


def test_every_private_name_is_used_by_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not _is_private(name):
                continue
            outside = [
                (m, line) for m, line in uses.get(name, [])
                if m != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []
