"""Dead-name check: every top-level function, class and constant of
src/fastsal/*.py must be named somewhere besides its own definition, in
src/, tests/ or perfbench/. A use is an identifier, an attribute, an
imported name or a string constant equal to the name (perfbench patches
functions by their names as strings). Dunder names are exempt. Uses only
the standard library's ast module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "perfbench")


def _uses(node):
    """The identifiers that node and everything under it name."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _definitions(tree):
    """(name, node) of each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def unused_names(root=ROOT):
    """'module.name' of every top-level definition of the package under root
    that nothing but its own definition names."""
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in SEARCHED for p in sorted((root / d).rglob("*.py"))}
    uses = Counter(u for tree in trees.values() for u in _uses(tree))
    unused = []
    for path in sorted((root / "src" / "fastsal").glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            if uses[name] - Counter(_uses(node))[name] == 0:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_top_level_name_is_used():
    assert unused_names() == []
