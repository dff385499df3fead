"""Every top-level name of the package is reached by the program.

A function, class or constant of ``src/senary``, public or single-underscore
private, must be referenced, as a name or an attribute in the syntax tree,
somewhere in ``src/`` outside its own definition, or in ``scripts/`` or
``bench/``.  A name that only the tests use belongs in the tests, and a
private helper that a deletion leaves behind goes with it.  Dunders are
exempt: the interpreter reads them, not the program.  Text matching would
let a docstring count, so the files are walked with ``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "senary"


def _trees(*dirs):
    return {path: ast.parse(path.read_text()) for d in dirs for path in sorted(d.rglob("*.py"))}


def _definitions(tree):
    """(name, node) of each top-level function, class and constant but the
    dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _references(tree):
    """(name, line) of every ast.Name and ast.Attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_name_is_reached_outside_the_tests():
    src = _trees(PACKAGE)
    outside = _trees(ROOT / "scripts", ROOT / "bench")
    reached_outside = {name for tree in outside.values() for name, _ in _references(tree)}
    unreached = []
    for path, tree in src.items():
        for name, node in _definitions(tree):
            if name in reached_outside:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (other == path and line in own)
                for other, other_tree in src.items()
                for ref, line in _references(other_tree)
            ):
                unreached.append(f"{path.stem}.{name}")
    assert unreached == [], unreached
