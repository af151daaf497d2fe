"""Every function, method and class in the library has a use in the
library, every attribute the library stores on `self` is read somewhere,
and every import in a library module is read by that module.

A definition counts as used when its name appears in `src/`, outside its
own definition, as a name, an attribute or an imported name; a method
counts only when its name appears as an attribute (`x.coords`), since a
bare name of the same spelling is a variable, not a call of the method.
A use from `tests/` alone does not count, as test-only code belongs in
`tests/`.  Dunders are exempt, and a re-export in the package
`__init__.py` is not a use.  The match is by name only, so it errs on the
side of keeping code.
An attribute stored as `self.<name> = ...` in `src/` counts as read when
`<name>` is loaded as an attribute of any object in `src/` or `tests/`;
again the match is by name only.
An import counts as read when the name it binds appears in its module as a
name; `__init__.py` re-exports and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tiltrig"


def _uses(path: Path, tree: ast.AST):
    """(name, line, is_attribute) for every name, attribute and import in a parsed file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and path != PACKAGE / "__init__.py":
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno, False


def _trees() -> dict:
    """Parsed `src/` and `tests/` files, by path."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in files}


def unused_definitions() -> list:
    trees = _trees()
    uses = {}
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for name, line, is_attribute in _uses(path, tree):
            uses.setdefault(name, []).append((path, line, is_attribute))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        methods = {
            id(item)
            for node in ast.walk(trees[path])
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            outside = [
                (p, line)
                for p, line, is_attribute in uses.get(node.name, [])
                if not (p == path and node.lineno <= line <= node.end_lineno)
                and (is_attribute or id(node) not in methods)
            ]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_no_unused_definitions():
    assert unused_definitions() == []


def unused_attributes() -> list:
    trees = _trees()
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in read
            ):
                unused.append(f"{path.name}:{node.lineno} {node.attr}")
    return unused


def test_no_unused_attributes():
    assert unused_attributes() == []


def unused_imports() -> list:
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    if bound not in read:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []
