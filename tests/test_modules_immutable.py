"""No library code changes a module's matrices or dimensions after it is built.

`modules.radical_series` keeps the chain on the `Representation` the first
time it is asked for, so the chain is valid only while the module stays as
constructed.  This test parses `src/` and fails on any store to `.mats`,
`.mats[...]`, `.dims` or `.dims[...]` outside an `__init__`: an assignment,
an augmented assignment, a loop or `with` target, or a `del`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tiltrig"
GUARDED = ("mats", "dims")


def _guarded_target(node: ast.AST) -> bool:
    """A store or delete of `x.mats`, `x.dims`, or an item of either."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        node = node.value
    elif not (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))):
        return False
    return isinstance(node, ast.Attribute) and node.attr in GUARDED


def module_mutations() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if _guarded_target(node) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_mutation_outside_init():
    assert module_mutations() == []


def test_guard_sees_each_kind_of_store():
    source = "M.mats = {}\nM.mats['a'] = m\nM.dims['1'] += 1\ndel M.dims\nfor M.dims in x: pass\nN = M.mats\n"
    tree = ast.parse(source)
    assert sorted(node.lineno for node in ast.walk(tree) if _guarded_target(node)) == [1, 2, 3, 4, 5]
