"""No library code changes a module or a subspace after it is built.

`modules.radical_series` keeps the chain on the `Representation` the first
time it is asked for, so the chain is valid only while the module stays as
constructed.  `Subspace.sum` and `Subspace.intersect` may return an
operand, so one basis can be held by many families.  This test parses `src/`
and fails on any store to `.mats`, `.dims`, `.basis` or `.pivots`, or to an
item of one, outside an `__init__` (for `.basis` and `.pivots`, also
outside `Subspace.echelon`, which adopts rows already in reduced row-echelon
form with no elimination): an assignment, an augmented assignment, a loop
or `with` target, or a `del`.  A call of a mutating list or dict method on
one of them counts as a store too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tiltrig"
GUARDED = ("mats", "dims", "basis", "pivots")
CONSTRUCTORS = ("Subspace.echelon",)  # besides every `__init__`
MUTATORS = ("append", "extend", "insert", "pop", "remove", "sort", "reverse", "clear", "update", "setdefault", "popitem")


def _guarded_target(node: ast.AST) -> bool:
    """A store or delete of a guarded attribute or of an item of one, or a
    mutating method call on one."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
        node = node.func.value
        return isinstance(node, ast.Attribute) and node.attr in GUARDED
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        node = node.value
    elif not (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del))):
        return False
    return isinstance(node, ast.Attribute) and node.attr in GUARDED


def _allowed_nodes(tree: ast.AST) -> set:
    """The nodes inside every `__init__` method and inside the constructors in CONSTRUCTORS."""
    allowed = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and (node.name == "__init__" or f"{cls.name}.{node.name}" in CONSTRUCTORS):
                allowed.update(id(inner) for inner in ast.walk(node))
    return allowed


def module_mutations() -> list:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = _allowed_nodes(tree)
        for node in ast.walk(tree):
            if _guarded_target(node) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_mutation_outside_init():
    assert module_mutations() == []


def test_guard_sees_each_kind_of_store():
    source = (
        "M.mats = {}\nM.mats['a'] = m\nM.dims['1'] += 1\ndel M.dims\nfor M.dims in x: pass\nN = M.mats\n"
        "U.basis = []\nU.pivots[0] = 1\nU.basis.append(v)\nU.pivots.sort()\nb = U.basis + r\n"
    )
    tree = ast.parse(source)
    assert sorted(node.lineno for node in ast.walk(tree) if _guarded_target(node)) == [1, 2, 3, 4, 5, 7, 8, 9, 10]


def test_only_the_constructors_may_set_a_basis():
    source = (
        "class Subspace:\n"
        "    def __init__(self):\n        self.basis = []\n"
        "    @classmethod\n    def echelon(cls):\n        sub.basis, sub.pivots = [], []\n"
        "    def sum(self, other):\n        self.basis = other.basis\n"
        "def echelon(sub):\n    sub.pivots = []\n"
    )
    tree = ast.parse(source)
    allowed = _allowed_nodes(tree)
    stores = [node.lineno for node in ast.walk(tree) if _guarded_target(node) and id(node) not in allowed]
    assert sorted(stores) == [8, 10]
