"""Every true division in the library has a `Fraction(...)` operand.

Over Q an integral entry is an int, and int / int is a float, so a division
of two entries would leave exact arithmetic without an error.  Division by
a `Fraction` stays exact.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tiltrig"


def _is_fraction(node: ast.AST) -> bool:
    """A call `Fraction(...)` or `<module>.Fraction(...)`."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction"
    )


def test_true_divisions_have_a_fraction_operand():
    divisions, inexact = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                operands = (node.value,)
            else:
                continue
            divisions += 1
            if not any(map(_is_fraction, operands)):
                inexact.append(f"{path.name}:{node.lineno}")
    assert not inexact, inexact
    assert divisions  # the walk sees the division in `linalg.extend_echelon`
