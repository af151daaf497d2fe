import pytest

from tiltrig.acceptance import CE3_BLOCK, SL2_BLOCK
from tiltrig.highest_weight import StandardSystem
from tiltrig.quiver import parse_alg_text


@pytest.fixture(scope="session")
def sl2():
    return StandardSystem(parse_alg_text(SL2_BLOCK, name="sl2block"))


@pytest.fixture(scope="session")
def sl2_f2():
    return StandardSystem(parse_alg_text(SL2_BLOCK.replace("field 0", "field 2"), name="sl2block-f2"))


@pytest.fixture(scope="session")
def ce3():
    return StandardSystem(parse_alg_text(CE3_BLOCK, name="ce3"))


def _auslander_alg(n: int, p: int) -> str:
    """`.alg` text of the Auslander algebra of K[x]/(x^n): arrows a_i: i -> i+1, b_i: i+1 -> i."""
    lines = [f"field {p}", "vertex " + " ".join(str(i) for i in range(1, n + 1))]
    lines += [f"order {i + 1} < {i}" for i in range(1, n)]
    for i in range(1, n):
        lines += [f"arrow a{i} {i} {i + 1}", f"arrow b{i} {i + 1} {i}"]
    lines.append("relation a1.b1")
    lines += [f"relation b{i - 1}.a{i - 1} + -1*a{i}.b{i}" for i in range(2, n)]
    lines.append("duality " + " ".join(f"a{i}=b{i}" for i in range(1, n)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def auslander_alg():
    """auslander_alg(n, p) is the `.alg` text over F_p (p = 0: over Q)."""
    return _auslander_alg


@pytest.fixture(scope="session")
def auslander():
    """auslander(n, p) builds a fresh system over F_p (p = 0: over Q)."""
    return lambda n, p: StandardSystem(parse_alg_text(_auslander_alg(n, p), name=f"aus{n}_{p}"))
