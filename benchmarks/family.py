"""Auslander algebras of K[x]/(x^n) as `.alg` text.

Quiver 1 <-> 2 <-> ... <-> n with arrows a_i: i -> i+1 and b_i: i+1 -> i,
relations a1.b1 = 0 and b{i-1}.a{i-1} = a{i}.b{i}, duality a_i = b_i and
weight order n < ... < 2 < 1.  These algebras are quasi-hereditary
(Dlab-Ringel, J. London Math. Soc. 1989) and grow with n, so the benchmark
needs no downloaded inputs.
"""

from __future__ import annotations


def auslander_alg(n: int, p: int) -> str:
    """`.alg` text of the Auslander algebra of K[x]/(x^n) over F_p (Q when p = 0)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    lines = [
        f"# Auslander algebra of K[x]/(x^{n}), dim {auslander_dim(n)}",
        f"field {p}",
        "vertex " + " ".join(str(i) for i in range(1, n + 1)),
    ]
    lines += [f"order {i + 1} < {i}" for i in range(n - 1, 0, -1)]
    for i in range(1, n):
        lines.append(f"arrow a{i} {i} {i + 1}")
        lines.append(f"arrow b{i} {i + 1} {i}")
    lines.append("relation a1.b1")
    lines += [f"relation b{i - 1}.a{i - 1} + -1*a{i}.b{i}" for i in range(2, n)]
    lines.append("duality " + " ".join(f"a{i}=b{i}" for i in range(1, n)))
    return "\n".join(lines) + "\n"


def auslander_dim(n: int) -> int:
    """dim A = sum over i, j of min(i, j) = n(n+1)(2n+1)/6."""
    return n * (n + 1) * (2 * n + 1) // 6


def projective_injective_profile(n: int) -> list:
    """Radical layers of P(n), which is T(1): layer k holds L(n - j) once for
    each 0 <= j <= min(k, 2n - 2 - k) with j = k mod 2.

    Its dimension vector is (1, 2, ..., n), so dim T(1) = n(n+1)/2.
    """
    return [
        {str(n - j): 1 for j in range(k % 2, min(k, 2 * n - 2 - k) + 1, 2)}
        for k in range(2 * n - 1)
    ]
