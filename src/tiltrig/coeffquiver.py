"""Coefficient quivers of modules: one node per adapted basis vector, one
edge per non-zero arrow matrix entry, plus DOT/ASCII rendering and the
graph-level pruning rule for stretched-subquotient candidates.

A coefficient quiver is the pair (nodes, edges).  Node i is the (label,
layer) of the i-th basis vector, and an edge is a (src, dst) pair of node
indices.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Mat, solve
from .modules import Representation, SubFamily, flag_complements, radical_series
from .quiver import LoewyProfile, format_profile

Node = Tuple[str, int]
Edge = Tuple[int, int]


def layer_profile(nodes: Sequence[Node]) -> LoewyProfile:
    """The labels of the nodes on each layer."""
    out: LoewyProfile = [Counter() for _ in range(_depth(nodes))]
    for label, layer in nodes:
        out[layer][label] += 1
    return out


def _depth(nodes: Sequence[Node]) -> int:
    return max((layer for _, layer in nodes), default=-1) + 1


def extract(M: Representation) -> Tuple[List[Node], List[Edge]]:
    """Coefficient quiver w.r.t. a radical-adapted basis (bottom-up pivoting).

    The basis of each vertex space refines the radical flag, deepest layer
    first, so every edge points to a strictly deeper layer and the node
    multiset per layer equals the Loewy profile.  Each edge is kept once,
    in the order first seen.
    """
    F = M.field
    basis_vectors = flag_complements(radical_series(M), SubFamily(M))

    nodes: List[Node] = []
    start: Dict[str, int] = {}  # index of the first node at each vertex
    for v in M.vertices:
        start[v] = len(nodes)
        nodes.extend((v, depth) for depth, _ in basis_vectors[v])

    edges: Dict[Edge, None] = {}
    for a, (u, w) in M.algebra.quiver.arrows.items():
        if M.dims[u] == 0 or M.dims[w] == 0:
            continue
        B = Mat.from_cols(F, [vec for _, vec in basis_vectors[w]])
        for j, (_, vec) in enumerate(basis_vectors[u]):
            coords = solve(B, M.mats[a].apply(vec))
            if coords is None:
                raise ValueError("adapted basis failed to span an arrow image")
            for i, c in enumerate(coords):
                if c != F.zero:
                    edges[start[u] + j, start[w] + i] = None
    return nodes, list(edges)


def render(cq: Tuple[List[Node], List[Edge]], fmt: str = "dot", label_order: Optional[Sequence[str]] = None) -> str:
    if fmt == "dot":
        return render_dot(cq)
    if fmt == "ascii":
        return format_profile(layer_profile(cq[0]), label_order or ())
    raise ValueError(f"unknown render format {fmt!r}")


def render_dot(cq: Tuple[List[Node], List[Edge]]) -> str:
    nodes, edges = cq
    lines = ["digraph coeffquiver {", "  rankdir=TB;", "  node [shape=plaintext];"]
    for layer in range(_depth(nodes)):
        lines.append("  { rank = same;")
        lines.extend(f'    n{i} [label="{label}"];' for i, (label, at) in enumerate(nodes) if at == layer)
        lines.append("  }")
    lines.extend(f"  n{src} -> n{dst} [style=solid];" for src, dst in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- graph-level pruning for stretched-subquotient candidates ---------------------------


def lemma_prune(
    cq: Tuple[List[Node], List[Edge]],
    lam: str,
    mu: str,
    ext_table: Dict[Tuple[str, str], bool],
    less,
) -> List[Tuple[int, int, int, Optional[str]]]:
    """Repeated-factor pruning of candidate stretched configurations.

    For a copy of `lam` connecting down through a middle factor `lam'` (with
    lam' not below lam) to a copy of `mu` two layers down, the configuration
    cannot carry a stretched subquotient unless a second copy of the middle
    factor joins the same head and bottom, or a second copy of `lam`
    connects down to the middle factor.  Requires mu > lam and a recorded
    first-layer occurrence of L(mu) in the radical of P(lam).

    Returns one (head, middle, bottom, escape) tuple of node indices per
    configuration.  The escape is "duplicated-middle" or "second-head", and
    None when the configuration is impossible.
    """
    if not less(lam, mu):
        raise ValueError("pruning applies only to mu strictly above lam")
    if not ext_table.get((lam, mu), False):
        raise ValueError(f"ext table does not place L({mu}) on the first radical layer of P({lam})")
    nodes, edges = cq
    down: Dict[int, List[int]] = {}
    up: Dict[int, List[int]] = {}
    for src, dst in edges:
        down.setdefault(src, []).append(dst)
        up.setdefault(dst, []).append(src)
    verdicts = []
    for head, (label, layer) in enumerate(nodes):
        if label != lam:
            continue
        for mid in down.get(head, []):
            mid_label, mid_layer = nodes[mid]
            if mid_layer != layer + 1 or less(mid_label, lam):
                continue
            for bottom in down.get(mid, []):
                if nodes[bottom] != (mu, layer + 2):
                    continue
                if any(other != mid and nodes[other][0] == mid_label and bottom in down.get(other, []) for other in down[head]):
                    escape = "duplicated-middle"
                elif any(other != head and nodes[other][0] == lam for other in up[mid]):
                    escape = "second-head"
                else:
                    escape = None
                verdicts.append((head, mid, bottom, escape))
    return verdicts
