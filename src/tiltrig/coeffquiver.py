"""Coefficient quivers of modules: one node per adapted basis vector, one
edge per non-zero arrow matrix entry, plus DOT/ASCII rendering and the
graph-level pruning rule for stretched-subquotient candidates.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Mat, solve
from .modules import Representation, SubFamily, flag_complements, radical_series
from .quiver import LoewyProfile, format_profile


class CQNode:
    def __init__(self, node_id: int, label: str, layer: int):
        self.id = node_id
        self.label = label
        self.layer = layer

    def __repr__(self) -> str:
        return f"CQNode({self.id}: {self.label}@{self.layer})"


class CQEdge:
    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:
        return f"CQEdge({self.src} -> {self.dst})"


class CoefficientQuiver:
    def __init__(self, nodes: List[CQNode], edges: List[CQEdge]):
        self.nodes = nodes
        self.edges = edges

    def layer_profile(self) -> LoewyProfile:
        depth = max((n.layer for n in self.nodes), default=-1) + 1
        out: LoewyProfile = [Counter() for _ in range(depth)]
        for n in self.nodes:
            out[n.layer][n.label] += 1
        return out


def extract(M: Representation) -> CoefficientQuiver:
    """Coefficient quiver w.r.t. a radical-adapted basis (bottom-up pivoting).

    The basis of each vertex space refines the radical flag, deepest layer
    first, so every edge points to a strictly deeper layer and the node
    multiset per layer equals the Loewy profile.
    """
    F = M.field
    basis_vectors = flag_complements(radical_series(M), SubFamily(M))

    nodes: List[CQNode] = []
    index: Dict[Tuple[str, int], int] = {}
    for v in M.vertices:
        for k, (depth, _) in enumerate(basis_vectors[v]):
            index[(v, k)] = len(nodes)
            nodes.append(CQNode(len(nodes), v, depth))

    edges: List[CQEdge] = []
    for a, (u, w) in M.algebra.quiver.arrows.items():
        if M.dims[u] == 0 or M.dims[w] == 0:
            continue
        B = Mat.from_cols(F, [vec for _, vec in basis_vectors[w]])
        for j, (_, vec) in enumerate(basis_vectors[u]):
            img = M.mats[a].apply(vec)
            coords = solve(B, img)
            if coords is None:
                raise ValueError("adapted basis failed to span an arrow image")
            for i, c in enumerate(coords):
                if c != F.zero:
                    edges.append(CQEdge(index[(u, j)], index[(w, i)]))
    seen = set()
    unique_edges = []
    for e in edges:
        if (e.src, e.dst) not in seen:
            seen.add((e.src, e.dst))
            unique_edges.append(e)
    return CoefficientQuiver(nodes, unique_edges)


def render(cq: CoefficientQuiver, fmt: str = "dot", label_order: Optional[Sequence[str]] = None) -> str:
    if fmt == "dot":
        return render_dot(cq)
    if fmt == "ascii":
        return format_profile(cq.layer_profile(), label_order or ())
    raise ValueError(f"unknown render format {fmt!r}")


def render_dot(cq: CoefficientQuiver) -> str:
    lines = ["digraph coeffquiver {", "  rankdir=TB;", "  node [shape=plaintext];"]
    depth = max((n.layer for n in cq.nodes), default=-1) + 1
    for layer in range(depth):
        members = [n for n in cq.nodes if n.layer == layer]
        lines.append("  { rank = same;")
        for n in members:
            lines.append(f'    n{n.id} [label="{n.label}"];')
        lines.append("  }")
    for e in cq.edges:
        lines.append(f"  n{e.src} -> n{e.dst} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- graph-level pruning for stretched-subquotient candidates ---------------------------


class PruneVerdict:
    def __init__(self, head: CQNode, middle: CQNode, bottom: CQNode, verdict: str, escape: Optional[str]):
        self.head = head
        self.middle = middle
        self.bottom = bottom
        self.verdict = verdict  # "IMPOSSIBLE" | "POSSIBLE"
        self.escape = escape  # None | "duplicated-middle" | "second-head"

    def __repr__(self) -> str:
        return f"PruneVerdict({self.head.label}@{self.head.layer} -> {self.middle.label} -> {self.bottom.label}: {self.verdict})"


def lemma_prune(
    cq: CoefficientQuiver,
    lam: str,
    mu: str,
    ext_table: Dict[Tuple[str, str], bool],
    less,
) -> List[PruneVerdict]:
    """Repeated-factor pruning of candidate stretched configurations.

    For a copy of `lam` connecting down through a middle factor `lam'` (with
    lam' not below lam) to a copy of `mu` two layers down, the configuration
    cannot carry a stretched subquotient unless a second copy of the middle
    factor joins the same head and bottom, or a second copy of `lam`
    connects down to the middle factor.  Requires mu > lam and a recorded
    first-layer occurrence of L(mu) in the radical of P(lam).
    """
    if not less(lam, mu):
        raise ValueError("pruning applies only to mu strictly above lam")
    if not ext_table.get((lam, mu), False):
        raise ValueError(f"ext table does not place L({mu}) on the first radical layer of P({lam})")
    by_id = {n.id: n for n in cq.nodes}
    down: Dict[int, List[int]] = {}
    up: Dict[int, List[int]] = {}
    for e in cq.edges:
        down.setdefault(e.src, []).append(e.dst)
        up.setdefault(e.dst, []).append(e.src)
    verdicts: List[PruneVerdict] = []
    for head in cq.nodes:
        if head.label != lam:
            continue
        for mid_id in down.get(head.id, []):
            mid = by_id[mid_id]
            if mid.layer != head.layer + 1 or less(mid.label, lam):
                continue
            for bot_id in down.get(mid.id, []):
                bot = by_id[bot_id]
                if bot.label != mu or bot.layer != head.layer + 2:
                    continue
                escape = None
                for other_id in down.get(head.id, []):
                    other = by_id[other_id]
                    if (
                        other.id != mid.id
                        and other.label == mid.label
                        and bot.id in down.get(other.id, [])
                    ):
                        escape = "duplicated-middle"
                        break
                if escape is None:
                    for other_head_id in up.get(mid.id, []):
                        other_head = by_id[other_head_id]
                        if other_head.id != head.id and other_head.label == lam:
                            escape = "second-head"
                            break
                verdicts.append(
                    PruneVerdict(head, mid, bot, "POSSIBLE" if escape else "IMPOSSIBLE", escape)
                )
    return verdicts
