"""Grothendieck-group arithmetic for a block: decomposition and layered
tables, wall-crossing on characters, the Hom-dimension pairing, projective
layers read off the layered table by reciprocity, and the head placements
that reproduce a Loewy profile.  The layer formula and the reciprocity
check themselves are `quiver.layers_from_placement` and
`quiver.bgg_symmetry_check`, shared with the module side.

The bundled data for the restricted SL4 block (labels 1, 2, 3, 3', fl, fl',
4, 5) carries the simple-character decomposition rows, the Weyl radical
layers, and the alcove wall map; walls with no recorded source stay Unknown
and any query touching them fails loudly.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .quiver import LoewyProfile, WeightPoset, _add_shifted, layers_from_placement


class BlockError(ValueError):
    pass


class InsufficientAlcoveData(BlockError):
    def __init__(self, label: str, generator: str, kind: str = "unknown"):
        super().__init__(f"insufficient alcove data: wall ({label}, {generator}) is {kind}")
        self.label = label
        self.generator = generator
        self.kind = kind


class BlockData:
    """Labels, order, decomposition + layered tables, and the wall map."""

    def __init__(
        self,
        labels: Sequence[str],
        covers: Sequence[Tuple[str, str]],
        layered: Dict[str, LoewyProfile],
        decomposition: Optional[Dict[str, Counter]] = None,
        walls: Optional[Dict[Tuple[str, str], Tuple[str, Optional[str]]]] = None,
        generators: Sequence[str] = ("s0", "s1", "s2", "s3"),
    ):
        self.labels = list(labels)
        self.poset = WeightPoset(self.labels, covers)
        self.generators = list(generators)
        self.layered = {l: [Counter(layer) for layer in layers] for l, layers in layered.items()}
        for l in self.labels:
            if l not in self.layered:
                raise BlockError(f"no layered row for {l!r}")
        sums = {l: sum(self.layered[l], Counter()) for l in self.labels}
        if decomposition is None:
            decomposition = sums
        self.decomposition = {l: Counter(decomposition[l]) for l in self.labels}
        for l in self.labels:
            if self.decomposition[l] != sums[l]:
                raise BlockError(f"layered table for {l!r} does not sum to its decomposition row")
            if self.decomposition[l][l] != 1:
                raise BlockError(f"decomposition row for {l!r} is not unitriangular at {l!r}")
            for mu, c in self.decomposition[l].items():
                if c < 0 or (mu != l and not self.poset.less(mu, l)):
                    raise BlockError(f"decomposition entry [{l}:{mu}] breaks unitriangularity")
        self.walls: Dict[Tuple[str, str], Tuple[str, Optional[str]]] = {}
        for (l, s), entry in (walls or {}).items():
            if l not in self.labels or s not in self.generators:
                raise BlockError(f"wall entry names unknown label or generator: {(l, s)}")
            self.walls[(l, s)] = entry
        for (l, s), (kind, partner) in self.walls.items():
            if kind in ("up", "down"):
                opposite = ("down" if kind == "up" else "up", l)
                if self.walls.get((partner, s)) != opposite:
                    raise BlockError(f"wall map is not antisymmetric at ({l}, {s})")

    def wall(self, label: str, generator: str) -> Tuple[str, Optional[str]]:
        if generator not in self.generators:
            raise BlockError(f"unknown generator {generator!r}")
        if label not in self.labels:
            raise BlockError(f"unknown label {label!r}")
        return self.walls.get((label, generator), ("unknown", None))


class Character:
    """Integer vector in the simple (L) or standard (delta) basis."""

    def __init__(self, basis: str, coeffs: Dict[str, int]):
        if basis not in ("L", "delta"):
            raise BlockError(f"unknown basis {basis!r}")
        self.basis = basis
        self.coeffs = Counter({l: int(c) for l, c in coeffs.items() if c})

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and other.basis == self.basis and other.coeffs == self.coeffs

    def __repr__(self) -> str:
        return f"Character({self.basis}: {dict(self.coeffs)})"


def simple_character(label: str) -> Character:
    return Character("L", {label: 1})


def wall_cross(generator: str, c: Character, b: BlockData) -> Character:
    """Character of the wall-crossing image, in the basis of the input.

    Standard basis: crossing adds the wall partner. Simple basis: Down and
    Exterior walls kill the simple; an Up wall expands through the standard
    character and recursively subtracts the lower simples.
    """
    if c.basis == "delta":
        out: Counter = Counter()
        for lam, k in c.coeffs.items():
            kind, partner = b.wall(lam, generator)
            if kind == "unknown":
                raise InsufficientAlcoveData(lam, generator)
            if kind == "exterior":
                raise InsufficientAlcoveData(lam, generator, kind="exterior (no standard partner)")
            out[lam] += k
            out[partner] += k
        return Character("delta", out)

    memo: Dict[str, Counter] = {}

    def cross_simple(lam: str) -> Counter:
        if lam in memo:
            return memo[lam]
        kind, partner = b.wall(lam, generator)
        if kind == "unknown":
            raise InsufficientAlcoveData(lam, generator)
        if kind in ("down", "exterior"):
            memo[lam] = Counter()
            return memo[lam]
        total: Counter = Counter()
        for source in (lam, partner):
            for mu, d in b.decomposition[source].items():
                total[mu] += d
        for mu, d in b.decomposition[lam].items():
            if mu == lam:
                continue
            for nu, e in cross_simple(mu).items():
                total[nu] -= d * e
        memo[lam] = Counter({l: v for l, v in total.items() if v})
        return memo[lam]

    out = Counter()
    for lam, k in c.coeffs.items():
        for mu, v in cross_simple(lam).items():
            out[mu] += k * v
    return Character("L", out)


def hom_dim(standard_mults: Dict[str, int], costandard_mults: Dict[str, int], b: BlockData) -> int:
    """Sum over labels of the product of filtration multiplicities."""
    for mults in (standard_mults, costandard_mults):
        for l, k in mults.items():
            if l not in b.labels:
                raise BlockError(f"unknown label {l!r}")
            if k < 0:
                raise BlockError("filtration multiplicities must be non-negative")
    return sum(standard_mults.get(l, 0) * costandard_mults.get(l, 0) for l in b.labels)


def projective_placement(b: BlockData, mu: str) -> List[Tuple[str, int]]:
    """Head placement of P(mu) read off the layered table by reciprocity."""
    placement = []
    for lam in b.labels:
        for t, layer in enumerate(b.layered[lam]):
            for _ in range(layer[mu]):
                placement.append((lam, t))
    return placement


def projective_layers(b: BlockData, mu: str) -> LoewyProfile:
    return layers_from_placement(projective_placement(b, mu), b.layered)


def solve_placement(target: LoewyProfile, mults: Dict[str, int], b: BlockData) -> List[List[Tuple[str, int]]]:
    """All shift assignments reproducing the target profile (exhaustive search)."""
    target = [Counter(layer) for layer in target]
    items: List[str] = []
    for l in b.labels:
        items.extend([l] * mults.get(l, 0))
    depth = len(target)
    results: List[List[Tuple[str, int]]] = []

    def recurse(i: int, layers: LoewyProfile, chosen: List[Tuple[str, int]], last_shift_same: int):
        if i == len(items):
            padded = layers + [Counter()] * (depth - len(layers))
            if padded == target:
                results.append(list(chosen))
            return
        lam = items[i]
        profile = b.layered[lam]
        start = last_shift_same if i > 0 and items[i - 1] == lam else 0
        for shift in range(start, depth - len(profile) + 1):  # the shifted profile must end within depth
            new_layers = [Counter(l) for l in layers]
            _add_shifted(new_layers, profile, shift)
            touched = range(shift, shift + len(profile))
            if all(c <= target[s][l] for s in touched for l, c in new_layers[s].items()):
                chosen.append((lam, shift))
                recurse(i + 1, new_layers, chosen, shift)
                chosen.pop()

    recurse(0, [], [], 0)
    return results


# -- formatting and file formats -------------------------------------------------------


def format_character(c: Character, b: BlockData) -> str:
    parts = []
    for l in reversed(b.labels):
        k = c.coeffs.get(l, 0)
        if k == 0:
            continue
        parts.append(l if k == 1 else f"{k}·{l}")
    return " + ".join(parts) if parts else "0"


def parse_layers(text: str, labels: Sequence[str]) -> LoewyProfile:
    out: LoewyProfile = []
    for chunk in text.split("|"):
        layer = Counter()
        chunk = chunk.strip()
        if chunk and chunk != "-":
            for item in chunk.split(","):
                item = item.strip()
                if item not in labels:
                    raise BlockError(f"unknown label {item!r} in layer data")
                layer[item] += 1
        out.append(layer)
    return out


def parse_block_text(text: str) -> BlockData:
    labels: List[str] = []
    covers: List[Tuple[str, str]] = []
    generators: List[str] = []
    layered: Dict[str, LoewyProfile] = {}
    decomposition: Dict[str, Counter] = {}
    walls: Dict[Tuple[str, str], Tuple[str, Optional[str]]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            kw, rest = (line.split(None, 1) + [""])[:2]
            if kw == "labels":
                labels = rest.split()
            elif kw == "generators":
                generators = rest.split()
            elif kw == "order":
                a, lt, bb = rest.split()
                if lt != "<":
                    raise BlockError("expected 'order <a> < <b>'")
                covers.append((a, bb))
            elif kw == "char":
                name, _, body = rest.partition(":")
                decomposition[name.strip()] = Counter(body.split())
            elif kw == "delta":
                name, _, body = rest.partition(":")
                layered[name.strip()] = parse_layers(body, labels)
            elif kw == "wall":
                parts = rest.split()
                if len(parts) == 3 and parts[2] in ("exterior", "unknown"):
                    walls[(parts[0], parts[1])] = (parts[2], None)
                elif len(parts) == 4 and parts[2] in ("up", "down"):
                    walls[(parts[0], parts[1])] = (parts[2], parts[3])
                else:
                    raise BlockError(f"bad wall entry {rest!r}")
            else:
                raise BlockError(f"unknown keyword {kw!r}")
        except BlockError as exc:
            raise BlockError(f"line {line_no}: {exc}") from exc
        except ValueError as exc:
            raise BlockError(f"line {line_no}: {exc}") from exc
    return BlockData(labels, covers, layered, decomposition or None, walls, generators or ("s0", "s1", "s2", "s3"))


def parse_lay_text(text: str, labels: Sequence[str]) -> List[Tuple[str, str, LoewyProfile]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, body = line.partition(":")
            kind, label = head.split()
            out.append((kind, label, parse_layers(body, labels)))
        except (ValueError, BlockError) as exc:
            raise BlockError(f"line {line_no}: {exc}") from exc
    return out


def data_text(name: str) -> str:
    """The text of a bundled data file."""
    from importlib import resources

    return resources.files("tiltrig").joinpath("data").joinpath(name).read_text(encoding="utf-8")


def load_block(path: Optional[str] = None) -> BlockData:
    """The bundled SL4 restricted block, or a .block file override."""
    if path is None:
        return parse_block_text(data_text("sl4.block"))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_block_text(fh.read())


SL4_TILTING_PLACEMENTS: Dict[str, List[Tuple[str, int]]] = {
    "1": [("1", 0)],
    "2": [("1", 0), ("2", 1)],
    "3": [("2", 0), ("3", 1)],
    "3'": [("2", 0), ("3'", 1)],
    "fl": [("3", 0), ("fl", 1)],
    "fl'": [("3'", 0), ("fl'", 1)],
    "4": [("2", 0), ("3", 1), ("3'", 1), ("4", 2)],
    "5": [("3", 0), ("3'", 0), ("fl", 1), ("fl'", 1), ("4", 1), ("5", 2)],
}
