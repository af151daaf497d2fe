"""Quivers with admissible relations and the finite-dimensional path algebras
they present.

An algebra is built degree by degree: the normal words of degree L are the
products (normal word of degree L-1).(arrow) that survive reduction, in each
(source, target, L) stratum, modulo the images of the relations under the
lower degrees.  Relations must be admissible (paths of length >= 2) and
length-homogeneous, which keeps the ideal graded so the stratum reduction is
exact; the Jacobson radical is then exactly the arrow ideal and radical
powers can be read off path lengths.

The weight poset and the arithmetic of Loewy profiles over vertex labels
(printing, the layer formula for a head placement and layer reciprocity)
live here too, as both the module side and the character side use them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Field, Mat, rref

Path = Tuple[str, ...]  # arrow names in traversal order (first traversed first)


class QuiverError(ValueError):
    def __init__(self, message: str, arrows: Sequence[str] = ()):
        super().__init__(message)
        self.arrows = list(arrows)  # the arrows at fault, where there are any


class Quiver:
    def __init__(self, vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]):
        self.vertices = [str(v) for v in vertices]
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex labels")
        self.arrows: Dict[str, Tuple[str, str]] = {}
        for name, src, dst in arrows:
            name, src, dst = str(name), str(src), str(dst)
            if name in self.arrows or name in self.vertices:
                raise QuiverError(f"duplicate arrow name {name!r}", [name])
            if src not in self.vertices or dst not in self.vertices:
                raise QuiverError(f"arrow {name!r} has undeclared endpoint", [name])
            self.arrows[name] = (src, dst)

    def source(self, a: str) -> str:
        return self.arrows[a][0]

    def target(self, a: str) -> str:
        return self.arrows[a][1]

    def arrows_from(self, v: str) -> List[str]:
        return [a for a, (s, _) in self.arrows.items() if s == v]

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices, [(a, t, s) for a, (s, t) in self.arrows.items()])

    def path_endpoints(self, path: Path) -> Tuple[str, str]:
        """(source, target) of a composable path; raises if not composable."""
        if not path:
            raise QuiverError("empty path has no unique endpoints")
        for a in path:
            if a not in self.arrows:
                raise QuiverError(f"unknown arrow {a!r}")
        src = cur = self.source(path[0])
        for a in path:
            if self.source(a) != cur:
                raise QuiverError(f"path {'.'.join(path)} is not composable at {a!r}")
            cur = self.target(a)
        return src, cur


class Relation:
    """K-linear combination of parallel paths, all of length >= 2."""

    def __init__(self, quiver: Quiver, terms: Sequence[Tuple[object, Path]]):
        if not terms:
            raise QuiverError("empty relation")
        self.terms = [(c, tuple(p)) for c, p in terms]
        endpoints = {quiver.path_endpoints(p) for _, p in self.terms}
        if len(endpoints) != 1:
            raise QuiverError("relation paths must share source and target")
        (self.src, self.dst) = endpoints.pop()
        lengths = {len(p) for _, p in self.terms}
        if min(lengths) < 2:
            raise QuiverError("relations must be admissible (paths of length >= 2)")
        if len(lengths) != 1:
            raise QuiverError("relations must be length-homogeneous")
        self.length = lengths.pop()

    def __repr__(self) -> str:
        return " + ".join(f"{c}*{'.'.join(p)}" for c, p in self.terms)


class PosetError(ValueError):
    def __init__(self, message: str, covers: Sequence[int] = ()):
        super().__init__(message)
        self.covers = list(covers)  # positions of the covers at fault, where there are any


class WeightPoset:
    """Partial order on vertex labels, given by cover relations."""

    def __init__(self, labels: Sequence[str], covers: Sequence[Tuple[str, str]]):
        self.labels = list(labels)
        idx = {l: i for i, l in enumerate(self.labels)}
        n = len(self.labels)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for k, (a, b) in enumerate(covers):
            if a not in idx or b not in idx:
                raise PosetError(f"order relation names unknown label: {a} < {b}", [k])
            leq[idx[a]][idx[b]] = True
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    cyclic = [k for k, (a, b) in enumerate(covers) if leq[idx[b]][idx[a]]]
                    raise PosetError(f"order is not antisymmetric at {self.labels[i]}, {self.labels[j]}", cyclic)
        self._leq = leq
        self._idx = idx

    def leq(self, a: str, b: str) -> bool:
        return self._leq[self._idx[a]][self._idx[b]]

    def less(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def maximal(self, labels: Sequence[str]) -> List[str]:
        labels = list(labels)
        return [a for a in labels if not any(self.less(a, b) for b in labels)]

    def max_label(self, labels: Sequence[str]) -> str:
        """A maximal element; ties broken lexicographically for determinism."""
        return sorted(self.maximal(labels))[0]

    def maximal_first(self) -> List[str]:
        """A linear extension of the order, maximal elements first (`max_label` at each step)."""
        rest, out = list(self.labels), []
        while rest:
            out.append(self.max_label(rest))
            rest.remove(out[-1])
        return out


# -- Loewy profiles over vertex labels ---------------------------------------

LoewyProfile = List[Counter]  # the multiset of simple labels on each layer


def format_profile(profile: LoewyProfile, label_order: Sequence[str]) -> str:
    """Layers joined by " | ", each label once per multiplicity, in
    `label_order` and then, for labels outside it, by name; "-" marks an
    empty layer."""
    order = {lab: i for i, lab in enumerate(label_order)}
    parts = []
    for layer in profile:
        labs = sorted(layer.elements(), key=lambda l: (order.get(l, len(order)), l))
        parts.append(",".join(labs) if labs else "-")
    return " | ".join(parts)


def _add_shifted(layers: LoewyProfile, profile: LoewyProfile, shift: int) -> None:
    """Add `profile`, moved down `shift` layers, into `layers` in place."""
    for t, layer in enumerate(profile):
        while len(layers) <= shift + t:
            layers.append(Counter())
        layers[shift + t] += layer


def layers_from_placement(placement: Sequence[Tuple[str, int]], layered: Dict[str, LoewyProfile]) -> LoewyProfile:
    """Sum of shifted standard layer profiles over the head placement, with
    `layered` giving each label's standard layer profile."""
    layers: LoewyProfile = []
    for lam, shift in placement:
        if shift < 0:
            raise ValueError("head shifts must be non-negative")
        _add_shifted(layers, layered[lam], shift)
    return layers


def bgg_symmetry_check(labels: Sequence[str], profiles: Dict[str, LoewyProfile]) -> dict:
    """Layer reciprocity [rad_s P(mu) : L(lam)] = [rad_s P(lam) : L(mu)], all layers.

    The profiles may come from a layered table, from modules, or from
    golden data; each unordered pair is reported once.
    """
    depth = max(len(p) for p in profiles.values())
    failures = []
    for s in range(depth):
        for i, lam in enumerate(labels):
            for mu in labels[i:]:
                a = profiles[mu][s][lam] if s < len(profiles[mu]) else 0
                c = profiles[lam][s][mu] if s < len(profiles[lam]) else 0
                if a != c:
                    failures.append({"layer": s, "pair": [mu, lam], "counts": [a, c]})
    return {"ok": not failures, "failures": failures}


class FinDimAlgebra:
    """Basic path algebra KQ/I with a path-class basis and radical grading.

    `basis` lists path classes (the empty path at v is the idempotent e_v);
    `reduce(path)` rewrites any composable free path as a combination of
    basis paths, and products of basis elements go through it.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: Sequence[Relation],
        field: Field,
        basis: List[Path],
        reductions: Dict[Path, Dict[Path, object]],
        max_length: int,
        order_covers: Optional[Sequence[Tuple[str, str]]] = None,
        duality_pairs: Optional[Dict[str, str]] = None,
        name: str = "",
    ):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field
        self.basis = basis
        self.paths_from: Dict[str, List[Path]] = {v: [] for v in quiver.vertices}  # by source, in basis order
        for p in basis:
            self.paths_from[self.path_source(p)].append(p)
        self._reductions = reductions
        self.max_length = max_length  # all paths longer than this reduce to 0
        # None when no order is declared; [] for an order with no covers
        self.order_covers = None if order_covers is None else [tuple(c) for c in order_covers]
        self.duality_pairs = dict(duality_pairs) if duality_pairs else None
        self.name = name
        if self.duality_pairs is not None:
            self._check_duality()

    # -- bookkeeping --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def path_source(self, p: Path) -> str:
        if p[0] in self.quiver.vertices:
            return p[0]
        return self.quiver.source(p[0])

    def path_target(self, p: Path) -> str:
        if p[-1] in self.quiver.vertices:
            return p[-1]
        return self.quiver.target(p[-1])

    def path_length(self, p: Path) -> int:
        return 0 if p[0] in self.quiver.vertices else len(p)

    def reduce(self, path: Path) -> Dict[Path, object]:
        """Image of a free composable path in the basis (may be empty = 0).

        Table entries are looked up directly; longer products are rewritten
        one arrow at a time through the table of (normal word).(arrow)
        products, and the result is kept.
        """
        if path in self._reductions:
            return self._reductions[path]
        if self.path_length(path) > self.max_length:
            return {}
        vertices = self.quiver.vertices
        arrows = tuple(a for a in path if a not in vertices)
        cur: Dict[Path, object] = {(self.quiver.source(arrows[0]),): self.field.one}
        for a in arrows:
            cur = _times_arrow(self.field, self._reductions, cur, a, vertices)
            if not cur:
                break
        self._reductions[path] = cur
        return cur

    def mult(self, p: Path, q: Path) -> Dict[Path, object]:
        """Product of two basis paths: traverse p, then q."""
        F = self.field
        ps, pt = self.path_source(p), self.path_target(p)
        qs, qt = self.path_source(q), self.path_target(q)
        if pt != qs:
            return {}
        lp, lq = self.path_length(p), self.path_length(q)
        if lp == 0:
            return {q: F.one}
        if lq == 0:
            return {p: F.one}
        return self.reduce(p + q)

    def radical_power_basis(self, i: int) -> List[Path]:
        """Basis paths spanning J^i (arrow ideal to the i-th power)."""
        return [p for p in self.basis if self.path_length(p) >= i]

    def radical_powers(self) -> List[List[Path]]:
        """Chain J^0 >= J^1 >= ... down to 0 (last entry empty)."""
        chain = []
        i = 0
        while True:
            layer = self.radical_power_basis(i)
            chain.append(layer)
            if not layer:
                return chain
            i += 1

    # -- duality -------------------------------------------------------------

    def _check_duality(self) -> None:
        pairs = self.duality_pairs
        for a, b in pairs.items():
            if a not in self.quiver.arrows or b not in self.quiver.arrows:
                raise QuiverError(f"duality names unknown arrow in {a}={b}")
            if pairs.get(b) != a:
                raise QuiverError(f"duality pairing is not an involution at {a!r}")
            sa, ta = self.quiver.arrows[a]
            sb, tb = self.quiver.arrows[b]
            if (sa, ta) != (tb, sb):
                raise QuiverError(f"duality pair {a}={b} does not reverse direction", [a, b])
        if set(pairs) != set(self.quiver.arrows):
            raise QuiverError("duality must pair every arrow", set(self.quiver.arrows) - set(pairs))
        # the induced anti-map must preserve the relation ideal
        F = self.field
        for rel in self.relations:
            img: Dict[Path, object] = {}
            for c, p in rel.terms:
                q = self.dual_path(p)
                for r, x in self.reduce(q).items():
                    v = F.add(img.get(r, F.zero), F.mul(F.of(c), x))
                    if v == F.zero:
                        img.pop(r, None)
                    else:
                        img[r] = v
            if img:
                raise QuiverError(f"duality does not preserve the relation ideal ({rel!r})")

    def dual_path(self, p: Path) -> Path:
        """Anti-involution on paths: reverse traversal order, swap arrows."""
        if p[0] in self.quiver.vertices:
            return p
        return tuple(self.duality_pairs[a] for a in reversed(p))

    def opposite(self) -> "FinDimAlgebra":
        """Same presentation with all arrows and relation words reversed."""
        op_q = self.quiver.opposite()
        op_rels = [
            Relation(op_q, [(c, tuple(reversed(p))) for c, p in rel.terms])
            for rel in self.relations
        ]
        return build_algebra(
            op_q,
            op_rels,
            self.field,
            order_covers=self.order_covers,
            duality_pairs=self.duality_pairs,
            name=self.name + ".op" if self.name else "",
        )


def build_algebra(
    quiver: Quiver,
    relations: Sequence[Relation],
    field: Field,
    dim_cap: int = 10000,
    order_covers: Optional[Sequence[Tuple[str, str]]] = None,
    duality_pairs: Optional[Dict[str, str]] = None,
    name: str = "",
) -> FinDimAlgebra:
    """Quotient of the path algebra by the ideal the relations generate.

    Built degree by degree (Green's graded construction).  The relations are
    homogeneous, so I_L = I_{L-1}.V + sum_d V^{L-d}.R_d: degree L of the
    quotient is spanned by the products w.a of a normal word w of degree L-1
    with an arrow a, modulo the rows u.r for each relation r of length d and
    each normal word u of degree L-d ending at its source (u.p' of a term
    c*p'.a is reduced through the lower degrees).  In each (source, target,
    L) stratum the non-pivot products survive as normal words and the pivots
    get rewrite rules, which together form the table of (normal word).(arrow)
    products.  Stops at the first degree with no normal word; aborts after
    the first degree at which the basis passes dim_cap, so a degree never
    has more than dim_cap * (number of arrows) columns, naming the arrows
    that the longest surviving words repeat (all of their arrows if they
    repeat none).  An oriented cycle of arrows that no relation involves is
    refused before any degree is built.
    """
    if dim_cap <= 0:
        raise QuiverError("dim_cap must be positive")
    cycle = _free_cycle_arrows(quiver, relations)
    if cycle:
        raise QuiverError(
            f"arrows {', '.join(cycle)} contain an oriented cycle that no relation involves; "
            "the algebra is infinite-dimensional",
            cycle,
        )

    vertices = quiver.vertices
    basis: List[Path] = [(v,) for v in vertices]
    table: Dict[Path, Dict[Path, object]] = {(v,): {(v,): field.one} for v in vertices}
    # normal[L][(s, t)]: the normal words of degree L from s to t, in stratum order
    normal: List[Dict[Tuple[str, str], List[Path]]] = [{(v, v): [(v,)] for v in vertices}]

    length = 0
    while True:
        length += 1
        cols: Dict[Tuple[str, str], List[Path]] = {}
        for (s, t), ws in sorted(normal[-1].items()):
            for w in ws:
                for a in sorted(quiver.arrows_from(t)):
                    cols.setdefault((s, quiver.target(a)), []).append(_append(w, a, vertices))
        if not cols:
            break

        col_index = {key: {w: i for i, w in enumerate(ws)} for key, ws in cols.items()}
        rows: Dict[Tuple[str, str], List[List]] = {}
        for rel in relations:
            if rel.length > length:
                continue
            for (s, t), us in normal[length - rel.length].items():
                key = (s, rel.dst)
                if t != rel.src or key not in col_index:
                    continue  # no product w.a spans this stratum, so every u.r is 0 here
                index = col_index[key]
                for u in us:
                    row = [field.zero] * len(index)
                    for c, p in rel.terms:
                        up = {u: field.of(c)}
                        for b in p[:-1]:
                            up = _times_arrow(field, table, up, b, vertices)
                        for w, x in up.items():
                            j = index[_append(w, p[-1], vertices)]
                            row[j] = field.add(row[j], x)
                    rows.setdefault(key, []).append(row)

        degree: Dict[Tuple[str, str], List[Path]] = {}
        for key in sorted(cols):
            words = cols[key]
            reduced, pivots = rref(Mat.canonical(field, rows[key])) if key in rows else ([], [])
            piv_set = set(pivots)
            keep = [w for j, w in enumerate(words) if j not in piv_set]
            table.update((w, {w: field.one}) for w in keep)
            for row, pc in zip(reduced, pivots):
                table[words[pc]] = {
                    w: field.neg(row[j])
                    for j, w in enumerate(words)
                    if j not in piv_set and row[j] != field.zero
                }
            if keep:
                degree[key] = keep
            basis.extend(keep)
        if not degree:
            break
        normal.append(degree)
        if len(basis) > dim_cap:
            longest = [Counter(w) for ws in degree.values() for w in ws]  # the arrows of each longest word
            repeated = sorted({a for counts in longest for a, k in counts.items() if k > 1})
            at_fault = repeated or sorted({a for counts in longest for a in counts})
            raise QuiverError(
                f"basis exceeded dim_cap={dim_cap}; the surviving words of length {length} "
                f"{'repeat' if repeated else 'run through'} {', '.join(at_fault)}, "
                "so the presentation may be infinite-dimensional",
                at_fault,
            )

    basis.sort(key=lambda p: (0 if p[0] in vertices else len(p), p))
    return FinDimAlgebra(
        quiver,
        relations,
        field,
        basis,
        table,
        length,
        order_covers=order_covers,
        duality_pairs=duality_pairs,
        name=name,
    )


def _free_cycle_arrows(quiver: Quiver, relations: Sequence[Relation]) -> List[str]:
    """The arrows in no relation that run between vertices on their oriented cycles.

    Every element of the ideal is a combination of paths that contain a
    relation term, so a path of such arrows is not in it, and their cycles
    make the algebra infinite-dimensional.  Vertices with no free arrow to
    a remaining vertex are dropped until none is; the rest lie on or
    between cycles.
    """
    bound = {a for rel in relations for _, p in rel.terms for a in p}
    free = [(a, u, w) for a, (u, w) in quiver.arrows.items() if a not in bound]
    live = set(quiver.vertices)
    while True:
        keep = {u for _, u, w in free if u in live and w in live}
        if keep == live:
            return [a for a, u, w in free if u in live and w in live]
        live = keep


def _append(w: Path, a: str, vertices: Sequence[str]) -> Path:
    return (a,) if w[0] in vertices else w + (a,)


def _times_arrow(
    field: Field, table: Dict[Path, Dict[Path, object]], x: Dict[Path, object], a: str, vertices: Sequence[str]
) -> Dict[Path, object]:
    """x.a for a combination x of normal words, through the table of (normal word).(arrow)."""
    out: Dict[Path, object] = {}
    for w, coef in x.items():
        ext = _append(w, a, vertices)
        prod = table.get(ext)
        if prod is None:
            raise QuiverError(f"path {'.'.join(ext)} is not composable at {a!r}")
        for r, c in prod.items():
            v = field.add(out.get(r, field.zero), field.mul(coef, c))
            if v == field.zero:
                out.pop(r, None)
            else:
                out[r] = v
    return out


# -- .alg file format ---------------------------------------------------------


class AlgParseError(ValueError):
    """A fault in `.alg` text, located at its lines, or else at the file `name`."""

    def __init__(self, lines, message: str, name: str = ""):
        self.lines = [lines] if isinstance(lines, int) else list(lines)  # none where no line is at fault
        where = f"line{'s' if len(self.lines) > 1 else ''} {', '.join(map(str, self.lines))}" if self.lines else name
        super().__init__(f"{where}: {message}" if where else message)


def parse_alg_text(
    text: str, field_override: Optional[int] = None, dim_cap: int = 10000, name: str = ""
) -> FinDimAlgebra:
    """Parse the line-oriented .alg format (field/vertex/order/arrow/relation/duality)."""
    field: Optional[Field] = None
    vertices: List[str] = []
    covers: Optional[List[Tuple[str, str]]] = None
    cover_lines: List[int] = []
    arrows: List[Tuple[str, str, str]] = []
    arrow_lines: Dict[str, int] = {}
    raw_relations: List[Tuple[int, List[Tuple[str, List[str]]]]] = []
    duality: Dict[str, str] = {}
    duality_items: List[Tuple[int, str, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        try:
            if kw == "field":
                field = Field(int(parts[1]))
            elif kw == "vertex":
                for v in parts[1:]:
                    if v in vertices:
                        raise ValueError(f"duplicate vertex label {v!r}")
                    vertices.append(v)
            elif kw == "order":
                covers = covers or []  # a bare `order` line declares an order with no covers
                if len(parts) == 4 and parts[2] == "<":
                    covers.append((parts[1], parts[3]))
                    cover_lines.append(line_no)
                elif len(parts) != 1:
                    raise ValueError("expected 'order <a> < <b>' or a bare 'order'")
            elif kw == "arrow":
                if len(parts) != 4:
                    raise ValueError("expected 'arrow <name> <src> <dst>'")
                arrows.append((parts[1], parts[2], parts[3]))
                arrow_lines[parts[1]] = line_no
            elif kw == "relation":
                raw_relations.append((line_no, _parse_relation_terms(" ".join(parts[1:]))))
            elif kw == "duality":
                for item in parts[1:]:
                    a, _, b = item.partition("=")
                    if not a or not b:
                        raise ValueError(f"bad duality item {item!r}")
                    for x, y in ((a, b), (b, a)):
                        if duality.get(x, y) != y:
                            raise ValueError(f"duality pairs arrow {x!r} twice")
                    duality[a] = b
                    duality[b] = a
                    duality_items.append((line_no, a, b))
            else:
                raise ValueError(f"unknown keyword {kw!r}")
        except AlgParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise AlgParseError(line_no, str(exc)) from exc

    if field is None:
        raise AlgParseError((), "missing 'field' line", name)
    if field_override is not None:
        try:
            field = Field(field_override)
        except ValueError as exc:
            raise ValueError(f"field override: {exc}") from exc
    if not vertices:
        raise AlgParseError((), "no vertices declared", name)
    # vertices and arrows may be declared after the lines that name them
    try:
        WeightPoset(vertices, covers or ())
    except PosetError as exc:
        raise AlgParseError([cover_lines[k] for k in exc.covers], str(exc)) from exc
    for line_no, a, b in duality_items:
        if a not in arrow_lines or b not in arrow_lines:
            raise AlgParseError(line_no, f"duality names unknown arrow in {a}={b}")

    try:
        quiver = Quiver(vertices, arrows)
        relations = []
        for line_no, terms in raw_relations:
            try:
                relations.append(Relation(quiver, [(field.of(c), tuple(p)) for c, p in terms]))
            except ZeroDivisionError as exc:
                raise AlgParseError(line_no, f"relation coefficient {exc}") from exc
            except (QuiverError, ValueError) as exc:
                raise AlgParseError(line_no, str(exc)) from exc
        return build_algebra(
            quiver,
            relations,
            field,
            dim_cap=dim_cap,
            order_covers=covers,
            duality_pairs=duality or None,
            name=name,
        )
    except AlgParseError:
        raise
    except (QuiverError, ValueError) as exc:
        raise AlgParseError(sorted({arrow_lines[a] for a in getattr(exc, "arrows", ())}), str(exc), name) from exc


def _parse_relation_terms(body: str) -> List[Tuple[str, List[str]]]:
    terms = []
    for chunk in body.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty relation term")
        coeff, star, word = chunk.partition("*")
        if not star:
            coeff, word = "1", chunk
        path = word.strip().split(".")
        if any(not a for a in path):
            raise ValueError(f"bad path {word!r}")
        terms.append((coeff.strip(), path))
    return terms


def load_alg(path: str, field_override: Optional[int] = None) -> FinDimAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_alg_text(fh.read(), field_override=field_override, name=path)
