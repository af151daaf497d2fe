"""Finite-dimensional modules over a path algebra, presented as quiver
representations: one exact matrix per arrow.

Submodules are per-vertex subspace families closed under the arrow action
(vertex idempotents split any module element into its vertex components, so
nothing is lost by working per vertex).  Radical and socle series, spins,
subquotients with induced filtrations, Hom and Ext^1 spaces and the rigidity
test all live here.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Mat, Subspace, kernel_basis, quotient_map
from .quiver import FinDimAlgebra, Path


class ModuleError(ValueError):
    pass


class Representation:
    """Module over a FinDimAlgebra: dims per vertex, one matrix per arrow.

    The matrix of arrow a: u -> w has shape (dim w) x (dim u); a path acts by
    multiplying its arrow matrices in traversal order (first arrow applied
    first).  Construction checks shapes and that every relation acts by zero.
    A module never changes afterwards, so `radical_series` keeps its chain on it.
    """

    # vertex -> ordered basis paths, set by `projective_rep` on P(v) only
    basis_paths: Optional[Dict[str, List[Path]]] = None

    def __init__(self, algebra: FinDimAlgebra, dims: Dict[str, int], mats: Dict[str, Mat], name: str = ""):
        self.algebra = algebra
        self.field = algebra.field
        self.vertices = list(algebra.quiver.vertices)
        self.dims = {v: int(dims.get(v, 0)) for v in self.vertices}
        self.mats: Dict[str, Mat] = {}
        self.name = name
        for a, (u, w) in algebra.quiver.arrows.items():
            m = mats.get(a)
            if m is None:
                m = Mat.zero(self.field, self.dims[w], self.dims[u])
            if (m.rows, m.cols) != (self.dims[w], self.dims[u]):
                raise ModuleError(
                    f"matrix for arrow {a!r} has shape {m.rows}x{m.cols}, expected {self.dims[w]}x{self.dims[u]}"
                )
            self.mats[a] = m
        self._path_cache: Dict[Path, Mat] = {}
        self._radical_series: Optional[Tuple["SubFamily", ...]] = None
        self._check_relations()

    # -- basics --------------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def path_matrix(self, path: Path) -> Mat:
        """Action of a composable arrow word (traversal order)."""
        path = tuple(path)
        if path in self._path_cache:
            return self._path_cache[path]
        if path and path[0] in self.algebra.quiver.vertices:
            v = path[0]
            out = Mat.identity(self.field, self.dims[v])
        else:
            src = self.algebra.quiver.source(path[0])
            out = Mat.identity(self.field, self.dims[src])
            for a in path:
                out = self.mats[a].mul(out)
        self._path_cache[path] = out
        return out

    def _check_relations(self) -> None:
        F = self.field
        for rel in self.algebra.relations:
            total = None
            for c, p in rel.terms:
                term = self.path_matrix(p).scale(F.of(c))
                total = term if total is None else total.add(term)
            if total is not None and not total.is_zero():
                raise ModuleError(f"relation {rel!r} does not act by zero")

    def __repr__(self) -> str:
        d = ", ".join(f"{v}:{self.dims[v]}" for v in self.vertices)
        return f"Representation({self.name or 'M'}; {d})"


class SubFamily:
    """Per-vertex subspace family of a representation (canonical rref bases)."""

    def __init__(self, rep: Representation, spaces: Optional[Dict[str, Subspace]] = None):
        self.rep = rep
        self.spaces = {}
        for v in rep.vertices:
            if spaces and v in spaces:
                self.spaces[v] = spaces[v]
            else:
                self.spaces[v] = Subspace(rep.field, rep.dims[v])

    @classmethod
    def from_vectors(cls, rep: Representation, vectors: Iterable[Tuple[str, Sequence]]) -> "SubFamily":
        buckets: Dict[str, list] = {}
        for v, vec in vectors:
            buckets.setdefault(v, []).append(list(vec))
        return cls(rep, {v: Subspace(rep.field, rep.dims[v], vecs) for v, vecs in buckets.items()})

    @classmethod
    def full(cls, rep: Representation) -> "SubFamily":
        return cls(rep, {v: Subspace.full(rep.field, rep.dims[v]) for v in rep.vertices})

    def dim_at(self, v: str) -> int:
        return self.spaces[v].dim

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, SubFamily) and all(
            self.spaces[v] == other.spaces[v] for v in self.rep.vertices
        )

    def __hash__(self) -> int:
        return hash(tuple(hash(self.spaces[v]) for v in self.rep.vertices))

    def __repr__(self) -> str:
        d = ", ".join(f"{v}:{self.spaces[v].dim}" for v in self.rep.vertices)
        return f"SubFamily({d})"

    def sum(self, other: "SubFamily") -> "SubFamily":
        return SubFamily(self.rep, {v: self.spaces[v].sum(other.spaces[v]) for v in self.rep.vertices})

    def intersect(self, other: "SubFamily") -> "SubFamily":
        return SubFamily(self.rep, {v: self.spaces[v].intersect(other.spaces[v]) for v in self.rep.vertices})

    def contains(self, other: "SubFamily") -> bool:
        return all(self.spaces[v].contains_space(other.spaces[v]) for v in self.rep.vertices)


# -- building blocks -----------------------------------------------------------


def simple_rep(algebra: FinDimAlgebra, vertex: str) -> Representation:
    if vertex not in algebra.quiver.vertices:
        raise ModuleError(f"unknown vertex {vertex!r}")
    return Representation(algebra, {vertex: 1}, {}, name=f"L({vertex})")


def projective_rep(algebra: FinDimAlgebra, vertex: str) -> Representation:
    """Indecomposable projective at a vertex: spanned by paths starting there."""
    if vertex not in algebra.quiver.vertices:
        raise ModuleError(f"unknown vertex {vertex!r}")
    paths = [p for p in algebra.basis if algebra.path_source(p) == vertex]
    by_vertex: Dict[str, List[Path]] = {v: [] for v in algebra.quiver.vertices}
    for p in paths:
        by_vertex[algebra.path_target(p)].append(p)
    index = {v: {p: i for i, p in enumerate(ps)} for v, ps in by_vertex.items()}
    dims = {v: len(ps) for v, ps in by_vertex.items()}
    F = algebra.field
    mats = {}
    for a, (u, w) in algebra.quiver.arrows.items():
        m = Mat.zero(F, dims[w], dims[u])
        for p in by_vertex[u]:
            j = index[u][p]
            for q, c in algebra.mult(p, (a,)).items():
                m.data[index[w][q]][j] = F.add(m.data[index[w][q]][j], c)
        mats[a] = m
    rep = Representation(algebra, dims, mats, name=f"P({vertex})")
    rep.basis_paths = by_vertex  # vertex -> ordered path list (generator = idempotent)
    return rep


class Morphism:
    """Module homomorphism: one matrix per vertex, commuting with all arrows."""

    def __init__(self, source: Representation, target: Representation, mats: Dict[str, Mat]):
        self.source = source
        self.target = target
        self.mats = mats

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other first)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise ModuleError("composition mismatch")
        return Morphism(
            other.source,
            self.target,
            {v: self.mats[v].mul(other.mats[v]) for v in self.source.vertices},
        )

    def add(self, other: "Morphism") -> "Morphism":
        return Morphism(self.source, self.target, {v: self.mats[v].add(other.mats[v]) for v in self.source.vertices})

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target, {v: self.mats[v].scale(c) for v in self.source.vertices})

    def image(self) -> SubFamily:
        return SubFamily(
            self.target,
            {
                v: Subspace(self.target.field, self.target.dims[v], self.mats[v].transpose().data)
                for v in self.target.vertices
            },
        )

    def kernel(self) -> SubFamily:
        return SubFamily(
            self.source,
            {v: Subspace(self.source.field, self.source.dims[v], kernel_basis(self.mats[v])) for v in self.source.vertices},
        )

    def is_injective(self) -> bool:
        return self.kernel().total_dim == 0

    def is_surjective(self) -> bool:
        return self.image().total_dim == self.target.total_dim

    def is_zero(self) -> bool:
        return all(self.mats[v].is_zero() for v in self.source.vertices)


def morphism_from_flat(source: Representation, target: Representation, flat: list) -> Morphism:
    """The morphism whose vertex matrices, row by row, are the canonical list `flat`."""
    mats = {}
    pos = 0
    for v in source.vertices:
        r, c = target.dims[v], source.dims[v]
        if r == 0 or c == 0:
            mats[v] = Mat.zero(source.field, r, c)
        else:
            mats[v] = Mat.canonical(source.field, [flat[pos + i * c : pos + (i + 1) * c] for i in range(r)])
        pos += r * c
    return Morphism(source, target, mats)


def hom_space(M: Representation, N: Representation) -> List[Morphism]:
    """Basis of Hom(M, N): solve the commuting conditions exactly.

    The unknowns are the entries of f_v (dim N_v x dim M_v), row by row,
    vertex after vertex.  Arrow a: u -> w gives one equation per entry (r, c)
    of f_w XM_a - XN_a f_u = 0: column c of XM_a on row r of f_w, and minus
    row r of XN_a on column c of f_u.  Out of a `projective_rep` the same
    basis is read off instead (`_hom_from_projective`).
    """
    if M.algebra is not N.algebra and M.algebra.basis != N.algebra.basis:
        raise ModuleError("hom_space requires modules over the same algebra")
    if M.basis_paths is not None:
        return _hom_from_projective(M, N)
    F = M.field
    p = F.p
    offsets = {}
    pos = 0
    for v in M.vertices:
        offsets[v] = pos
        pos += N.dims[v] * M.dims[v]
    nvars = pos
    if nvars == 0:
        return []
    rows = []
    for a, (u, w) in M.algebra.quiver.arrows.items():
        Mw, Mu, Nu = M.dims[w], M.dims[u], N.dims[u]
        XM_cols = list(zip(*M.mats[a].data)) if Mw else [()] * Mu
        for r, XN_row in enumerate(N.mats[a].data):
            minus = [-x % p for x in XN_row] if p else [-x for x in XN_row]
            start = offsets[w] + r * Mw
            for c in range(Mu):
                row = [F.zero] * nvars
                row[start : start + Mw] = XM_cols[c]
                if u != w:
                    row[offsets[u] + c : offsets[u] + c + Nu * Mu : Mu] = minus
                else:  # a loop: both blocks sit in f_u
                    for k, x in enumerate(minus):
                        idx = offsets[u] + k * Mu + c
                        row[idx] = F.add(row[idx], x)
                if any(row):
                    rows.append(row)
    sols = kernel_basis(Mat.canonical(F, rows)) if rows else Mat.identity(F, nvars).data
    return [morphism_from_flat(M, N, s) for s in sols]


def _hom_from_projective(P: Representation, N: Representation) -> List[Morphism]:
    """Hom(P(v), N) read off N_v, with no linear system.

    x in N_v gives the map sending each basis path p of P(v) to p.x.  The
    maps of the unit vectors span the space; it is returned in the basis the
    block solve gives.  That basis (one vector per free column of an rref,
    see `kernel_basis`) is the reduced echelon basis for the reversed
    coordinate order, listed by last nonzero coordinate.
    """
    v = next(w for w in P.vertices if (w,) in P.basis_paths[w])
    paths = {w: [N.path_matrix(p).data for p in P.basis_paths[w]] for w in P.vertices}
    flats = []
    for c in range(N.dims[v]):
        flat = [m[r][c] for w in P.vertices for r in range(N.dims[w]) for m in paths[w]]
        flats.append(flat[::-1])
    if not flats:
        return []
    echelon = Subspace(N.field, len(flats[0]), flats).basis
    return [morphism_from_flat(P, N, row[::-1]) for row in reversed(echelon)]


def linear_combination(basis: List[Morphism], coords: Sequence) -> Morphism:
    """sum_k coords[k] * basis[k] over a nonempty hom basis."""
    F = basis[0].source.field
    out = None
    for c, g in zip(coords, basis):
        if c == F.zero:
            continue
        term = g.scale(c)
        out = term if out is None else out.add(term)
    return out if out is not None else basis[0].scale(F.zero)


# -- sums, subs, quotients ------------------------------------------------------


def direct_sum(reps: Sequence[Representation]) -> Tuple[Representation, List[Morphism]]:
    """Direct sum with the canonical injections.  At each vertex the summands'
    coordinates are stacked in the order given."""
    if not reps:
        raise ModuleError("empty direct sum")
    algebra = reps[0].algebra
    F = reps[0].field
    dims = {v: sum(r.dims[v] for r in reps) for v in reps[0].vertices}
    offsets = []
    pos = {v: 0 for v in reps[0].vertices}
    for r in reps:
        offsets.append(dict(pos))
        for v in r.vertices:
            pos[v] += r.dims[v]
    mats = {}
    for a, (u, w) in algebra.quiver.arrows.items():
        m = Mat.zero(F, dims[w], dims[u])
        for r, off in zip(reps, offsets):
            X = r.mats[a]
            for i in range(X.rows):
                for j in range(X.cols):
                    m.data[off[w] + i][off[u] + j] = X.data[i][j]
        mats[a] = m
    total = Representation(algebra, dims, mats, name="(+)".join(r.name or "?" for r in reps))
    injections = []
    for r, off in zip(reps, offsets):
        inj = {}
        for v in r.vertices:
            inj[v] = Mat.zero(F, dims[v], r.dims[v])
            for i in range(r.dims[v]):
                inj[v].data[off[v] + i][i] = F.one
        injections.append(Morphism(r, total, inj))
    return total, injections


def sub_rep(M: Representation, fam: SubFamily) -> Tuple[Representation, Morphism]:
    """The family as a representation in its own right, with its inclusion.

    Raises ModuleError unless the family is arrow-stable: every arrow image
    of a basis vector must have coordinates in the family.
    """
    F = M.field
    dims = {v: fam.spaces[v].dim for v in M.vertices}
    mats = {}
    for a, (u, w) in M.algebra.quiver.arrows.items():
        m = Mat.zero(F, dims[w], dims[u])
        for j, vec in enumerate(fam.spaces[u].basis):
            img = M.mats[a].apply(vec)
            coords = fam.spaces[w].coords(img)
            if coords is None:
                raise ModuleError("family is not arrow-stable; not a submodule")
            for i, c in enumerate(coords):
                m.data[i][j] = c
        mats[a] = m
    sub = Representation(M.algebra, dims, mats, name=f"sub({M.name})")
    inc = Morphism(sub, M, {v: Mat.from_cols(F, fam.spaces[v].basis) if dims[v] else Mat.zero(F, M.dims[v], 0) for v in M.vertices})
    return sub, inc


def quotient_rep(M: Representation, fam: SubFamily) -> Tuple[Representation, Morphism]:
    """Quotient by a submodule family, with the projection morphism.

    Q_v has kernel exactly fam_v, so the family is arrow-stable exactly when
    Q_w X_a B_u = 0 for each arrow a: u -> w, with B_u the basis of fam_u as
    columns; otherwise raises ModuleError.
    """
    F = M.field
    qmaps, sections = {}, {}
    for v in M.vertices:
        Q, free = quotient_map(F, fam.spaces[v])
        qmaps[v] = Q
        S = Mat.zero(F, M.dims[v], len(free))
        for k, fc in enumerate(free):
            S.data[fc][k] = F.one
        sections[v] = S
    dims = {v: qmaps[v].rows for v in M.vertices}
    mats = {}
    for a, (u, w) in M.algebra.quiver.arrows.items():
        QX = qmaps[w].mul(M.mats[a])
        if fam.spaces[u].dim and not QX.mul(Mat.from_cols(F, fam.spaces[u].basis)).is_zero():
            raise ModuleError("family is not arrow-stable; not a submodule")
        mats[a] = QX.mul(sections[u])
    quot = Representation(M.algebra, dims, mats, name=f"{M.name}/sub")
    proj = Morphism(M, quot, qmaps)
    return quot, proj


# -- series and profiles ---------------------------------------------------------


def spin_submodule(M: Representation, vectors: Iterable[Tuple[str, Sequence]]) -> SubFamily:
    """Smallest arrow-stable family containing the vectors: S + J S + J^2 S + ..."""
    fam = SubFamily.from_vectors(M, vectors)
    while True:
        grown = fam.sum(radical_of(M, fam))
        if grown.total_dim == fam.total_dim:
            return fam
        fam = grown


def radical_of(M: Representation, fam: SubFamily) -> SubFamily:
    """J * fam: the span of all arrow images (a submodule whenever fam is)."""
    vectors = []
    for a, (u, w) in M.algebra.quiver.arrows.items():
        X = M.mats[a]
        for vec in fam.spaces[u].basis:
            vectors.append((w, X.apply(vec)))
    return SubFamily.from_vectors(M, vectors)


def radical_series(M: Representation) -> Tuple[SubFamily, ...]:
    """Descending chain M = rad^0 > rad^1 > ... > 0 (last entry zero), built
    once and kept on M; callers must not change M or the families."""
    if M._radical_series is None:
        chain = [SubFamily.full(M)]
        while not chain[-1].is_zero():
            chain.append(radical_of(M, chain[-1]))
        M._radical_series = tuple(chain)
    return M._radical_series


def flag_complements(flag: Sequence[SubFamily], bottom: SubFamily) -> Dict[str, List[Tuple[int, list]]]:
    """Complements up a descending flag, deepest first, each with its depth:
    at each vertex the vectors of depth d extend flag[d+1] (or `bottom`, inside
    every flag[d], for the last d) to flag[d]; a basis of flag[0] mod bottom."""
    out: Dict[str, List[Tuple[int, list]]] = {}
    for v in bottom.rep.vertices:
        current, out[v] = bottom.spaces[v], []
        for depth in range(len(flag) - 1, -1, -1):
            out[v].extend((depth, vec) for vec in current.complement_in(flag[depth].spaces[v]))
            current = flag[depth].spaces[v]
    return out


def socle_of(M: Representation, inner: SubFamily) -> SubFamily:
    """Preimage of `inner` under all arrows: {x : every arrow sends x into inner}."""
    F = M.field
    spaces = {}
    for u in M.vertices:
        rows = []
        for a in M.algebra.quiver.arrows_from(u):
            w = M.algebra.quiver.target(a)
            Q, _ = quotient_map(F, inner.spaces[w])
            comp = Q.mul(M.mats[a])
            rows.extend(comp.data)
        if rows:
            spaces[u] = Subspace(F, M.dims[u], kernel_basis(Mat.canonical(F, rows)))
        else:
            spaces[u] = Subspace.full(F, M.dims[u])
    return SubFamily(M, spaces)


def socle_series(M: Representation) -> List[SubFamily]:
    """Ascending chain 0 = soc^0 < soc^1 < ... < M (first entry zero)."""
    chain = [SubFamily(M)]
    while chain[-1].total_dim < M.total_dim:
        nxt = socle_of(M, chain[-1])
        if nxt.total_dim == chain[-1].total_dim:
            raise ModuleError("socle series stalled; algebra radical assumptions violated")
        chain.append(nxt)
    return chain


LoewyProfile = List[Counter]


def profile_from_chain(M: Representation, chain: Sequence[SubFamily], descending: bool) -> LoewyProfile:
    """Multiset of simple labels on each layer of a filtration chain."""
    layers: LoewyProfile = []
    for big, small in zip(chain, chain[1:]) if descending else zip(chain[1:], chain):
        layer = Counter()
        for v in M.vertices:
            d = big.dim_at(v) - small.dim_at(v)
            if d:
                layer[v] += d
        layers.append(layer)
    return layers


def radical_profile(M: Representation) -> LoewyProfile:
    return profile_from_chain(M, radical_series(M), descending=True)


def socle_profile(M: Representation) -> LoewyProfile:
    return profile_from_chain(M, socle_series(M), descending=False)


def loewy_length(M: Representation) -> int:
    return len(radical_series(M)) - 1


def format_profile(profile: LoewyProfile, label_order: Sequence[str]) -> str:
    order = {lab: i for i, lab in enumerate(label_order)}
    parts = []
    for layer in profile:
        labs = sorted(layer.elements(), key=lambda l: order.get(l, len(order)))
        parts.append(",".join(labs) if labs else "-")
    return " | ".join(parts)


def is_rigid(M: Representation) -> Tuple[bool, Optional[dict]]:
    """True iff rad^i M = soc^(l-i) M for all i; witness = first failing i."""
    rad = radical_series(M)
    soc = socle_series(M)
    if len(rad) != len(soc):
        # cannot happen for honest series over the same module
        raise ModuleError("radical and socle series lengths differ")
    ell = len(rad) - 1
    for i in range(ell + 1):
        if rad[i] != soc[ell - i]:
            return False, {
                "layer": i,
                "radical_dims": {v: rad[i].dim_at(v) for v in M.vertices},
                "socle_dims": {v: soc[ell - i].dim_at(v) for v in M.vertices},
            }
    return True, None


def subquotient(M: Representation, outer: SubFamily, inner: SubFamily) -> Tuple[Representation, List[SubFamily]]:
    """outer/inner with the induced filtration (rad^i M cap outer + inner)/inner.

    Returns the subquotient representation and the induced chain expressed in
    the subquotient's own coordinates.  The radical series of M is the one
    kept on M, built once.  `sub_rep` and `quotient_rep` refuse an outer or
    inner family that is not arrow-stable.
    """
    if not outer.contains(inner):
        raise ModuleError("subquotient requires inner <= outer")
    outer_rep, _ = sub_rep(M, outer)
    inner_in_outer = SubFamily(
        outer_rep,
        {
            v: Subspace(
                M.field,
                outer.spaces[v].dim,
                [outer.spaces[v].coords(vec) for vec in inner.spaces[v].basis],
            )
            for v in M.vertices
        },
    )
    quot, proj = quotient_rep(outer_rep, inner_in_outer)
    induced: List[SubFamily] = []
    for rad_i in radical_series(M):
        meet = rad_i.intersect(outer)
        vecs = []
        for v in M.vertices:
            for vec in meet.spaces[v].basis:
                coords = outer.spaces[v].coords(vec)
                vecs.append((v, proj.mats[v].apply(coords)))
        induced.append(SubFamily.from_vectors(quot, vecs))
    while len(induced) > 1 and induced[-1].is_zero() and induced[-2].is_zero():
        induced.pop()
    return quot, induced


# -- projective covers and Ext^1 --------------------------------------------------


class PositionedGenerator:
    def __init__(self, label: str, depth: int, vector: list):
        self.label = label  # vertex carrying the generator
        self.depth = depth  # radical layer of P0 it sits in, modulo rad Omega
        self.vector = vector  # in P0 coordinates at `label`

    def __repr__(self) -> str:
        return f"PositionedGenerator(L({self.label}) at layer {self.depth})"


def _path_map(N: Representation, gens: Sequence[Tuple[str, list]]):
    """The map (+) P(v_j) -> N sending the idempotent of summand j to x_j, for gens = [(v_j, x_j)].

    Returns, at each vertex w, its columns (j, p), one per basis path p of
    P(v_j) ending at w (summand by summand, in the order `projective_rep`
    gives), and its matrix, whose columns are the images p.x_j in N_w.
    """
    A, F = N.algebra, N.field
    columns: Dict[str, List[Tuple[int, Path]]] = {w: [] for w in N.vertices}
    for j, (v, _) in enumerate(gens):
        for p in A.basis:
            if A.path_source(p) == v:
                columns[A.path_target(p)].append((j, p))
    images = {w: [N.path_matrix(p).apply(gens[j][1]) for j, p in cols] for w, cols in columns.items()}
    return columns, {w: Mat.from_cols(F, images[w]) if images[w] else Mat.zero(F, N.dims[w], 0) for w in N.vertices}


def _path_rows(N: Representation, labels: Sequence[str], columns, vectors) -> Mat:
    """The maps x = (x_j) in (+) N_{labels[j]} |-> sum_k c_k p_k.x_(j_k) in N_w, stacked.

    One block of rows for each (w, c) in `vectors`, where c holds the
    coefficients of the columns[w][k] = (j_k, p_k) of (+) P(labels[j]).
    """
    F, rows = N.field, []
    for w, coeffs in vectors:
        blocks = [Mat.zero(F, N.dims[w], N.dims[v]) for v in labels]
        for (j, p), c in zip(columns[w], coeffs):
            if c:
                blocks[j] = blocks[j].add(N.path_matrix(p).scale(c))
        rows.extend([x for b in blocks for x in b.data[r]] for r in range(N.dims[w]))
    return Mat.canonical(F, rows, sum(N.dims[v] for v in labels))


class ProjectiveCover:
    """Projective presentation of M: P0 = (+) P(v_i) -> M, its kernel Omega
    and generators v_j of Omega positioned by radical depth in P0.

    Summand i is P(v_i) for a head basis vector of M at v_i = heads[i]; its
    idempotent goes to a lift of that vector.  Column c of P0 at vertex w is
    the basis path p of summand i, where columns[w][c] = (i, p).  At each
    vertex the generators are taken deepest first (`flag_complements`): those of
    depth d extend (Omega cap rad^(d+1) P0) + rad Omega to (Omega cap rad^d P0) + rad Omega.
    They generate Omega, so a map out of Omega is known by their images, and
    Omega is (+) P(v_j) modulo the relations: the kernel of e_j |-> v_j,
    whose columns at w are paths[w] = [(j, p)], with the matrix path_images[w].
    """

    def __init__(self, M: Representation):
        algebra, F = M.algebra, M.field
        rad = radical_of(M, SubFamily.full(M))
        lifts = [(v, vec) for v in M.vertices for vec in rad.spaces[v].complement_in(Subspace.full(F, M.dims[v]))]
        summands = [projective_rep(algebra, v) for v, _ in lifts]
        self.heads = [v for v, _ in lifts]
        self.P0 = direct_sum(summands)[0] if summands else Representation(algebra, {}, {}, name="0")
        self.columns, images = _path_map(M, lifts)
        cover = Morphism(self.P0, M, images)
        if not cover.is_surjective():
            raise ModuleError("projective cover failed to surject")
        self.syzygy = cover.kernel()
        rad_syz = radical_of(self.P0, self.syzygy)
        flag = [self.syzygy.intersect(rad_d).sum(rad_syz) for rad_d in radical_series(self.P0)]
        self.generators = [
            PositionedGenerator(v, depth, vec) for v, picked in flag_complements(flag, rad_syz).items() for depth, vec in picked
        ]
        self.paths, self.path_images = _path_map(self.P0, [(g.label, g.vector) for g in self.generators])
        self.relations = {w: kernel_basis(self.path_images[w]) for w in M.vertices}
        for w in M.vertices:  # the rank of e_j |-> v_j at w must be dim Omega_w
            if len(self.paths[w]) - len(self.relations[w]) != self.syzygy.dim_at(w):
                raise ModuleError(f"the positioned generators do not span the syzygy at vertex {w}")

    def hom(self, N: Representation) -> Subspace:
        """Hom(Omega, N) as the generator images in (+) N_{v_j} that the relations kill."""
        labels = [g.label for g in self.generators]
        relations = _path_rows(N, labels, self.paths, [(w, r) for w in N.vertices for r in self.relations[w]])
        return Subspace(N.field, relations.cols, kernel_basis(relations))

    def read_off(self, N: Representation) -> Mat:
        """Hom(P0, N) restricted to Omega, read off with no linear system.

        x = (x_i) in (+) N_{v_i} gives the map P0 -> N sending path p of
        summand i to p.x_i.  Column k of the result holds the generator
        images, as in `hom`, of the map of the k-th unit vector.
        """
        return _path_rows(N, self.heads, self.columns, [(g.label, g.vector) for g in self.generators])


class Ext1Result:
    def __init__(self, classes: List[list], cover: ProjectiveCover):
        self.dim = len(classes)
        self.classes = classes  # generator images of maps syzygy -> N, a basis of Ext^1
        self.cover = cover


def ext1(M: Representation, N: Representation, cover: Optional[ProjectiveCover] = None) -> Ext1Result:
    """Ext^1(M, N) = Hom(Omega, N) / restrictions of Hom(P0, N).

    Both live in the generator images of Omega (`ProjectiveCover.hom` and
    `.read_off`), and the classes complement the restrictions there.
    `cover` is a presentation of M to reuse; by default one is built.
    """
    if cover is None:
        cover = ProjectiveCover(M)
    hom = cover.hom(N)
    restricted = Subspace(N.field, hom.ambient, cover.read_off(N).transpose().data)
    return Ext1Result(restricted.complement_in(hom), cover)


# -- finite-field enumeration helpers (oracles) -------------------------------------


def subspace_vectors(sub: Subspace) -> Iterable[list]:
    """The nonzero vectors of a subspace over a finite field."""
    F = sub.field
    if F.p == 0:
        raise ModuleError("cannot enumerate vectors over the rationals")
    for coeffs in itertools.product(F.elements(), repeat=sub.dim):
        if not any(coeffs):
            continue
        vec = [0] * sub.ambient
        for c, b in zip(coeffs, sub.basis):
            if c:
                vec = [x + c * y for x, y in zip(vec, b)]
        yield [x % F.p for x in vec]


def all_submodules(M: Representation, max_total_dim: int = 10) -> List[SubFamily]:
    """Full submodule lattice over a finite field: cyclic spins + join closure."""
    if M.field.p == 0:
        raise ModuleError("submodule enumeration requires a finite field")
    if M.total_dim > max_total_dim:
        raise ModuleError(f"module too large ({M.total_dim}) for lattice enumeration")
    cyclics = {SubFamily(M)}
    for v in M.vertices:
        for vec in subspace_vectors(Subspace.full(M.field, M.dims[v])):
            cyclics.add(spin_submodule(M, [(v, vec)]))
    lattice = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for a in frontier:
            for b in cyclics:
                if a.contains(b):  # a + b = a is already in the lattice
                    continue
                s = a.sum(b)
                if s not in lattice:
                    lattice.add(s)
                    new.add(s)
        frontier = new
    return sorted(lattice, key=lambda f: (f.total_dim, tuple(f.dim_at(v) for v in M.vertices)))


def hom_combinations(basis: List[Morphism]) -> Iterable[Morphism]:
    """All nonzero combinations of a hom basis over a small finite field."""
    F = basis[0].source.field if basis else None
    if not basis:
        return
    if F.p == 0 or F.p ** len(basis) > 2 ** 14:
        raise ModuleError("hom-space enumeration out of range")
    for coeffs in itertools.product(F.elements(), repeat=len(basis)):
        if any(coeffs):
            yield linear_combination(basis, coeffs)


# -- .rep file format -----------------------------------------------------------------


def parse_rep_text(text: str, algebra: FinDimAlgebra, name: str = "") -> Representation:
    """Parse the line-oriented .rep format (algebra/dim/map, then matrix rows).

    Comments and blank lines may appear anywhere, inside `map` blocks too.
    The `dim` lines are read first, so a `map` block may come before them.
    Every malformed line raises a ModuleError that names it.
    """
    quiver = algebra.quiver
    dims: Dict[str, int] = {}
    mats: Dict[str, Mat] = {}
    # (1-based line number, tokens) of each line that is not blank or a comment
    lines = [(n, parts) for n, raw in enumerate(text.splitlines(), start=1) if (parts := raw.split("#", 1)[0].split())]
    for line_no, parts in lines:
        if parts[0] != "dim":
            continue
        if len(parts) != 3:
            raise ModuleError(f"line {line_no}: expected 'dim <vertex> <count>'")
        if parts[1] not in quiver.vertices:
            raise ModuleError(f"line {line_no}: unknown vertex {parts[1]!r}")
        if not parts[2].isdecimal():
            raise ModuleError(f"line {line_no}: dimension {parts[2]!r} is not a non-negative integer")
        dims[parts[1]] = int(parts[2])
    i = 0
    while i < len(lines):
        line_no, parts = lines[i]
        i += 1
        if parts[0] in ("algebra", "dim"):
            continue  # the caller resolves the algebra; the dims are read above
        if parts[0] == "map":
            if len(parts) != 2:
                raise ModuleError(f"line {line_no}: expected 'map <arrow>'")
            a = parts[1]
            if a not in quiver.arrows:
                raise ModuleError(f"line {line_no}: unknown arrow {a!r} in representation file")
            u, w = quiver.arrows[a]
            rows, first = [], i
            for k in range(dims.get(w, 0)):
                if i == len(lines) or lines[i][1][0] in ("algebra", "dim", "map"):
                    cut = "the file ends" if i == len(lines) else f"line {lines[i][0]} starts the next block"
                    raise ModuleError(f"line {line_no}: map {a!r} needs {dims[w]} rows, {cut} after {k}")
                row_no, row = lines[i]
                i += 1
                if rows and len(row) != len(rows[0]):
                    raise ModuleError(
                        f"line {row_no}: map {a!r}: row has {len(row)} entries, the block's first row has {len(rows[0])}"
                    )
                try:
                    rows.append([algebra.field.of(x) for x in row])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ModuleError(f"line {row_no}: map {a!r}: {exc}") from exc
            if rows and len(rows[0]) != dims.get(u, 0):
                raise ModuleError(
                    f"line {lines[first][0]}: map {a!r}: row has {len(rows[0])} entries, "
                    f"expected dim {u} = {dims.get(u, 0)}"
                )
            mats[a] = Mat.canonical(algebra.field, rows, dims.get(u, 0))
        else:
            raise ModuleError(f"line {line_no}: unknown keyword {parts[0]!r} in representation file")
    return Representation(algebra, dims, mats, name=name)


def load_rep(path: str, algebra: Optional[FinDimAlgebra] = None, field_override: Optional[int] = None) -> Representation:
    import os

    from .quiver import load_alg

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if algebra is None:
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("algebra "):
                alg_path = line.split(None, 1)[1]
                if not os.path.isabs(alg_path):
                    alg_path = os.path.join(os.path.dirname(os.path.abspath(path)), alg_path)
                algebra = load_alg(alg_path, field_override=field_override)
                break
        if algebra is None:
            raise ModuleError("representation file lacks an 'algebra' line")
    return parse_rep_text(text, algebra, name=path)
