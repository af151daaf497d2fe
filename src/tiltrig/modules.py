"""Finite-dimensional modules over a path algebra, presented as quiver
representations: one exact matrix per arrow.

Submodules are per-vertex subspace families closed under the arrow action
(vertex idempotents split any module element into its vertex components, so
nothing is lost by working per vertex).  A map between modules is a plain
dict of its vertex matrices, one per vertex; `image` reads its image.
Radical and socle series, spins, quotient modules, Hom and Ext^1 spaces and
the rigidity test all live here.
A subquotient is read in its ambient module, as the families between inner
and outer, and never built as a module of its own.  Ext^1 is read off the
presentation P0 -> P0/Omega of a given projective P0 and submodule Omega,
which builds no module either.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Mat, Subspace, extend_echelon, kernel_basis, quotient_map
from .quiver import FinDimAlgebra, LoewyProfile, Path


class ModuleError(ValueError):
    def __init__(self, message: str, arrows: Sequence[str] = ()):
        super().__init__(message)
        self.arrows = list(arrows)  # the arrows at fault, where there are any


class Representation:
    """Module over a FinDimAlgebra: dims per vertex, one matrix per arrow.

    The matrix of arrow a: u -> w has shape (dim w) x (dim u); a path acts by
    multiplying its arrow matrices in traversal order (first arrow applied
    first).  Construction checks shapes and that every relation acts by zero.
    A module never changes afterwards, so `radical_series` keeps its chain on it.
    """

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
        """Action of a composable arrow word (traversal order): the last
        arrow's matrix times the cached action of the prefix."""
        path = tuple(path)
        if path in self._path_cache:
            return self._path_cache[path]
        head, last = path[:-1], path[-1]
        if last in self.algebra.quiver.vertices:
            out = Mat.identity(self.field, self.dims[last])
        elif head:
            out = self.mats[last].mul(self.path_matrix(head))
        else:
            out = self.mats[last]
        self._path_cache[path] = out
        return out

    def _check_relations(self) -> None:
        F = self.field
        for rel in self.algebra.relations:
            total = None
            for c, p in rel.terms:
                c = F.of(c)
                term = self.path_matrix(p) if c == 1 else self.path_matrix(p).scale(c)
                total = term if total is None else total.add(term)
            if total is not None and not total.is_zero():
                raise ModuleError(f"relation {rel!r} does not act by zero", sorted({a for _, p in rel.terms for a in p}))

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
        """The sum, and `self` itself when other <= self."""
        spaces = {v: self.spaces[v].sum(other.spaces[v]) for v in self.rep.vertices}
        if all(spaces[v] is self.spaces[v] for v in self.rep.vertices):
            return self
        return SubFamily(self.rep, spaces)

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
    """Indecomposable projective at a vertex: spanned by paths starting there,
    at each vertex in the order of `_path_columns`."""
    if vertex not in algebra.quiver.vertices:
        raise ModuleError(f"unknown vertex {vertex!r}")
    by_vertex = {v: [p for _, p in cols] for v, cols in _path_columns(algebra, [vertex]).items()}
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
    return Representation(algebra, dims, mats, name=f"P({vertex})")


def morphism_from_flat(source: Representation, target: Representation, flat: list) -> Dict[str, Mat]:
    """The map whose vertex matrices, row by row, are the canonical list `flat`."""
    mats = {}
    pos = 0
    for v in source.vertices:
        r, c = target.dims[v], source.dims[v]
        if r == 0 or c == 0:
            mats[v] = Mat.zero(source.field, r, c)
        else:
            mats[v] = Mat.canonical(source.field, [flat[pos + i * c : pos + (i + 1) * c] for i in range(r)])
        pos += r * c
    return mats


def image(N: Representation, f: Dict[str, Mat]) -> SubFamily:
    """The image in N of a map into N, given by its vertex matrices."""
    return SubFamily(N, {v: Subspace(N.field, N.dims[v], f[v].transpose().data) for v in N.vertices})


def hom_space(M: Representation, N: Representation) -> List[Dict[str, Mat]]:
    """Basis of Hom(M, N), each map as its vertex matrices: solve the
    commuting conditions exactly.

    The unknowns are the entries of f_v (dim N_v x dim M_v), row by row,
    vertex after vertex.  Arrow a: u -> w gives one equation per entry (r, c)
    of f_w XM_a - XN_a f_u = 0: column c of XM_a on row r of f_w, and minus
    row r of XN_a on column c of f_u.
    """
    if M.algebra is not N.algebra and M.algebra.basis != N.algebra.basis:
        raise ModuleError("hom_space requires modules over the same algebra")
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


# -- sums, subs, quotients ------------------------------------------------------


def direct_sum(reps: Sequence[Representation]) -> Tuple[Representation, List[Dict[str, Mat]]]:
    """Direct sum with the vertex matrices of the canonical injections.  At
    each vertex the summands' coordinates are stacked in the order given."""
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
        injections.append(inj)
    return total, injections


def quotient_rep(M: Representation, fam: SubFamily) -> Representation:
    """Quotient by a submodule family, read on the free coordinates.

    Q_v of `quotient_map` has kernel exactly fam_v and sends the unit vector
    of its k-th free coordinate to the k-th unit vector, so arrow a: u -> w
    acts on the quotient by the free columns of Q_w X_a.  The family is
    arrow-stable exactly when Q_w X_a B_u = 0, with B_u the basis of fam_u as
    columns; otherwise raises ModuleError.
    """
    F = M.field
    quotients = {v: quotient_map(F, fam.spaces[v]) for v in M.vertices}
    mats = {}
    for a, (u, w) in M.algebra.quiver.arrows.items():
        QX = quotients[w][0].mul(M.mats[a])
        if fam.spaces[u].dim and not QX.mul(Mat.from_cols(F, fam.spaces[u].basis)).is_zero():
            raise ModuleError("family is not arrow-stable; not a submodule")
        free = quotients[u][1]
        mats[a] = Mat.canonical(F, [[row[c] for c in free] for row in QX.data], len(free))
    dims = {v: len(free) for v, (_, free) in quotients.items()}
    return Representation(M.algebra, dims, mats, name=f"{M.name}/sub")


# -- series and profiles ---------------------------------------------------------


def spin_submodule(M: Representation, vectors: Iterable[Tuple[str, Sequence]]) -> SubFamily:
    """Smallest arrow-stable family containing the vectors: S + J S + J^2 S + ...

    A worklist: each vector is reduced against the rows kept at its vertex,
    and only a nonzero residue is kept and pushed through the arrows out of
    that vertex.  One elimination per vertex then makes the bases canonical.
    """
    F, quiver = M.field, M.algebra.quiver
    out = {v: [(quiver.target(a), M.mats[a]) for a in quiver.arrows_from(v)] for v in M.vertices}
    kept: Dict[str, Tuple[list, list]] = {v: ([], []) for v in M.vertices}  # echelon rows, pivots
    work = [(v, list(vec)) for v, vec in vectors]
    while work:
        v, vec = work.pop()
        new = extend_echelon(F, *kept[v], vec)
        if new is not None:
            work.extend((w, X.apply(new)) for w, X in out[v])
    return SubFamily(M, {v: Subspace(F, M.dims[v], rows) for v, (rows, _) in kept.items() if rows})


def radical_of(M: Representation, fam: SubFamily) -> SubFamily:
    """J * fam: the span of all arrow images (a submodule whenever fam is)."""
    vectors = []
    for a, (u, w) in M.algebra.quiver.arrows.items():
        X = M.mats[a]
        for vec in fam.spaces[u].basis:
            vectors.append((w, X.apply(vec)))
    return SubFamily.from_vectors(M, vectors)


def radical_chain(M: Representation, outer: SubFamily, inner: SubFamily) -> List[SubFamily]:
    """The radical series of outer/inner read in M, for submodules inner <= outer:
    outer > J outer + inner > ... > inner (last entry inner)."""
    chain = [outer]
    while chain[-1] != inner:
        chain.append(radical_of(M, chain[-1]).sum(inner))
    return chain


def radical_series(M: Representation) -> Tuple[SubFamily, ...]:
    """Descending chain M = rad^0 > rad^1 > ... > 0 (last entry zero), built
    once and kept on M; callers must not change M or the families."""
    if M._radical_series is None:
        M._radical_series = tuple(radical_chain(M, SubFamily.full(M), SubFamily(M)))
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


# -- projective presentations and Ext^1 -------------------------------------------


def _path_columns(A: FinDimAlgebra, labels: Sequence[str]) -> Dict[str, List[Tuple[int, Path]]]:
    """The columns (j, p) of (+) P(labels[j]) at each vertex w, one per basis
    path p of P(labels[j]) ending at w, summand by summand, each in the
    order of the algebra's basis (the order of `projective_rep`)."""
    columns: Dict[str, List[Tuple[int, Path]]] = {w: [] for w in A.quiver.vertices}
    for j, v in enumerate(labels):
        for p in A.paths_from[v]:
            columns[A.path_target(p)].append((j, p))
    return columns


def _path_map(N: Representation, gens: Sequence[Tuple[str, list]]):
    """The map (+) P(v_j) -> N sending the idempotent of summand j to x_j, for gens = [(v_j, x_j)].

    Returns, at each vertex w, its columns (`_path_columns`) and its matrix,
    whose columns are the images p.x_j in N_w.
    """
    F = N.field
    columns = _path_columns(N.algebra, [v for v, _ in gens])
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
                blocks[j] = blocks[j].add(N.path_matrix(p) if c == 1 else N.path_matrix(p).scale(c))
        rows.extend([x for b in blocks for x in b.data[r]] for r in range(N.dims[w]))
    return Mat.canonical(F, rows, sum(N.dims[v] for v in labels))


class ProjectiveCover:
    """Projective presentation P0 -> P0/Omega of a given projective
    P0 = (+) P(heads[i]) and submodule Omega, with generators v_j of Omega
    positioned by radical depth in P0: `generators` holds the triples
    (label, depth, vector), the vertex carrying v_j, the radical layer of P0
    it sits in modulo rad Omega, and v_j in P0 coordinates at that vertex.

    P0 is stacked summand by summand at each vertex, as `direct_sum` of
    `projective_rep`s stacks it: column c of P0 at vertex w is the basis
    path p of summand i, where columns[w][c] = (i, p).  At each vertex the
    generators are taken deepest first (`flag_complements`): those of depth
    d extend (Omega cap rad^(d+1) P0) + rad Omega to (Omega cap rad^d P0) +
    rad Omega.  They generate Omega, so a map out of Omega is known by their
    images, and Omega is (+) P(v_j) modulo the relations: the kernel of
    e_j |-> v_j, whose columns at w are paths[w] = [(j, p)], with the matrix
    path_images[w].  No module is built.
    """

    def __init__(self, P0: Representation, heads: Sequence[str], syzygy: SubFamily):
        self.P0, self.heads, self.syzygy = P0, list(heads), syzygy
        self.columns = _path_columns(P0.algebra, self.heads)
        rad_syz = radical_of(P0, syzygy)
        flag = [syzygy.intersect(rad_d).sum(rad_syz) for rad_d in radical_series(P0)]
        self.generators = [(v, depth, vec) for v, picked in flag_complements(flag, rad_syz).items() for depth, vec in picked]
        self.paths, self.path_images = _path_map(P0, [(v, vec) for v, _, vec in self.generators])
        self.relations = {w: kernel_basis(self.path_images[w]) for w in P0.vertices}
        for w in P0.vertices:  # the rank of e_j |-> v_j at w must be dim Omega_w
            if len(self.paths[w]) - len(self.relations[w]) != syzygy.dim_at(w):
                raise ModuleError(f"the positioned generators do not span the syzygy at vertex {w}")

    def hom(self, N: Representation) -> Subspace:
        """Hom(Omega, N) as the generator images in (+) N_{v_j} that the relations kill."""
        labels = [v for v, _, _ in self.generators]
        relations = _path_rows(N, labels, self.paths, [(w, r) for w in N.vertices for r in self.relations[w]])
        return Subspace(N.field, relations.cols, kernel_basis(relations))

    def generator_slices(self, N: Representation) -> List[slice]:
        """Where the image f(v_j) of each generator sits in (+) N_{v_j}, the
        layout of `hom` and `read_off` (`_path_rows`)."""
        slices, pos = [], 0
        for v, _, _ in self.generators:
            slices.append(slice(pos, pos + N.dims[v]))
            pos = slices[-1].stop
        return slices

    def read_off(self, N: Representation) -> Mat:
        """Hom(P0, N) restricted to Omega, read off with no linear system.

        x = (x_i) in (+) N_{v_i} gives the map P0 -> N sending path p of
        summand i to p.x_i.  Column k of the result holds the generator
        images, as in `hom`, of the map of the k-th unit vector.
        """
        return _path_rows(N, self.heads, self.columns, [(v, vec) for v, _, vec in self.generators])


def ext1(cover: ProjectiveCover, N: Representation) -> List[list]:
    """A basis of Ext^1(P0/Omega, N) = Hom(Omega, N) / restrictions of Hom(P0, N).

    Both live in the generator images of Omega (`ProjectiveCover.hom` and
    `.read_off`), and each class is given by its generator images, as a
    complement of the restrictions there.
    """
    hom = cover.hom(N)
    restricted = Subspace(N.field, hom.ambient, cover.read_off(N).transpose().data)
    return restricted.complement_in(hom)


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
                s = a.sum(b)
                if s is not a and s not in lattice:  # a + b is a exactly when b <= a
                    lattice.add(s)
                    new.add(s)
        frontier = new
    return sorted(lattice, key=lambda f: (f.total_dim, tuple(f.dim_at(v) for v in M.vertices)))


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
    map_lines: Dict[str, int] = {}
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
            map_lines[a] = line_no
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
    try:
        return Representation(algebra, dims, mats, name=name)
    except ModuleError as exc:  # a relation that does not act by zero: name its arrows' map lines
        at = sorted({map_lines[a] for a in exc.arrows if a in map_lines})
        if not at:
            raise
        raise ModuleError(f"line{'s' if len(at) > 1 else ''} {', '.join(map(str, at))}: {exc}") from exc


def load_rep(path: str, field_override: Optional[int] = None) -> Representation:
    """The module of a .rep file, over the algebra its `algebra` line names
    (a path relative to the .rep file's directory, unless absolute)."""
    import os

    from .quiver import load_alg

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    found = None  # (line number, path) of the one `algebra` line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts[:1] != ["algebra"]:
            continue
        if len(parts) != 2:
            raise ModuleError(f"{path}: line {line_no}: expected 'algebra <path>'")
        if found:
            raise ModuleError(f"{path}: line {line_no}: second 'algebra' line, after line {found[0]}")
        found = (line_no, parts[1])
    if not found:
        raise ModuleError(f"{path}: representation file lacks an 'algebra' line")
    line_no, alg_path = found
    if not os.path.isabs(alg_path):
        alg_path = os.path.join(os.path.dirname(os.path.abspath(path)), alg_path)
    try:
        algebra = load_alg(alg_path, field_override=field_override)
    except OSError as exc:
        raise ModuleError(f"{path}: line {line_no}: cannot read algebra file {alg_path!r}: {exc.strerror or exc}") from exc
    return parse_rep_text(text, algebra, name=path)
