"""Executable rigidity checks for tilting modules: filtered Hom spaces,
filtered Ext^1 against standard modules, detection of stretched subquotients
by hom lifting, a definitional brute-force enumerator over small finite
fields, and the pipeline tying them to the direct radical-vs-socle oracle.

Filtered Ext^1 and the stretched-subquotient detector read the same
positioned cocycle and boundary spaces of the minimal presentation of
Delta(lam).  A `PositionedLifting` holds them for one (lam, T) and builds
each shift's spaces on first use; it and the `MinimalPresentation` of each
weight live in the `StandardSystem` memo, so each is built once per system.

Shift conventions: a map of shift r sends rad^i of the source into rad^(i+r)
of the target; head shifts in filtrations are non-negative radical depths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Mat, Subspace, kernel_basis, quotient_map
from .modules import (
    ModuleError,
    Morphism,
    Representation,
    SubFamily,
    all_submodules,
    hom_combinations,
    hom_space,
    is_rigid,
    linear_combination,
    loewy_length,
    morphism_coords,
    radical_of,
    radical_profile,
    radical_series,
    socle_of,
    spin_submodule,
    sub_rep,
    subquotient,
    subspace_vectors,
)
from .highest_weight import StandardSystem, check_radical_respecting


# -- filtered hom spaces ---------------------------------------------------------


class FilteredHomSpace:
    """Morphisms g with g(rad^i source) <= rad^(i+shift) target, all i."""

    def __init__(self, source: Representation, target: Representation, shift: int, basis: List[Morphism]):
        self.source = source
        self.target = target
        self.shift = shift
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def _clamped(chain: List[SubFamily], i: int) -> SubFamily:
    if i < 0:
        return chain[0]
    if i >= len(chain):
        return chain[-1]
    return chain[i]


def _coords_subspace_to_morphisms(basis: List[Morphism], space: Subspace) -> List[Morphism]:
    return [linear_combination(basis, coords) for coords in space.basis]


def _constrain(
    hom_basis: List[Morphism],
    conditions: Sequence[Tuple[str, list, SubFamily]],
) -> Subspace:
    """Coordinate subspace of combinations f with f(vec) in the given family.

    Each condition is (vertex, vector in source coords, target family).
    """
    F = hom_basis[0].source.field
    n = len(hom_basis)
    rows = []
    for vertex, vec, fam in conditions:
        Q, _ = quotient_map(F, fam.spaces[vertex])
        if Q.rows == 0:
            continue
        imgs = Mat.from_cols(F, [g.mats[vertex].apply(vec) for g in hom_basis])
        rows.extend(row for row in Q.mul(imgs).data if any(row))
    if not rows:
        return Subspace.full(F, n)
    return Subspace(F, n, kernel_basis(Mat.canonical(F, rows)))


def filtered_hom(M: Representation, N: Representation, shift: int) -> FilteredHomSpace:
    """Solve the commuting and per-layer containment conditions exactly."""
    homs = hom_space(M, N)
    if not homs:
        return FilteredHomSpace(M, N, shift, [])
    rad_M = radical_series(M)
    rad_N = radical_series(N)
    conditions = []
    for i in range(len(rad_M)):
        j = i + shift
        if j <= 0:
            continue
        target = _clamped(rad_N, j)
        for v in M.vertices:
            for vec in rad_M[i].spaces[v].basis:
                conditions.append((v, vec, target))
    space = _constrain(homs, conditions)
    return FilteredHomSpace(M, N, shift, _coords_subspace_to_morphisms(homs, space))


# -- minimal filtered presentation of a standard module ------------------------------


class PositionedGenerator:
    def __init__(self, label: str, depth: int, vector: list):
        self.label = label  # vertex carrying the syzygy head factor
        self.depth = depth  # radical layer of that factor inside P(lam)
        self.vector = vector  # generator in P(lam) coordinates at `label`

    def __repr__(self) -> str:
        return f"PositionedGenerator(L({self.label}) at layer {self.depth})"


class MinimalPresentation:
    """Syzygy of Delta(lam) inside P(lam), with layer-positioned generators.

    Records, for each syzygy head factor L(mu) sitting in radical layer m of
    P(lam), the subspaces J^t * (A * v) used to express depth conditions on
    homomorphisms out of the syzygy.
    """

    def __init__(self, sys: StandardSystem, lam: str):
        self.sys = sys
        self.lam = lam
        self.P = sys.projective(lam)
        self.delta, self.projection = sys.standard_with_projection(lam)
        self.syzygy_family = self.projection.kernel()
        self.syzygy, self.inclusion = sub_rep(self.P, self.syzygy_family)
        P, fam = self.P, self.syzygy_family
        rad_P = radical_series(P)
        rad_syz = radical_of(P, fam)
        self.generators: List[PositionedGenerator] = []
        for v in P.vertices:
            current = rad_syz.spaces[v]
            for depth in range(len(rad_P) - 1, -1, -1):
                slab = fam.spaces[v].intersect(rad_P[depth].spaces[v]).sum(rad_syz.spaces[v])
                for vec in current.complement_in(slab):
                    self.generators.append(PositionedGenerator(v, depth, vec))
                current = slab
        # sanity: the generators must span the syzygy head
        total = rad_syz
        for g in self.generators:
            total = total.sum(SubFamily.from_vectors(P, [(g.label, g.vector)]))
        if total != fam:
            raise ModuleError("positioned generators fail to generate the syzygy")
        # W[j][t] = J^t (A v_j), stored in syzygy coordinates per vertex
        self.layer_spaces: List[List[List[Tuple[str, list]]]] = []
        for g in self.generators:
            spaces_j = []
            cyc = spin_submodule(P, [(g.label, g.vector)])
            t = 0
            while not cyc.is_zero():
                vecs = []
                for v in P.vertices:
                    for w in cyc.spaces[v].basis:
                        coords = fam.spaces[v].coords(w)
                        if coords is None:
                            raise ModuleError("cyclic layer escapes the syzygy")
                        vecs.append((v, coords))
                spaces_j.append(vecs)
                cyc = radical_of(P, cyc)
                t += 1
            self.layer_spaces.append(spaces_j)


class PositionedLifting:
    """Positioned cocycles and boundaries of Delta(lam) against one module T.

    Holds the system's presentation of Delta(lam), Hom(syzygy, T),
    Hom(P(lam), T) and rad T.  The deep-cocycle and image-constrained
    boundary spaces of a shift are built the first time that shift is asked
    for; every boundary space of a shift s <= 0 is the one of s = 0.
    """

    def __init__(self, sys: StandardSystem, lam: str, T: Representation):
        self.pres = sys.memo(("presentation", lam), lambda: MinimalPresentation(sys, lam))
        self.hom_syz = hom_space(self.pres.syzygy, T)
        self.hom_P = hom_space(self.pres.P, T) if self.hom_syz else []
        self.rad_T = radical_series(T)
        self._deep: Dict[int, Subspace] = {}
        self._boundary: Dict[int, Subspace] = {}

    def deep(self, shift: int) -> Subspace:
        """Coordinate space of f: syzygy -> T with f(J^t A v_j) <= rad^(m_j+t+shift) T."""
        if shift not in self._deep:
            conditions = []
            for gen, spaces_j in zip(self.pres.generators, self.pres.layer_spaces):
                for t, vecs in enumerate(spaces_j):
                    depth = gen.depth + t + shift
                    if depth > 0:
                        target = _clamped(self.rad_T, depth)
                        conditions.extend((v, coords, target) for v, coords in vecs)
            self._deep[shift] = _constrain(self.hom_syz, conditions)
        return self._deep[shift]

    def boundary(self, shift: int) -> Subspace:
        """Restrictions to the syzygy of maps P(lam) -> T with image in rad^shift T."""
        shift = max(shift, 0)
        if shift not in self._boundary:
            P, F = self.pres.P, self.pres.P.field
            if shift == 0 or not self.hom_P:
                space = Subspace.full(F, len(self.hom_P))
            else:
                target = _clamped(self.rad_T, shift)
                conditions = []
                for v in P.vertices:
                    for k in range(P.dims[v]):
                        unit = [F.zero] * P.dims[v]
                        unit[k] = F.one
                        conditions.append((v, unit, target))
                space = _constrain(self.hom_P, conditions)
            restricted = []
            for coords in space.basis:
                g = linear_combination(self.hom_P, coords)
                c = morphism_coords(self.hom_syz, g.compose(self.pres.inclusion))
                if c is None:
                    raise ModuleError("restriction escaped Hom(syzygy, T)")
                restricted.append(c)
            self._boundary[shift] = Subspace(F, len(self.hom_syz), restricted)
        return self._boundary[shift]


def positioned_lifting(sys: StandardSystem, lam: str, T: Representation) -> PositionedLifting:
    """The lifting data of (lam, T), built once per system and kept in its memo.

    T is keyed by identity, so the system keeps it alive.
    """
    return sys.memo(("lifting", lam, T), lambda: PositionedLifting(sys, lam, T))


class FilteredExtResult:
    def __init__(self, label: str, shift: int, dim: int, cocycle_dim: int, boundary_dim: int):
        self.label = label
        self.shift = shift
        self.dim = dim
        self.cocycle_dim = cocycle_dim
        self.boundary_dim = boundary_dim

    def __repr__(self) -> str:
        return f"FilteredExt1(Delta({self.label})<{self.shift}>, dim {self.dim})"


def filtered_ext1_delta(sys: StandardSystem, lam: str, shift: int, T: Representation) -> FilteredExtResult:
    """Filtered Ext^1(Delta(lam)<shift>, T): positioned cocycles mod positioned
    restrictions of maps out of the projective cover."""
    lift = positioned_lifting(sys, lam, T)
    if not lift.hom_syz:
        return FilteredExtResult(lam, shift, 0, 0, 0)
    deep, boundaries = lift.deep(shift), lift.boundary(shift)
    if not deep.contains_space(boundaries):
        raise ModuleError("filtered boundaries escaped the cocycle space; solver bug")
    return FilteredExtResult(lam, shift, deep.dim - boundaries.dim, deep.dim, boundaries.dim)


# -- stretched-subquotient detection ---------------------------------------------------


class StretchEntry:
    def __init__(self, label: str, layer: int, ok: bool, witness: Optional[Morphism]):
        self.label = label
        self.layer = layer
        self.ok = ok
        self.witness = witness


class StretchReport:
    """Per (weight, layer) verdicts of the hom-lifting layer criterion."""

    def __init__(self, side: str, entries: List[StretchEntry]):
        self.side = side
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> List[StretchEntry]:
        return [e for e in self.entries if not e.ok]

    def as_dict(self) -> dict:
        return {
            "side": self.side,
            "ok": self.ok,
            "failures": [
                {"weight": e.label, "layer": e.layer} for e in self.failures()
            ],
        }


def detect_stretched(sys: StandardSystem, T: Representation, side: str = "delta-L") -> StretchReport:
    """Layer-compatibility criterion from the filtered-lifting argument.

    For each weight and each layer s: every restriction to the syzygy of a
    map P(lam) -> T that is s-deep relative to the generator positions must
    split as (restriction of a map with image in rad^s T) plus a restriction
    that is (s+1)-deep.  The L-nabla side runs the same test on the duality
    image of T, per the radical/socle exchange.
    """
    if side not in ("delta-L", "L-nabla"):
        raise ValueError(f"unknown side {side!r}")
    if side == "L-nabla":
        dual, dual_sys = sys.dual_module(T)
        inner = detect_stretched(dual_sys, dual, side="delta-L")
        return StretchReport("L-nabla", inner.entries)

    entries: List[StretchEntry] = []
    for lam in sys.labels:
        lift = positioned_lifting(sys, lam, T)
        if not lift.hom_syz:
            entries.append(StretchEntry(lam, 0, True, None))
            continue
        restr_all = lift.boundary(0)
        ell = len(lift.rad_T) - 1
        G = [lift.deep(s).intersect(restr_all) for s in range(ell + 2)]
        for s in range(ell + 1):
            span = lift.boundary(s).sum(G[s + 1])
            if span.contains_space(G[s]):
                entries.append(StretchEntry(lam, s, True, None))
            else:
                coords = next(c for c in G[s].basis if not span.contains(c))
                entries.append(StretchEntry(lam, s, False, linear_combination(lift.hom_syz, coords)))
    return StretchReport("delta-L", entries)


# -- brute-force enumerator (definitional oracle) ----------------------------------------


class BruteForceWitness:
    def __init__(self, outer_dims, inner_dims, label, mu, positions):
        self.outer_dims = outer_dims
        self.inner_dims = inner_dims
        self.label = label
        self.mu = mu
        self.positions = positions

    def __repr__(self) -> str:
        return (
            f"StretchedSubquotient(head weight {self.label}, socle weight {self.mu}, "
            f"layers {self.positions})"
        )


def _normalize_chain(chain: List[SubFamily]) -> List[SubFamily]:
    out = list(chain)
    while len(out) > 1 and out[-1].is_zero() and out[-2].is_zero():
        out.pop()
    return out


def _filtered_iso_to_shifted_quotient(
    sys: StandardSystem, lam: str, Q: Representation, induced: List[SubFamily]
) -> bool:
    """Is Q (with its induced chain) a shifted filtered quotient of P(lam)?"""
    P = sys.projective(lam)
    rad_P = radical_series(P)
    induced = _normalize_chain(induced)
    for U in all_submodules(P, max_total_dim=max(10, P.total_dim)):
        if P.total_dim - U.total_dim != Q.total_dim:
            continue
        Pq, _, proj = subquotient(P, SubFamily.full(P), U)
        target_chain = []
        for rad_i in rad_P:
            vecs = []
            for v in P.vertices:
                for vec in rad_i.spaces[v].basis:
                    vecs.append((v, proj.mats[v].apply(vec)))
            target_chain.append(SubFamily.from_vectors(Pq, vecs))
        target_chain = _normalize_chain(target_chain)
        homs = hom_space(Q, Pq)
        if not homs:
            continue
        ell_q, ell_p = len(induced), len(target_chain)
        for r in range(-ell_p - 1, ell_q + 2):
            dims_ok = True
            for i in range(max(ell_q, ell_p + max(r, 0)) + 1):
                a = _clamped(induced, i)
                b = _clamped(target_chain, i - r)
                if any(a.dim_at(v) != b.dim_at(v) for v in P.vertices):
                    dims_ok = False
                    break
            if not dims_ok:
                continue
            for f in hom_combinations(homs):
                if f.kernel().total_dim != 0:
                    continue
                compatible = True
                for i in range(ell_q + 1):
                    a = _clamped(induced, i)
                    b = _clamped(target_chain, i - r)
                    for v in P.vertices:
                        for vec in a.spaces[v].basis:
                            if not b.spaces[v].contains(f.mats[v].apply(vec)):
                                compatible = False
                                break
                        if not compatible:
                            break
                    if not compatible:
                        break
                if compatible:
                    return True
    return False


def stretched_subquotients_bruteforce(
    sys: StandardSystem, T: Representation, side: str = "delta-L", max_dim: int = 8
) -> List[BruteForceWitness]:
    """Enumerate subquotient pairs and test the defining conditions directly.

    Only usable over a small finite field; this is the definitional oracle the
    layer criterion is compared against.
    """
    if side == "L-nabla":
        dual, dual_sys = sys.dual_module(T)
        return stretched_subquotients_bruteforce(dual_sys, dual, side="delta-L", max_dim=max_dim)
    if T.field.p == 0:
        raise ModuleError("brute-force enumeration requires a finite field")
    if T.total_dim > max_dim:
        raise ModuleError(f"module too large for brute force (dim {T.total_dim} > {max_dim})")

    witnesses: List[BruteForceWitness] = []
    subs = all_submodules(T, max_total_dim=max_dim)
    for outer in subs:
        for inner in subs:
            if inner.total_dim >= outer.total_dim or not outer.contains(inner):
                continue
            Q, induced, _ = subquotient(T, outer, inner)
            if Q.total_dim < 2:
                continue
            soc = socle_of(Q, SubFamily(Q))
            for mu in Q.vertices:
                seen_lines = set()
                for w in subspace_vectors(soc.spaces[mu]):
                    line = SubFamily.from_vectors(Q, [(mu, w)])
                    if line in seen_lines or line.total_dim != 1:
                        continue
                    seen_lines.add(line)
                    W, _, _ = subquotient(Q, SubFamily.full(Q), line)
                    head = radical_profile(W)[0] if W.total_dim else None
                    if head is None or sum(head.values()) != 1:
                        continue
                    lam = next(iter(head))
                    if not sys.poset.less(lam, mu):
                        continue
                    if not _is_standard_quotient(sys, lam, W):
                        continue
                    if _extension_splits(Q, line):
                        continue
                    if _filtered_iso_to_shifted_quotient(sys, lam, Q, induced):
                        continue
                    positions = _induced_positions(induced)
                    witnesses.append(
                        BruteForceWitness(
                            tuple(outer.dim_at(v) for v in T.vertices),
                            tuple(inner.dim_at(v) for v in T.vertices),
                            lam,
                            mu,
                            positions,
                        )
                    )
    return witnesses


def _is_standard_quotient(sys: StandardSystem, lam: str, W: Representation) -> bool:
    delta = sys.standard(lam)
    if W.total_dim > delta.total_dim:
        return False
    homs = hom_space(delta, W)
    if not homs:
        return False
    for f in hom_combinations(homs):
        if f.image().total_dim == W.total_dim:
            return True
    return False


def _extension_splits(Q: Representation, line: SubFamily) -> bool:
    for comp in all_submodules(Q, max_total_dim=max(10, Q.total_dim)):
        if (
            comp.total_dim == Q.total_dim - 1
            and comp.intersect(line).total_dim == 0
        ):
            return True
    return False


def _induced_positions(induced: List[SubFamily]) -> List[Tuple[int, ...]]:
    chain = _normalize_chain(induced)
    out = []
    for big, small in zip(chain, chain[1:]):
        out.append(tuple(big.dim_at(v) - small.dim_at(v) for v in big.rep.vertices))
    if chain:
        out.append(tuple(chain[-1].dim_at(v) for v in chain[-1].rep.vertices))
    return out


# -- the pipeline ------------------------------------------------------------------------


def rigidity_pipeline(sys: StandardSystem, lam: str, method: str = "both") -> dict:
    """Theorem-path rigidity check with the direct series oracle alongside.

    The theorem path never asserts non-rigidity; when its hypotheses fail the
    verdict stays not-applicable and only the oracle speaks.
    """
    if method not in ("theorem", "direct", "both"):
        raise ValueError(f"unknown method {method!r}")
    sys.require_quasihereditary()
    report: dict = {"weight": lam, "shift_convention": "non-negative radical depths"}

    hypothesis = {"ok": True, "projectives": {}}
    for mu in sys.labels:
        filt = sys.projective_filtration(mu)
        respecting, _, _ = check_radical_respecting(sys, filt.module, filt)
        hypothesis["projectives"][mu] = {
            "ok": respecting,
            "placement": filt.placement(),
        }
        hypothesis["ok"] = hypothesis["ok"] and respecting
    report["hypothesis"] = hypothesis

    T = sys.tilting(lam)
    report["tilting"] = {
        "dims": dict(T.dims),
        "radical_profile": [dict(layer) for layer in radical_profile(T)],
    }

    rigid_oracle = None
    if method in ("direct", "both"):
        ok, witness = is_rigid(T)
        rigid_oracle = ok
        report["rigid_oracle"] = ok
        if witness:
            report["oracle_witness"] = witness

    rigid_theorem: Optional[bool] = None
    if method in ("theorem", "both"):
        det_delta = detect_stretched(sys, T, "delta-L")
        det_nabla = detect_stretched(sys, T, "L-nabla")
        report["stretched"] = {"deltaL": det_delta.as_dict(), "Lnabla": det_nabla.as_dict()}
        ell = loewy_length(T)
        filtered = []
        for mu in sys.labels:
            for r in range(-ell, ell + 1):
                res = filtered_ext1_delta(sys, mu, r, T)
                filtered.append({"weight": mu, "shift": r, "dim": res.dim})
        report["filteredExt"] = filtered
        report["filteredExt_all_vanish"] = all(e["dim"] == 0 for e in filtered)
        if hypothesis["ok"] and det_delta.ok and det_nabla.ok:
            rigid_theorem = True
    report["rigid_theorem"] = rigid_theorem if rigid_theorem is not None else "n/a"

    if rigid_theorem is True and rigid_oracle is False:
        report["consistent"] = False
    else:
        report["consistent"] = True
    return report
