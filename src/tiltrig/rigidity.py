"""Executable rigidity checks for tilting modules: filtered Ext^1 against
standard modules, detection of stretched subquotients by hom lifting, a
definitional brute-force enumerator over small finite fields, and the
pipeline tying them to the direct radical-vs-socle oracle.

Filtered Ext^1 and the stretched-subquotient detector read the same
positioned cocycle and boundary spaces of the minimal presentation of
Delta(lam).  A `PositionedLifting` holds them for one (lam, T) and builds
each shift's spaces on first use; it and the `MinimalPresentation` of each
weight live in the `StandardSystem` memo, so each is built once per system,
as is the duality image the L-nabla side runs on.  Every radical series
read here is the one kept on its module, built once and never changed.

Shift conventions: a map of shift r sends rad^i of the source into rad^(i+r)
of the target; head shifts in filtrations are non-negative radical depths.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Subspace
from .modules import (
    ModuleError,
    Representation,
    SubFamily,
    all_submodules,
    is_rigid,
    loewy_length,
    radical_of,
    radical_profile,
    radical_series,
    socle_of,
    subquotient,
)
from .highest_weight import MinimalPresentation, StandardSystem, check_radical_respecting


def _clamped(chain: Sequence[SubFamily], i: int) -> SubFamily:
    return chain[min(max(i, 0), len(chain) - 1)]


# -- positioned lifting of the presentation of a standard module ---------------------


class PositionedLifting:
    """Positioned cocycles and boundaries of Delta(lam) against one module T.

    Reads the system's presentation P(lam) -> Delta(lam) (a
    `MinimalPresentation`) and works on its generators v_j, of depth m_j:
    a map f out of the syzygy is known by the images f(v_j), so every space
    here lives in (+) T_{v_j}.  Holds Hom(syzygy, T) and the restrictions
    of the maps P(lam) -> T, and reads the radical series kept on T
    (rad^k T = J^k T, as `radical_series` builds it as J rad^(k-1) T).  The
    spaces of a shift are built the first time that shift is asked for.
    """

    def __init__(self, sys: StandardSystem, lam: str, T: Representation):
        self.pres: MinimalPresentation = sys.presentation(lam)
        self.lam, self.T = lam, T
        self.hom = self.pres.hom(T)
        self._read = self.pres.read_off(T)
        self._deep: Dict[int, Subspace] = {}
        self._boundary: Dict[int, Subspace] = {}
        if not self.hom.contains_space(self.boundary(0)):
            raise ModuleError("a restriction of a map P(lam) -> T escaped Hom(syzygy, T)")

    def deep(self, shift: int) -> Subspace:
        """Maps f: syzygy -> T with f(J^t A v_j) <= rad^(m_j+t+shift) T.

        One condition per generator: f(v_j) in rad^(m_j+shift) T puts
        f(J^t A v_j) = J^t A f(v_j) in rad^(m_j+shift+t) T for every t.  When
        m_j + shift <= 0 there is none, since f(J^t A v_j) <= J^t T = rad^t T.
        """
        if shift not in self._deep:
            F, n, vectors, pos = self.hom.field, self.hom.ambient, [], 0
            for g in self.pres.generators:  # (+)_j rad^(m_j+shift) T_{v_j}
                depth = _clamped(radical_series(self.T), g.depth + shift).spaces[g.label]
                vectors.extend([F.zero] * pos + row + [F.zero] * (n - pos - depth.ambient) for row in depth.basis)
                pos += depth.ambient
            self._deep[shift] = self.hom.intersect(Subspace(F, n, vectors))
        return self._deep[shift]

    def boundary(self, shift: int) -> Subspace:
        """Restrictions to the syzygy of maps P(lam) -> T with image in rad^shift T.

        The map sending the idempotent of P(lam) to x in T_lam has image A x,
        which lies in rad^s T exactly when x does.  So the space is spanned by
        the restrictions for x in a basis of rad^s T at lam, and every s <= 0
        gives the space of s = 0.
        """
        shift = max(shift, 0)
        if shift not in self._boundary:
            basis = _clamped(radical_series(self.T), shift).spaces[self.lam].basis
            self._boundary[shift] = Subspace(self.hom.field, self.hom.ambient, [self._read.apply(x) for x in basis])
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
    deep, boundaries = lift.deep(shift), lift.boundary(shift)
    if not deep.contains_space(boundaries):
        raise ModuleError("filtered boundaries escaped the cocycle space; solver bug")
    return FilteredExtResult(lam, shift, deep.dim - boundaries.dim, deep.dim, boundaries.dim)


# -- stretched-subquotient detection ---------------------------------------------------


class StretchEntry:
    def __init__(self, label: str, layer: int, ok: bool, witness: Optional[list]):
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
    ell = loewy_length(T)
    for lam in sys.labels:
        lift = positioned_lifting(sys, lam, T)
        restr_all = lift.boundary(0)
        G = [lift.deep(s).intersect(restr_all) for s in range(ell + 2)]
        for s in range(ell + 1):
            span = lift.boundary(s).sum(G[s + 1])
            if span.contains_space(G[s]):
                entries.append(StretchEntry(lam, s, True, None))
            else:
                witness = next(f for f in G[s].basis if not span.contains(f))
                entries.append(StretchEntry(lam, s, False, witness))
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


def stretched_subquotients_bruteforce(
    sys: StandardSystem, T: Representation, side: str = "delta-L", max_dim: int = 8
) -> List[BruteForceWitness]:
    """Enumerate subquotient pairs and test the defining conditions directly.

    Only usable over a small finite field; this is the definitional oracle the
    layer criterion is compared against.  The pairs (outer, inner) come from
    the submodule lattice of T.  The head and standard-quotient tests are read
    off Q's top and dimension vector before Q is built; the shifted-quotient
    test then runs once per pair and the splitting test on the socle line.
    """
    if side not in ("delta-L", "L-nabla"):
        raise ValueError(f"unknown side {side!r}")
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
        rad_outer = radical_of(T, outer)  # rad Q = (J outer + inner)/inner
        for inner in subs:
            if outer.total_dim - inner.total_dim < 2 or not outer.contains(inner):
                continue
            top = {v: outer.dim_at(v) - rad_outer.spaces[v].sum(inner.spaces[v]).dim for v in T.vertices}
            dims = {v: outer.dim_at(v) - inner.dim_at(v) for v in T.vertices}
            weights = _witness_weights(sys, top, dims)
            if weights is None:
                continue
            lam, mu = weights
            Q, induced = subquotient(T, outer, inner)
            rad_Q = radical_series(Q)
            if _filtered_iso_to_shifted_quotient(lam, induced, rad_Q):
                continue
            # Q_mu is a line, so the socle line at mu is the only candidate
            line = SubFamily(Q, {mu: socle_of(Q, SubFamily(Q)).spaces[mu]})
            if line.is_zero() or _extension_splits(rad_Q, line):
                continue
            outer_dims, inner_dims = (tuple(fam.dim_at(v) for v in T.vertices) for fam in (outer, inner))
            witnesses.append(BruteForceWitness(outer_dims, inner_dims, lam, mu, _induced_positions(induced)))
    return witnesses


def _witness_weights(sys: StandardSystem, top: Dict[str, int], dims: Dict[str, int]) -> Optional[Tuple[str, str]]:
    """The (lam, mu) of a possible witness in a subquotient Q with this top
    and dimension vector, or None when Q can carry none.

    A witness line at mu lies in rad Q (else the extension splits), so Q/line
    has Q's top and dimension vector dims - e_mu: the head test asks for top
    L(lam) with lam < mu, the standard-quotient test for dims - e_mu to
    vanish off {v <= lam}.  Then dim Q_mu = 1, so at most one mu qualifies.
    """
    head = [v for v, d in top.items() if d]
    if len(head) != 1 or top[head[0]] != 1:
        return None
    lam = head[0]
    for mu, d in dims.items():
        if d == 1 and sys.poset.less(lam, mu) and _is_standard_quotient(sys, lam, {**dims, mu: 0}):
            return lam, mu
    return None


def _is_standard_quotient(sys: StandardSystem, lam: str, dims: Dict[str, int]) -> bool:
    """Is a module W with top L(lam) and dimension vector `dims` a quotient of Delta(lam)?

    The kernel of P(lam) -> Delta(lam) is generated by the P(lam)_v with v
    not <= lam, and P(lam) -> W is onto at every vertex, so it kills that
    kernel exactly when W_v = 0 for every such v.
    """
    return all(d == 0 for v, d in dims.items() if not sys.poset.leq(v, lam))


def _extension_splits(rad_Q: Sequence[SubFamily], line: SubFamily) -> bool:
    """Does 0 -> line -> Q -> Q/line -> 0 split?  A simple submodule is a
    direct summand exactly when it does not lie in the radical."""
    return not rad_Q[1].contains(line)


def _filtered_iso_to_shifted_quotient(lam: str, induced: List[SubFamily], rad_Q: Sequence[SubFamily]) -> bool:
    """Is Q, with its induced chain, a shifted filtered quotient of P(lam)?

    Exactly when Q's top is L(lam) and the induced chain is Q's radical
    series moved down r steps.  A surjection P(lam) -> Q carries rad^k P(lam)
    onto rad^k Q, and an isomorphism keeps radical layers, so neither the
    kernel of P(lam) -> Q nor the isomorphism matters.  Both chains end in
    their only zero entry, so r can only be the difference of their lengths.
    """
    top, rad = rad_Q[0], rad_Q[1]
    if any(top.dim_at(v) - rad.dim_at(v) != int(v == lam) for v in top.rep.vertices):
        return False
    r = len(induced) - len(rad_Q)
    return all(induced[i] == _clamped(rad_Q, i - r) for i in range(len(induced)))


def _induced_positions(induced: List[SubFamily]) -> List[Tuple[int, ...]]:
    out = []
    for big, small in zip(induced, induced[1:]):
        out.append(tuple(big.dim_at(v) - small.dim_at(v) for v in big.rep.vertices))
    if induced:
        out.append(tuple(induced[-1].dim_at(v) for v in induced[-1].rep.vertices))
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
