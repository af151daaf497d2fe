"""Executable rigidity checks for tilting modules: filtered Ext^1 against
standard modules, detection of stretched subquotients by hom lifting, a
definitional brute-force enumerator over small finite fields that reads each
subquotient in T, and the pipeline tying them to the direct
radical-vs-socle oracle.

Filtered Ext^1 and the stretched-subquotient detector read the same
positioned cocycle and boundary spaces of the minimal presentation of
Delta(lam).  A `PositionedLifting` holds them for one (lam, T) and builds
each shift's spaces on first use; it and the `MinimalPresentation` of each
weight live in the `StandardSystem` memo, so each is built once per system,
as is the duality image of T over `dual_system()` that the L-nabla side
runs on.  Every radical series read here is the one kept on its module,
built once and never changed.

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
    radical_chain,
    radical_of,
    radical_profile,
    radical_series,
)
from .highest_weight import MinimalPresentation, StandardSystem, check_radical_respecting, is_standard_quotient


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
            F, n, vectors, pres = self.hom.field, self.hom.ambient, [], self.pres
            for (label, m, _), block in zip(pres.generators, pres.generator_slices(self.T)):  # (+)_j rad^(m_j+shift) T_{v_j}
                deep = _clamped(radical_series(self.T), m + shift).spaces[label]
                vectors.extend([F.zero] * block.start + row + [F.zero] * (n - block.stop) for row in deep.basis)
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


def filtered_ext1_delta(sys: StandardSystem, lam: str, shift: int, T: Representation) -> int:
    """dim of filtered Ext^1(Delta(lam)<shift>, T): positioned cocycles mod
    positioned restrictions of maps out of the projective cover."""
    lift = positioned_lifting(sys, lam, T)
    deep, boundaries = lift.deep(shift), lift.boundary(shift)
    if not deep.contains_space(boundaries):
        raise ModuleError("filtered boundaries escaped the cocycle space; solver bug")
    return deep.dim - boundaries.dim


# -- stretched-subquotient detection ---------------------------------------------------


def _delta_side(sys: StandardSystem, T: Representation, side: str) -> Tuple[StandardSystem, Representation]:
    """(sys, T) to run a delta-L test on: T itself, or for the L-nabla side its dual over the dual system."""
    if side not in ("delta-L", "L-nabla"):
        raise ValueError(f"unknown side {side!r}")
    if side == "delta-L":
        return sys, T
    dual, dual_sys = sys.dual_module(T)
    return dual_sys, dual


def detect_stretched(sys: StandardSystem, T: Representation, side: str = "delta-L") -> List[Tuple[str, int, list]]:
    """Layer-compatibility criterion from the filtered-lifting argument.

    For each weight and each layer s: every restriction to the syzygy of a
    map P(lam) -> T that is s-deep relative to the generator positions must
    split as (restriction of a map with image in rad^s T) plus a restriction
    that is (s+1)-deep.  Returns the failing cells (lam, s, witness), the
    witness an s-deep restriction that does not split; the list is empty
    when the criterion holds.  The L-nabla side runs the same test on the
    duality image of T, per the radical/socle exchange.
    """
    sys, T = _delta_side(sys, T, side)
    failures = []
    ell = loewy_length(T)
    for lam in sys.labels:
        lift = positioned_lifting(sys, lam, T)
        restr_all = lift.boundary(0)
        G = [lift.deep(s).intersect(restr_all) for s in range(ell + 2)]
        for s in range(ell + 1):
            span = lift.boundary(s).sum(G[s + 1])
            witness = next((f for f in G[s].basis if not span.contains(f)), None)
            if witness is not None:
                failures.append((lam, s, witness))
    return failures


# -- brute-force enumerator (definitional oracle) ----------------------------------------


BRUTE_FORCE_MAX_DIM = 8  # the largest T whose submodule lattice the oracle enumerates


Witness = Tuple[Tuple[int, ...], Tuple[int, ...], str, str, List[Tuple[int, ...]]]


def stretched_subquotients_bruteforce(sys: StandardSystem, T: Representation, side: str = "delta-L") -> List[Witness]:
    """Enumerate subquotient pairs and test the defining conditions directly.

    Only usable over a small finite field; this is the definitional oracle the
    layer criterion is compared against.  The pairs (outer, inner) come from
    the submodule lattice of T, and Q = outer/inner is read in T as the
    families between inner and outer: rad^k Q is J^k outer + inner, the
    induced chain is (rad^i T cap outer) + inner, and the positions are
    differences of dimensions.  The head and standard-quotient tests are read
    off Q's top and dimension vector; the shifted-quotient test then runs
    once per pair and the socle test on the line Q_mu.  No module is built.

    Each witness is (outer_dims, inner_dims, lam, mu, positions): the
    dimension vectors of the pair, the head and socle weights of Q, and the
    dimension vectors of the layers of Q's induced chain.
    """
    sys, T = _delta_side(sys, T, side)
    if T.field.p == 0:
        raise ModuleError("brute-force enumeration requires a finite field")
    if T.total_dim > BRUTE_FORCE_MAX_DIM:
        raise ModuleError(f"module too large for brute force (dim {T.total_dim} > {BRUTE_FORCE_MAX_DIM})")

    witnesses: List[Witness] = []
    subs = all_submodules(T, max_total_dim=BRUTE_FORCE_MAX_DIM)
    for outer in subs:
        rad_outer = radical_of(T, outer)  # rad Q = J outer + inner
        for inner in subs:
            if outer.total_dim - inner.total_dim < 2:
                continue
            dims = {v: outer.dim_at(v) - inner.dim_at(v) for v in T.vertices}
            # a witness needs a weight mu with dim Q_mu = 1 (see _witness_weights)
            if 1 not in dims.values() or not outer.contains(inner):
                continue
            top = {v: outer.dim_at(v) - rad_outer.spaces[v].sum(inner.spaces[v]).dim for v in T.vertices}
            weights = _witness_weights(sys, top, dims)
            if weights is None:
                continue
            lam, mu = weights
            induced = _induced_chain(T, outer, inner)
            if _filtered_iso_to_shifted_quotient(lam, induced, radical_chain(T, outer, inner)):
                continue
            # Q_mu is a line in rad Q, as top Q = L(lam); it is the socle line
            # at mu exactly when every arrow sends it into inner
            if not inner.contains(radical_of(T, SubFamily(T, {mu: outer.spaces[mu]}))):
                continue
            outer_dims, inner_dims = (tuple(fam.dim_at(v) for v in T.vertices) for fam in (outer, inner))
            witnesses.append((outer_dims, inner_dims, lam, mu, _induced_positions(induced, inner)))
    return witnesses


def _witness_weights(sys: StandardSystem, top: Dict[str, int], dims: Dict[str, int]) -> Optional[Tuple[str, str]]:
    """The (lam, mu) of a possible witness in a subquotient Q with this top
    and dimension vector, or None when Q can carry none.

    A witness line at mu lies in rad Q (else the extension splits), so Q/line
    has Q's top and dimension vector dims - e_mu: the head test asks for top
    L(lam) with lam < mu, the standard-quotient test for dims - e_mu to
    vanish off {v <= lam}.  Then dim Q_mu = 1, so at most one mu qualifies.
    Conversely, with top L(lam) and mu != lam, Q_mu lies in rad Q, so no
    line at mu splits off.
    """
    head = [v for v, d in top.items() if d]
    if len(head) != 1 or top[head[0]] != 1:
        return None
    lam = head[0]
    for mu, d in dims.items():
        if d == 1 and sys.poset.less(lam, mu) and is_standard_quotient(sys, lam, {**dims, mu: 0}):
            return lam, mu
    return None


def _induced_chain(T: Representation, outer: SubFamily, inner: SubFamily) -> List[SubFamily]:
    """(rad^i T cap outer) + inner, down to the first entry equal to inner."""
    induced = [rad_i.intersect(outer).sum(inner) for rad_i in radical_series(T)]
    while len(induced) > 1 and induced[-1] == induced[-2] == inner:
        induced.pop()
    return induced


def _filtered_iso_to_shifted_quotient(lam: str, induced: List[SubFamily], rad_Q: Sequence[SubFamily]) -> bool:
    """Is Q, with its induced chain, a shifted filtered quotient of P(lam)?

    Both chains are of families of T between inner and outer.  Exactly when
    Q's top is L(lam) and the induced chain is Q's radical series moved down
    r steps.  A surjection P(lam) -> Q carries rad^k P(lam) onto rad^k Q,
    and an isomorphism keeps radical layers, so neither the kernel of
    P(lam) -> Q nor the isomorphism matters.  Both chains end in their only
    entry equal to inner, so r can only be the difference of their lengths.
    """
    top, rad = rad_Q[0], rad_Q[1]
    if any(top.dim_at(v) - rad.dim_at(v) != int(v == lam) for v in top.rep.vertices):
        return False
    r = len(induced) - len(rad_Q)
    return all(induced[i] == _clamped(rad_Q, i - r) for i in range(len(induced)))


def _induced_positions(induced: List[SubFamily], inner: SubFamily) -> List[Tuple[int, ...]]:
    """Dimension vectors of the layers of an induced chain, the last taken over inner."""
    return [
        tuple(big.dim_at(v) - small.dim_at(v) for v in inner.rep.vertices)
        for big, small in zip(induced, induced[1:] + [inner])
    ]


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
        steps = sys.projective_filtration(mu)[0]
        respecting, _, _ = check_radical_respecting(sys, sys.projective(mu), steps)
        hypothesis["projectives"][mu] = {"ok": respecting, "placement": list(steps)}
        hypothesis["ok"] = hypothesis["ok"] and respecting
    report["hypothesis"] = hypothesis

    T = sys.tilting(lam)
    report["tilting"] = {
        "dims": dict(T.dims),
        "radical_profile": [dict(layer) for layer in radical_profile(T)],
    }

    if method in ("direct", "both"):
        report["rigid_oracle"], witness = is_rigid(T)
        if witness:
            report["oracle_witness"] = witness

    rigid_theorem = False
    if method in ("theorem", "both"):
        stretched = {}
        for key, side in (("deltaL", "delta-L"), ("Lnabla", "L-nabla")):
            failures = [{"weight": mu, "layer": s} for mu, s, _ in detect_stretched(sys, T, side)]
            stretched[key] = {"side": side, "ok": not failures, "failures": failures}
        report["stretched"] = stretched
        ell = loewy_length(T)
        filtered = [
            {"weight": mu, "shift": r, "dim": filtered_ext1_delta(sys, mu, r, T)}
            for mu in sys.labels
            for r in range(-ell, ell + 1)
        ]
        report["filteredExt"] = filtered
        report["filteredExt_all_vanish"] = all(e["dim"] == 0 for e in filtered)
        rigid_theorem = hypothesis["ok"] and all(entry["ok"] for entry in stretched.values())
    report["rigid_theorem"] = True if rigid_theorem else "n/a"
    report["consistent"] = not (rigid_theorem and report.get("rigid_oracle") is False)
    return report
