"""Highest-weight structure over a path algebra: standard and costandard
modules, quasi-hereditary verification, Delta-filtrations with head shifts,
radical-respecting checks, Ringel's tilting construction, and the BGG
reciprocity check for algebras with a duality.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Mat, Subspace, kernel_basis, quotient_map
from .modules import (
    LoewyProfile,
    ModuleError,
    Morphism,
    ProjectiveCover,
    Representation,
    SubFamily,
    direct_sum,
    ext1,
    hom_space,
    linear_combination,
    morphism_from_flat,
    projective_rep,
    quotient_rep,
    radical_of,
    radical_profile,
    radical_series,
    simple_rep,
    spin_submodule,
    subquotient,
)
from .quiver import FinDimAlgebra


class PosetError(ValueError):
    pass


class WeightPoset:
    """Partial order on vertex labels, given by cover relations."""

    def __init__(self, labels: Sequence[str], covers: Sequence[Tuple[str, str]]):
        self.labels = list(labels)
        idx = {l: i for i, l in enumerate(self.labels)}
        n = len(self.labels)
        leq = [[i == j for j in range(n)] for i in range(n)]
        for a, b in covers:
            if a not in idx or b not in idx:
                raise PosetError(f"order relation names unknown label: {a} < {b}")
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
                    raise PosetError(f"order is not antisymmetric at {self.labels[i]}, {self.labels[j]}")
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


def dualize(M: Representation) -> Representation:
    """Duality image over the same algebra via the arrow anti-involution."""
    pairs = M.algebra.duality_pairs
    if pairs is None:
        raise ModuleError("algebra declares no duality pairing")
    mats = {a: M.mats[pairs[a]].transpose() for a in M.algebra.quiver.arrows}
    return Representation(M.algebra, dict(M.dims), mats, name=f"dual({M.name})")


def transpose_to_opposite(M: Representation, op_algebra: FinDimAlgebra) -> Representation:
    """Vector-space dual of M as a module over the opposite algebra."""
    mats = {a: M.mats[a].transpose() for a in M.algebra.quiver.arrows}
    return Representation(op_algebra, dict(M.dims), mats, name=f"D({M.name})")


class MinimalPresentation(ProjectiveCover):
    """The projective cover P(lam) -> Delta(lam), its syzygy and positioned
    generators: one per weight, kept by `StandardSystem.presentation`."""

    def __init__(self, sys: "StandardSystem", lam: str):
        super().__init__(sys.standard(lam))


class DeltaStep:
    def __init__(self, label: str, shift: int):
        self.label = label
        self.shift = shift

    def __repr__(self) -> str:
        return f"DeltaStep({self.label}, shift {self.shift})"


class DeltaFiltration:
    """Ascending chain 0 = C_0 < ... < C_n = M with standard subquotients."""

    def __init__(self, module: Representation, steps: List[DeltaStep], chain: List[SubFamily]):
        self.module = module
        self.steps = steps
        self.chain = chain

    def multiplicities(self) -> Counter:
        return Counter(s.label for s in self.steps)

    def placement(self) -> List[Tuple[str, int]]:
        return [(s.label, s.shift) for s in self.steps]

    def __repr__(self) -> str:
        return f"DeltaFiltration({[(s.label, s.shift) for s in self.steps]})"


class FiltrationFailure:
    def __init__(self, label: str, trace_dims: Dict[str, int], reason: str):
        self.label = label
        self.trace_dims = trace_dims
        self.reason = reason

    def __repr__(self) -> str:
        return f"FiltrationFailure(at {self.label}: {self.reason})"


class StandardSystem:
    """The L / P / I / Delta / nabla / T family attached to the weight poset."""

    def __init__(self, algebra: FinDimAlgebra):
        self.algebra = algebra
        if not algebra.order_covers and len(algebra.quiver.vertices) > 1:
            raise PosetError("algebra file declares no weight order")
        self.poset = WeightPoset(algebra.quiver.vertices, algebra.order_covers)
        self.labels = list(algebra.quiver.vertices)
        self._cache: Dict[tuple, object] = {}
        self._op_system: Optional["StandardSystem"] = None

    # -- the six families ----------------------------------------------------

    def simple(self, lam: str) -> Representation:
        return self.memo(("L", lam), lambda: simple_rep(self.algebra, lam))

    def projective(self, lam: str) -> Representation:
        return self.memo(("P", lam), lambda: projective_rep(self.algebra, lam))

    def standard_kernel(self, lam: str) -> SubFamily:
        """Submodule of P(lam) generated by the P(lam)_mu, mu not <= lam: the sum
        of the traces of those P(mu), as the trace of P(mu) in M is A M_mu."""

        def build():
            P = self.projective(lam)
            higher = [mu for mu in self.labels if not self.poset.leq(mu, lam)]
            return spin_submodule(P, [(mu, row) for mu in higher for row in Mat.identity(P.field, P.dims[mu]).data])

        return self.memo(("Ukernel", lam), build)

    def standard(self, lam: str) -> Representation:
        def build():
            delta = quotient_rep(self.projective(lam), self.standard_kernel(lam))[0]
            delta.name = f"Delta({lam})"
            return delta

        return self.memo(("Delta", lam), build)

    def presentation(self, lam: str) -> "MinimalPresentation":
        return self.memo(("presentation", lam), lambda: MinimalPresentation(self, lam))

    def op_system(self) -> "StandardSystem":
        if self._op_system is None:
            self._op_system = StandardSystem(self.algebra.opposite())
        return self._op_system

    def costandard(self, lam: str) -> Representation:
        def build():
            if self.algebra.duality_pairs is not None:
                M = dualize(self.standard(lam))
            else:
                op = self.op_system()
                M = transpose_to_opposite(op.standard(lam), self.algebra)
            M.name = f"Nabla({lam})"
            return M

        return self.memo(("Nabla", lam), build)

    def tilting(self, lam: str) -> Representation:
        self.require_quasihereditary()
        return self.memo(("T", lam), lambda: ringel_tilting(self, lam))

    def projective_filtration(self, lam: str):
        """The greedy standard filtration of P(lam), or its FiltrationFailure."""
        return self.memo(("P filtration", lam), lambda: find_delta_filtration(self, self.projective(lam)))

    def block(self):
        """Labels, order and Delta radical profiles as a character-level block."""
        from .characters import BlockData

        return self.memo(
            ("block",),
            lambda: BlockData(
                self.labels,
                self.algebra.order_covers,
                {lam: radical_profile(self.standard(lam)) for lam in self.labels},
            ),
        )

    def require_quasihereditary(self) -> None:
        """Raise ModuleError naming the first weight that breaks an axiom."""
        report = self.memo(("qh",), lambda: check_quasihereditary(self))
        for lam, entry in report["weights"].items():
            if not entry["axiom_i"]:
                raise ModuleError(f"not quasi-hereditary at weight {lam}: axiom (i), End Delta({lam}) = K, fails")
            if not entry["axiom_ii"]:
                raise ModuleError(
                    f"not quasi-hereditary at weight {lam}: axiom (ii), a heredity-ordered standard filtration of P({lam}), fails"
                )

    def dual_module(self, M: Representation) -> Tuple[Representation, "StandardSystem"]:
        """Duality image of M together with the system it lives over, built
        once per module (keyed by identity) so its liftings are reused."""
        if self.algebra.duality_pairs is not None:
            return self.memo(("dual", M), lambda: (dualize(M), self))
        op = self.op_system()
        return self.memo(("dual", M), lambda: (transpose_to_opposite(M, op.algebra), op))

    def memo(self, key, build):
        """The object stored under key, built on first request."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


# -- Delta-filtrations ------------------------------------------------------------


def _step(M: Representation, lam: str, below: SubFamily, above: SubFamily) -> DeltaStep:
    """The standard step above/below at lam, shifted by the depth of its head class.

    The head class is a complement x of below + J above at lam, and its depth
    the largest s with x in rad^s M + below.  Another representative differs
    by some y in below + J above, one layer deeper, so the depth is the same.
    """
    comp = below.sum(radical_of(M, above)).spaces[lam].complement_in(above.spaces[lam])
    if not comp:
        raise ModuleError("could not locate the step head")
    rad, s = radical_series(M), 0
    while s + 1 < len(rad) and rad[s + 1].spaces[lam].sum(below.spaces[lam]).contains(comp[0]):
        s += 1
    return DeltaStep(lam, s)


def _preimage_family(M: Representation, proj: Morphism, fam: SubFamily) -> SubFamily:
    """{x in M : proj(x) in fam}, computed per vertex."""
    spaces = {}
    for v in M.vertices:
        Q, _ = quotient_map(M.field, fam.spaces[v])
        comp = Q.mul(proj.mats[v])
        spaces[v] = Subspace(M.field, M.dims[v], kernel_basis(comp))
    return SubFamily(M, spaces)


def find_delta_filtration(sys: StandardSystem, M: Representation):
    """Greedy standard filtration: trace of the maximal weight, then recurse.

    The weight is maximal among the vertices where the quotient is nonzero.
    Returns a DeltaFiltration, or a FiltrationFailure whose trace witness
    shows the obstruction (greedy failure at a maximal weight is conclusive).
    """
    chain: List[SubFamily] = [SubFamily(M)]
    steps: List[DeltaStep] = []
    while chain[-1].total_dim < M.total_dim:
        quot, proj = quotient_rep(M, chain[-1])
        lam = sys.poset.max_label([v for v in M.vertices if quot.dims[v]])
        kernel_fam = sys.standard_kernel(lam)
        homs = hom_space(sys.projective(lam), quot)
        partials, trace = [], SubFamily(quot)
        for g in homs:
            trace = trace.sum(g.image())
            partials.append(trace)
        factoring = all(
            all(g.mats[v].apply(vec) == [M.field.zero] * quot.dims[v] for vec in kernel_fam.spaces[v].basis)
            for g in homs
            for v in M.vertices
        )
        if not factoring or trace.total_dim != len(homs) * sys.standard(lam).total_dim:
            return FiltrationFailure(
                lam,
                {v: trace.dim_at(v) for v in M.vertices},
                "trace of the maximal weight is not a standard power"
                + ("" if factoring else " (a map does not factor through the standard quotient)"),
            )
        for partial in partials:
            above = _preimage_family(M, proj, partial)
            steps.append(_step(M, lam, chain[-1], above))
            chain.append(above)
    return DeltaFiltration(M, steps, chain)


def delta_filtration_from_chain(
    sys: StandardSystem, M: Representation, chain: List[SubFamily]
) -> DeltaFiltration:
    """Validate a user-supplied chain as a standard filtration and tag shifts.

    Each successive quotient must be isomorphic to a standard module; the
    step's head shift is the radical depth of its head class in M.
    """
    if chain[0].total_dim != 0 or chain[-1].total_dim != M.total_dim:
        raise ModuleError("chain must run from 0 to the whole module")
    steps: List[DeltaStep] = []
    for below, above in zip(chain, chain[1:]):
        if not above.contains(below):
            raise ModuleError("chain is not nested")
        Q, _, _ = subquotient(M, above, below)
        head = radical_profile(Q)[0]
        if sum(head.values()) != 1:
            raise ModuleError("chain step does not have a simple head")
        lam = next(iter(head))
        delta = sys.standard(lam)
        if Q.total_dim != delta.total_dim or not any(
            g.image().total_dim == Q.total_dim for g in hom_space(delta, Q)
        ):
            raise ModuleError(f"chain step is not a standard module at weight {lam}")
        steps.append(_step(M, lam, below, above))
    return DeltaFiltration(M, steps, list(chain))


def check_radical_respecting(
    sys: StandardSystem, M: Representation, filt: DeltaFiltration
) -> Tuple[bool, LoewyProfile, LoewyProfile]:
    """Compare the layer-formula prediction with the actual radical profile."""
    from .characters import layers_from_placement

    predicted = layers_from_placement(filt.placement(), sys.block())
    actual = radical_profile(M)
    while len(predicted) < len(actual):
        predicted.append(Counter())
    while len(actual) < len(predicted):
        actual.append(Counter())
    return predicted == actual, predicted, actual


def check_quasihereditary(sys: StandardSystem) -> dict:
    """Verify End Delta = K and that each projective has a standard filtration."""
    report = {"ok": True, "weights": {}, "shift_convention": "non-negative radical depths"}
    for lam in sys.labels:
        entry: Dict[str, object] = {}
        end_dim = len(hom_space(sys.standard(lam), sys.standard(lam)))
        entry["end_dim"] = end_dim
        entry["axiom_i"] = end_dim == 1
        entry["projective_profile"] = [dict(layer) for layer in radical_profile(sys.projective(lam))]
        filt = sys.projective_filtration(lam)
        if isinstance(filt, FiltrationFailure):
            entry["axiom_ii"] = False
            entry["witness"] = repr(filt)
        else:
            mults = filt.multiplicities()
            heredity = mults[lam] == 1 and all(
                sys.poset.less(lam, mu) for mu in mults if mu != lam
            )
            entry["axiom_ii"] = heredity
            entry["filtration"] = filt.placement()
            if not heredity:
                entry["witness"] = f"step labels {dict(mults)} violate the heredity ordering"
        entry["ok"] = entry["axiom_i"] and entry["axiom_ii"]
        report["weights"][lam] = entry
        report["ok"] = report["ok"] and entry["ok"]
    return report


# -- universal extensions and Ringel tilting ------------------------------------------


def universal_extension(X: Representation, delta: Representation, ext) -> Representation:
    """0 -> X -> X' -> delta^d -> 0 along a basis of Ext^1(delta, X).

    Realized as (X (+) P0^d) / graph, where P0 covers delta and the graph
    identifies each syzygy copy with its cocycle image in X.  A class phi
    is known by its generator images phi(v_j), so the graph of the i-th
    copy is spanned by p.(phi_i(v_j), -v_j) over the generator columns
    (j, p).  Returns X'.
    """
    d, cover, F = ext.dim, ext.cover, X.field
    big, injs, _ = direct_sum([X] + [cover.P0] * d)
    blocks, pos = [], 0  # where phi(v_j) sits in a class
    for g in cover.generators:
        blocks.append(slice(pos, pos + X.dims[g.label]))
        pos = blocks[-1].stop
    vectors = []
    for w in X.vertices:
        zero = [F.zero] * cover.P0.dims[w]
        for (j, p), image in zip(cover.paths[w], cover.path_images[w].transpose().data):
            act, neg = X.path_matrix(p), [F.neg(c) for c in image]
            for i, phi in enumerate(ext.classes):
                # direct_sum stacks the summands' coordinates at each vertex
                copies = [x for k in range(d) for x in (neg if k == i else zero)]
                vectors.append((w, act.apply(phi[blocks[j]]) + copies))
    graph = SubFamily.from_vectors(big, vectors)
    quot, proj = quotient_rep(big, graph)
    if not proj.compose(injs[0]).is_injective():
        raise ModuleError("universal extension failed to embed the base module")
    if quot.total_dim != X.total_dim + d * delta.total_dim:
        raise ModuleError("universal extension has the wrong dimension")
    return quot


def ringel_tilting(sys: StandardSystem, lam: str) -> Representation:
    """Universal extensions from Delta(lam), one pass, certified to be T(lam).

    Weights are taken in a maximal-first linear extension of the order, and
    each is extended at once.  Ext^1(Delta(mu), Delta(nu)) != 0 only when
    mu < nu, so extending by Delta(nu) brings back no Ext^1 against a weight
    already passed; one exact check that every Ext^1 vanishes closes it.
    """
    X = sys.standard(lam)
    for mu in sys.poset.maximal_first():
        e = ext1(sys.standard(mu), X, sys.presentation(mu))
        if e.dim:
            X = universal_extension(X, sys.standard(mu), e)
    for mu in sys.labels:
        if ext1(sys.standard(mu), X, sys.presentation(mu)).dim:
            raise ModuleError(f"tilting construction left Ext^1(Delta({mu}), T({lam})) nonzero")
    X.name = f"T({lam})"
    certify_indecomposable(X, lam)
    return X


def certify_indecomposable(M: Representation, lam: str) -> None:
    """Raise ModuleError unless End(M) is local, read off the line M_lam.

    Over a quasi-hereditary order [T(lam):L(lam)] = 1, so dim T(lam)_lam = 1.
    When dim M_lam = 1, each endomorphism acts on M_lam by a scalar c(f), and
    c: End(M) -> K is an algebra map onto K.  M is indecomposable exactly when
    I = ker c is nilpotent.  Its powers are compared as spans of flattened
    morphisms; they shrink strictly until they reach 0 or stall.  A nilpotent
    I gives M > IM > I^2 M > ... strictly, so I^(dim M) = 0.
    """
    if M.dims[lam] != 1:
        raise ModuleError(f"{M.name or 'module'} has dimension {M.dims[lam]} at weight {lam}, not 1")
    F = M.field
    endo = hom_space(M, M)
    scalars = Mat.canonical(F, [[f.mats[lam].data[0][0] for f in endo]])
    ideal = [linear_combination(endo, coords) for coords in kernel_basis(scalars)]
    power = Subspace(F, len(endo[0].flatten()), [f.flatten() for f in ideal])
    while power.dim:
        products = [morphism_from_flat(M, M, flat).compose(g).flatten() for flat in power.basis for g in ideal]
        nxt = Subspace(F, power.ambient, products)
        if nxt.dim == power.dim:
            raise ModuleError(f"{M.name or 'module'} is decomposable: the maps vanishing at {lam} are not nilpotent")
        power = nxt


# -- BGG duality check -------------------------------------------------------------


def check_bgg(sys: StandardSystem) -> dict:
    """Fixed simples plus layer reciprocity of projective radical profiles."""
    if sys.algebra.duality_pairs is None:
        return {"applicable": False, "note": "not a BGG presentation (no duality declared)"}
    from .characters import bgg_symmetry_check

    fixed = all(dualize(sys.simple(lam)).dims == sys.simple(lam).dims for lam in sys.labels)
    profiles = {lam: radical_profile(sys.projective(lam)) for lam in sys.labels}
    symmetry = bgg_symmetry_check(sys.labels, profiles)
    return {
        "applicable": True,
        "ok": fixed and symmetry["ok"],
        "fixed_simples": fixed,
        "failures": symmetry["failures"],
    }


def nabla_multiplicities(sys: StandardSystem, M: Representation) -> Optional[Counter]:
    """Costandard filtration multiplicities via the dual-side greedy search."""
    dual, dual_sys = sys.dual_module(M)
    filt = find_delta_filtration(dual_sys, dual)
    if isinstance(filt, FiltrationFailure):
        return None
    return filt.multiplicities()
