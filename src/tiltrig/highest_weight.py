"""Highest-weight structure over a path algebra: standard and costandard
modules, quasi-hereditary verification, Delta-filtrations with head shifts,
radical-respecting checks, Ringel's tilting construction, and the BGG
reciprocity check for algebras with a duality.

A `StandardSystem` builds each object once.  Delta(lam) is P(lam)/U(lam),
and its minimal presentation is read off that same P(lam) and U(lam);
Ringel's construction and the rigidity engine take Ext^1 against Delta(lam)
through it.  Nabla(lam) is the dual of the dual system's Delta(lam): the
dual system is the system itself when the algebra declares a duality, else
the opposite algebra's, whose own dual system is this one.  Each universal extension checks only its dimension, which
decides whether the base module embeds, and T(lam) is certified
indecomposable on the spanning set f - c(f) id of the maps vanishing at lam.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from .linalg import Mat
from .modules import (
    ModuleError,
    ProjectiveCover,
    Representation,
    SubFamily,
    direct_sum,
    ext1,
    hom_space,
    projective_rep,
    quotient_rep,
    radical_of,
    radical_profile,
    radical_series,
    simple_rep,
    spin_submodule,
)
from .quiver import (
    FinDimAlgebra,
    LoewyProfile,
    PosetError,
    WeightPoset,
    bgg_symmetry_check,
    layers_from_placement,
)


def dualize(M: Representation, algebra: FinDimAlgebra) -> Representation:
    """The vector-space dual of M as a module over `algebra`: M's own algebra
    when that declares a duality, else its opposite.  Arrow a acts by the
    transpose of M's matrix for a's duality partner, or for a itself when
    `algebra` declares no duality."""
    pairs = algebra.duality_pairs or {}
    mats = {a: M.mats[pairs.get(a, a)].transpose() for a in algebra.quiver.arrows}
    return Representation(algebra, dict(M.dims), mats, name=f"D({M.name})")


class MinimalPresentation(ProjectiveCover):
    """The projective cover P(lam) -> Delta(lam) = P(lam)/U(lam), its syzygy
    U(lam) and positioned generators: one per weight, kept by
    `StandardSystem.presentation`, on the system's own P(lam) and U(lam).

    Every surjection P(lam) -> Delta(lam) has kernel U(lam): it lifts to an
    automorphism of P(lam), and U(lam), a sum of traces of projectives, is
    mapped into itself by every endomorphism of P(lam).
    """

    def __init__(self, sys: "StandardSystem", lam: str):
        super().__init__(sys.projective(lam), [lam], sys.standard_kernel(lam))


class FiltrationFailure(ModuleError):
    """The greedy standard filtration stops at weight `label`: the trace of
    P(label) modulo the chain so far, of dimension vector `trace_dims`, is
    not a standard power (greedy failure at a maximal weight is conclusive)."""

    def __init__(self, label: str, trace_dims: Dict[str, int], reason: str):
        super().__init__(f"at {label}: {reason}")
        self.label = label
        self.trace_dims = trace_dims


def _where(algebra: FinDimAlgebra) -> str:
    """The prefix naming the algebra's file (its name) in a message about the whole file."""
    return f"{algebra.name}: " if algebra.name else ""


class StandardSystem:
    """The L / P / I / Delta / nabla / T family attached to the weight poset."""

    def __init__(self, algebra: FinDimAlgebra):
        self.algebra = algebra
        if algebra.order_covers is None and len(algebra.quiver.vertices) > 1:
            raise PosetError(f"{_where(algebra)}algebra file declares no weight order")
        self.poset = WeightPoset(algebra.quiver.vertices, algebra.order_covers or ())
        self.labels = list(algebra.quiver.vertices)
        self._cache: Dict[tuple, object] = {}
        self._dual: Optional["StandardSystem"] = self if algebra.duality_pairs is not None else None

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
            delta = quotient_rep(self.projective(lam), self.standard_kernel(lam))
            delta.name = f"Delta({lam})"
            return delta

        return self.memo(("Delta", lam), build)

    def presentation(self, lam: str) -> "MinimalPresentation":
        return self.memo(("presentation", lam), lambda: MinimalPresentation(self, lam))

    def dual_system(self) -> "StandardSystem":
        """The system that duality images live over: this one when the algebra
        declares a duality, else the opposite algebra's, whose own dual
        system is this one."""
        if self._dual is None:
            self._dual = StandardSystem(self.algebra.opposite())
            self._dual._dual = self
        return self._dual

    def costandard(self, lam: str) -> Representation:
        def build():
            dual = self.dual_system()
            M = dual.dual_module(dual.standard(lam))[0]
            M.name = f"Nabla({lam})"
            return M

        return self.memo(("Nabla", lam), build)

    def tilting(self, lam: str) -> Representation:
        self.require_quasihereditary()
        return self.memo(("T", lam), lambda: ringel_tilting(self, lam))

    def projective_filtration(self, lam: str) -> Tuple[List[Tuple[str, int]], List[SubFamily]]:
        """The greedy standard filtration of P(lam); raises FiltrationFailure."""
        return self.memo(("P filtration", lam), lambda: find_delta_filtration(self, self.projective(lam)))

    def require_quasihereditary(self) -> None:
        """Raise ModuleError naming the first weight that breaks an axiom."""
        report = self.memo(("qh",), lambda: check_quasihereditary(self))
        where = _where(self.algebra)
        for lam, entry in report["weights"].items():
            if not entry["axiom_i"]:
                raise ModuleError(f"{where}not quasi-hereditary at weight {lam}: axiom (i), End Delta({lam}) = K, fails")
            if not entry["axiom_ii"]:
                raise ModuleError(
                    f"{where}not quasi-hereditary at weight {lam}: axiom (ii), a heredity-ordered standard filtration of P({lam}), fails"
                )

    def dual_module(self, M: Representation) -> Tuple[Representation, "StandardSystem"]:
        """Duality image of M together with the dual system it lives over, built
        once per module (keyed by identity) so its liftings are reused."""
        dual = self.dual_system()
        return self.memo(("dual", M), lambda: (dualize(M, dual.algebra), dual))

    def memo(self, key, build):
        """The object stored under key, built on first request."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


# -- Delta-filtrations ------------------------------------------------------------


def _step(M: Representation, lam: str, below: SubFamily, above: SubFamily) -> Tuple[str, int]:
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
    return lam, s


def is_standard_quotient(sys: StandardSystem, lam: str, dims: Dict[str, int]) -> bool:
    """Is a module W generated at lam, with dimension vector `dims`, a quotient
    of copies of Delta(lam)?

    The kernel U of P(lam) -> Delta(lam) is generated by the P(lam)_v with v
    not <= lam (Dlab-Ringel), and a map P(lam) -> W sends P(lam)_v into W_v.
    The maps out of copies of P(lam) onto W all kill U exactly when W_v = 0
    for every such v.
    """
    return all(d == 0 for v, d in dims.items() if not sys.poset.leq(v, lam))


def find_delta_filtration(sys: StandardSystem, M: Representation):
    """Greedy standard filtration, read in M: the trace of the maximal weight
    modulo the chain so far, then recurse.

    With C the chain so far, lam is maximal among the vertices where M/C is
    nonzero.  The coordinates c of M_lam that are not pivots of C_lam index
    (M/C)_lam; in increasing order, each adds A e_c (the columns c of the
    path matrices out of lam) to a running trace, and each sum is a step.
    Returns (steps, chain): the (label, head shift) of each step and the
    chain 0 = C_0 < ... < C_n = M.  Raises FiltrationFailure, whose trace
    witness (trace - C) shows the obstruction.
    """
    A = M.algebra
    chain: List[SubFamily] = [SubFamily(M)]
    steps: List[Tuple[str, int]] = []
    while chain[-1].total_dim < M.total_dim:
        below = chain[-1]
        lam = sys.poset.max_label([v for v in M.vertices if below.dim_at(v) < M.dims[v]])
        actions = [(A.path_target(p), M.path_matrix(p).data) for p in A.paths_from[lam]]
        pivots = set(below.spaces[lam].pivots)
        partials, trace = [], below
        for c in range(M.dims[lam]):
            if c not in pivots:
                trace = trace.sum(SubFamily.from_vectors(M, [(w, [row[c] for row in m]) for w, m in actions]))
                partials.append(trace)
        trace_dims = {v: trace.dim_at(v) - below.dim_at(v) for v in M.vertices}
        factoring = is_standard_quotient(sys, lam, trace_dims)
        if not factoring or sum(trace_dims.values()) != len(partials) * sys.standard(lam).total_dim:
            raise FiltrationFailure(
                lam,
                trace_dims,
                "trace of the maximal weight is not a standard power"
                + ("" if factoring else " (a map does not factor through the standard quotient)"),
            )
        for above in partials:
            steps.append(_step(M, lam, chain[-1], above))
            chain.append(above)
    return steps, chain


def delta_filtration_from_chain(sys: StandardSystem, M: Representation, chain: List[SubFamily]) -> List[Tuple[str, int]]:
    """Validate a user-supplied chain as a standard filtration and return its
    (label, head shift) steps.

    Each step above/below is read in M.  Its top is above - (J above +
    below), which must be one L(lam), so the step is generated at lam.
    With Delta(lam)'s dimension vector it vanishes off {v <= lam}, so it is
    a quotient of Delta(lam) (`is_standard_quotient`) of the same dimension:
    Delta(lam) itself.  The step's head shift is the radical depth of its
    head class in M.
    """
    if chain[0].total_dim != 0 or chain[-1].total_dim != M.total_dim:
        raise ModuleError("chain must run from 0 to the whole module")
    steps: List[Tuple[str, int]] = []
    for below, above in zip(chain, chain[1:]):
        if not above.contains(below):
            raise ModuleError("chain is not nested")
        j_above = radical_of(M, above)
        if not above.contains(j_above):
            raise ModuleError("family is not arrow-stable; not a submodule")
        floor = j_above.sum(below)
        top = {v: above.dim_at(v) - floor.dim_at(v) for v in M.vertices}
        if sum(top.values()) != 1:
            raise ModuleError("chain step does not have a simple head")
        lam = next(v for v, d in top.items() if d)
        dims = {v: above.dim_at(v) - below.dim_at(v) for v in M.vertices}
        if dims != sys.standard(lam).dims:
            raise ModuleError(f"chain step is not a standard module at weight {lam}")
        steps.append(_step(M, lam, below, above))
    return steps


def check_radical_respecting(
    sys: StandardSystem, M: Representation, steps: List[Tuple[str, int]]
) -> Tuple[bool, LoewyProfile, LoewyProfile]:
    """Compare the layer-formula prediction from a filtration's steps with
    the actual radical profile."""
    layered = {lam: radical_profile(sys.standard(lam)) for lam, _ in steps}
    predicted = layers_from_placement(steps, layered)
    actual = radical_profile(M)
    while len(predicted) < len(actual):
        predicted.append(Counter())
    while len(actual) < len(predicted):
        actual.append(Counter())
    return predicted == actual, predicted, actual


def check_quasihereditary(sys: StandardSystem) -> dict:
    """Verify End Delta = K and that each projective has a standard filtration.

    Delta(lam) vanishes off {v <= lam}, so every map P(lam) -> Delta(lam)
    factors through Delta(lam): End Delta(lam) is all of Delta(lam)_lam.
    """
    report = {"ok": True, "weights": {}, "shift_convention": "non-negative radical depths"}
    for lam in sys.labels:
        entry: Dict[str, object] = {}
        end_dim = sys.standard(lam).dims[lam]
        entry["end_dim"] = end_dim
        entry["axiom_i"] = end_dim == 1
        entry["projective_profile"] = [dict(layer) for layer in radical_profile(sys.projective(lam))]
        try:
            steps = sys.projective_filtration(lam)[0]
        except FiltrationFailure as failure:
            entry["axiom_ii"] = False
            entry["witness"] = f"FiltrationFailure({failure})"
        else:
            mults = Counter(label for label, _ in steps)
            heredity = mults[lam] == 1 and all(
                sys.poset.less(lam, mu) for mu in mults if mu != lam
            )
            entry["axiom_ii"] = heredity
            entry["filtration"] = list(steps)
            if not heredity:
                entry["witness"] = f"step labels {dict(mults)} violate the heredity ordering"
        entry["ok"] = entry["axiom_i"] and entry["axiom_ii"]
        report["weights"][lam] = entry
        report["ok"] = report["ok"] and entry["ok"]
    return report


# -- universal extensions and Ringel tilting ------------------------------------------


def universal_extension(X: Representation, cover: ProjectiveCover, classes: List[list]) -> Representation:
    """0 -> X -> X' -> M^d -> 0 along a basis `classes` of Ext^1(M, X), M = P0/Omega.

    Realized as (X (+) P0^d) / graph, where the graph identifies each
    syzygy copy with its cocycle image in X.  A class phi is known by its
    generator images phi(v_j) (`ext1`), so the graph of the i-th copy is
    spanned by p.(phi_i(v_j), -v_j) over the generator columns (j, p).
    Returns X'.
    """
    d, F = len(classes), X.field
    big = direct_sum([X] + [cover.P0] * d)[0]
    blocks = cover.generator_slices(X)  # where phi(v_j) sits in a class
    vectors = []
    for w in X.vertices:
        zero = [F.zero] * cover.P0.dims[w]
        for (j, p), column in zip(cover.paths[w], cover.path_images[w].transpose().data):
            act, neg = X.path_matrix(p), [F.neg(c) for c in column]
            for i, phi in enumerate(classes):
                # direct_sum stacks the summands' coordinates at each vertex
                copies = [x for k in range(d) for x in (neg if k == i else zero)]
                vectors.append((w, act.apply(phi[blocks[j]]) + copies))
    graph = SubFamily.from_vectors(big, vectors)
    quot = quotient_rep(big, graph)
    # The graph projects onto Omega^d, as the presentation certifies that its
    # generators span Omega, so dim X' = dim X + d (dim P0 - dim Omega) -
    # dim(graph cap X): the dimension is right exactly when X embeds in X',
    # which fails when some class is not a cocycle.
    if quot.total_dim != X.total_dim + d * (cover.P0.total_dim - cover.syzygy.total_dim):
        raise ModuleError("universal extension has the wrong dimension")
    return quot


def ringel_tilting(sys: StandardSystem, lam: str) -> Representation:
    """Universal extensions from Delta(lam), one pass, certified to be T(lam).

    Weights are taken in a maximal-first linear extension of the order, and
    each is extended at once.  Ext^1(Delta(mu), Delta(nu)) != 0 only when
    mu < nu, so extending by Delta(nu) brings back no Ext^1 against a weight
    already passed; one exact check that every Ext^1 vanishes closes it.
    Each Ext^1(Delta(mu), -) is read off the presentation of Delta(mu).
    """
    X = sys.standard(lam)
    for mu in sys.poset.maximal_first():
        pres = sys.presentation(mu)
        classes = ext1(pres, X)
        if classes:
            X = universal_extension(X, pres, classes)
    for mu in sys.labels:
        if ext1(sys.presentation(mu), X):
            raise ModuleError(f"tilting construction left Ext^1(Delta({mu}), T({lam})) nonzero")
    X.name = f"T({lam})"
    certify_indecomposable(X, lam)
    return X


def certify_indecomposable(M: Representation, lam: str) -> None:
    """Raise ModuleError unless End(M) is local, read off the line M_lam.

    Over a quasi-hereditary order [T(lam):L(lam)] = 1, so dim T(lam)_lam = 1.
    When dim M_lam = 1, each endomorphism acts on M_lam by a scalar c(f), and
    c: End(M) -> K is an algebra map onto K.  M is indecomposable exactly when
    I = ker c is nilpotent, and I^k = 0 exactly when I^k M = 0.  I is spanned
    by the f - c(f) id over a basis f_k of End(M): if g = sum a_k f_k lies in
    I then sum a_k c(f_k) = 0, so g = sum a_k (f_k - c(f_k) id).  The chain
    M > IM > I^2 M > ... is walked as submodules: I^(k+1) M is spanned by
    g(x) for g in that spanning set and x in a basis of I^k M.  It shrinks
    strictly until it reaches 0, or stalls when I is not nilpotent.
    """
    if M.dims[lam] != 1:
        raise ModuleError(f"{M.name or 'module'} has dimension {M.dims[lam]} at weight {lam}, not 1")
    F = M.field
    # g = f - c(f) id over the basis of End(M); rows x times g_v^T are the
    # images g(x), one row per basis vector x
    transposed = []
    for f in hom_space(M, M):
        minus_c = F.neg(f[lam].data[0][0])
        gT = {v: f[v].transpose() for v in M.vertices}
        for m in gT.values():
            for i, row in enumerate(m.data):
                row[i] = F.add(row[i], minus_c)
        transposed.append(gT)
    power = SubFamily.full(M)
    while not power.is_zero():
        images = []
        for v, space in power.spaces.items():
            if space.dim:
                basis = Mat.canonical(F, space.basis)
                images.extend((v, row) for fT in transposed for row in basis.mul(fT[v]).data)
        nxt = SubFamily.from_vectors(M, images)
        if nxt.total_dim == power.total_dim:
            raise ModuleError(f"{M.name or 'module'} is decomposable: the maps vanishing at {lam} are not nilpotent")
        power = nxt


# -- BGG duality check -------------------------------------------------------------


def check_bgg(sys: StandardSystem) -> dict:
    """Layer reciprocity of projective radical profiles, for an algebra with a duality."""
    if sys.algebra.duality_pairs is None:
        return {"applicable": False, "note": "not a BGG presentation (no duality declared)"}
    profiles = {lam: radical_profile(sys.projective(lam)) for lam in sys.labels}
    symmetry = bgg_symmetry_check(sys.labels, profiles)
    return {
        "applicable": True,
        "ok": symmetry["ok"],
        # the dual of L(lam) has L(lam)'s dimension vector by construction: a
        # duality pairs arrows only, and `FinDimAlgebra._check_duality`
        # requires each pair to reverse its arrow
        "fixed_simples": True,
        "failures": symmetry["failures"],
    }


def nabla_multiplicities(sys: StandardSystem, M: Representation) -> Optional[Counter]:
    """Costandard filtration multiplicities via the dual-side greedy search."""
    dual, dual_sys = sys.dual_module(M)
    try:
        steps = find_delta_filtration(dual_sys, dual)[0]
    except FiltrationFailure:
        return None
    return Counter(label for label, _ in steps)
