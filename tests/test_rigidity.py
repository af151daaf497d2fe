import itertools
from collections import Counter

import pytest
from conftest import combine, compose, flatten, kernel

from tiltrig import highest_weight, rigidity
from tiltrig.acceptance import _f2_fixture_sets, bundled_system
from tiltrig.characters import BlockData, projective_layers
from tiltrig.highest_weight import (
    FiltrationFailure,
    check_radical_respecting,
    find_delta_filtration,
    is_standard_quotient,
)
from tiltrig.linalg import Mat, Subspace, kernel_basis, quotient_map, solve
from tiltrig.modules import (
    ModuleError,
    Representation,
    SubFamily,
    _path_map,
    all_submodules,
    direct_sum,
    ext1,
    hom_space,
    image,
    is_rigid,
    loewy_length,
    radical_chain,
    radical_of,
    radical_profile,
    radical_series,
    socle_of,
    spin_submodule,
    subspace_vectors,
)
from tiltrig.rigidity import (
    BRUTE_FORCE_MAX_DIM,
    MinimalPresentation,
    PositionedLifting,
    _clamped,
    _filtered_iso_to_shifted_quotient,
    _induced_chain,
    _witness_weights,
    detect_stretched,
    filtered_ext1_delta,
    positioned_lifting,
    rigidity_pipeline,
    stretched_subquotients_bruteforce,
)
from tiltrig.quiver import layers_from_placement


def morphism_coords(F, basis, f):
    """Coordinates of f in a hom-space basis over F (None if outside the span)."""
    if not basis:
        return [] if all(m.is_zero() for m in f.values()) else None
    return solve(Mat.from_cols(F, [flatten(g) for g in basis]), flatten(f))


def _constrain(F, hom_basis, conditions) -> Subspace:
    """Coordinate subspace of combinations f with f(vec) in the given family.

    Each condition is (vertex, vector in source coords, target family).
    """
    n = len(hom_basis)
    rows = []
    for vertex, vec, fam in conditions:
        Q, _ = quotient_map(F, fam.spaces[vertex])
        if Q.rows == 0:
            continue
        imgs = Mat.from_cols(F, [g[vertex].apply(vec) for g in hom_basis])
        rows.extend(row for row in Q.mul(imgs).data if any(row))
    if not rows:
        return Subspace.full(F, n)
    return Subspace(F, n, kernel_basis(Mat.canonical(F, rows)))


def filtered_hom(M, N, shift):
    """Basis of the maps g with g(rad^i M) <= rad^(i+shift) N for all i, solved exactly."""
    homs = hom_space(M, N)
    if not homs:
        return []
    rad_M, rad_N = radical_series(M), radical_series(N)
    conditions = [
        (v, vec, _clamped(rad_N, i + shift))
        for i in range(len(rad_M))
        if i + shift > 0
        for v in M.vertices
        for vec in rad_M[i].spaces[v].basis
    ]
    return [combine(homs, coords) for coords in _constrain(M.field, homs, conditions).basis]


def test_filtered_hom_examples(sl2):
    P1 = sl2.projective("1")
    assert len(filtered_hom(P1, P1, 0)) == 2
    assert len(filtered_hom(P1, P1, 2)) == 1
    # far-negative shift: every condition is vacuous
    assert len(filtered_hom(P1, P1, -loewy_length(P1))) == len(hom_space(P1, P1))


def test_filtered_hom_monotone(sl2):
    P1, P2 = sl2.projective("1"), sl2.projective("2")
    for M, N in ((P1, P1), (P1, P2), (P2, P1)):
        dims = [len(filtered_hom(M, N, r)) for r in range(-3, 4)]
        assert dims == sorted(dims, reverse=True)


def test_filtered_hom_shift_coherence(sl2):
    # maps of shift r out of M are shift-0 maps out of M with layers relabelled:
    # check through the presentation machinery on the syzygy side instead,
    # where positions enter explicitly.
    lift = positioned_lifting(sl2, "1", sl2.tilting("2"))
    for s in range(-2, 3):
        assert lift.deep(s).contains_space(lift.deep(s + 1))


def test_minimal_presentation_positions(sl2, ce3):
    pres = MinimalPresentation(sl2, "1")
    assert [(label, depth) for label, depth, _ in pres.generators] == [("2", 1)]
    pres = MinimalPresentation(sl2, "2")
    assert pres.generators == [] and pres.syzygy.total_dim == 0
    pres = MinimalPresentation(ce3, "1")
    assert sorted((label, depth) for label, depth, _ in pres.generators) == [("2", 1), ("3", 1)]


def test_filtered_ext_far_negative_equals_ordinary(sl2, ce3, projective_cover):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            for N in (sys.tilting(max(sys.labels)), sys.simple(lam)):
                ell = loewy_length(N) + 1
                assert filtered_ext1_delta(sys, lam, -ell, N) == len(ext1(projective_cover(sys.standard(lam)), N))


def test_filtered_ext_vanishes_on_sl2_tilting(sl2):
    T2 = sl2.tilting("2")
    for lam in sl2.labels:
        for r in range(-3, 4):
            assert filtered_ext1_delta(sl2, lam, r, T2) == 0


def test_filtered_ext_nonzero_on_ce3(ce3):
    T3 = ce3.tilting("3")
    lift = positioned_lifting(ce3, "1", T3)
    assert (filtered_ext1_delta(ce3, "1", 1, T3), lift.deep(1).dim, lift.boundary(1).dim) == (1, 1, 0)
    assert (filtered_ext1_delta(ce3, "1", 0, T3), lift.deep(0).dim, lift.boundary(0).dim) == (0, 2, 2)


def test_detect_semisimple_passes(sl2):
    M, _ = direct_sum([sl2.simple("1"), sl2.simple("2")])
    assert detect_stretched(sl2, M, "delta-L") == []
    assert detect_stretched(sl2, M, "L-nabla") == []


def test_detect_sl2_tilting_passes(sl2):
    T2 = sl2.tilting("2")
    assert detect_stretched(sl2, T2, "delta-L") == []
    assert detect_stretched(sl2, T2, "L-nabla") == []


def test_detect_ce3_fails_with_recheckable_witness(ce3):
    T3 = ce3.tilting("3")
    fails = detect_stretched(ce3, T3, "delta-L")
    assert [(lam, s) for lam, s, _ in fails] == [("1", 1)]
    wit = fails[0][2]
    # the witness is the generator images of a nonzero syzygy hom that is
    # 1-deep but not liftable, rechecked on spaces built afresh rather than
    # on the detector's memo
    lift = PositionedLifting(ce3, "1", T3)
    assert lift is not positioned_lifting(ce3, "1", T3)
    assert any(wit)
    # the relations among the generators kill it, so it defines a map
    pres = lift.pres
    gens = [(label, wit[block]) for (label, _, _), block in zip(pres.generators, pres.generator_slices(T3))]
    images = _path_map(T3, gens)[1]
    for w, relations in pres.relations.items():
        for r in relations:
            assert not any(images[w].apply(r)), w
    assert lift.deep(1).contains(wit)
    assert not lift.boundary(1).contains(wit)


def test_l_nabla_side_reuses_one_dual_and_its_liftings():
    sys = bundled_system("sl2block", 2)
    T = sys.tilting("2")
    for _ in range(3):
        assert detect_stretched(sys, T, "L-nabla") == []
    assert sys.dual_module(T) is sys.dual_module(T)
    assert sum(key[0] == "lifting" for key in sys._cache) == len(sys.labels) == 2


def test_theorem_path_builds_each_object_once(monkeypatch, auslander):
    sys = auslander(4, 3)
    presentations, filtrations = Counter(), []
    build_presentation = MinimalPresentation.__init__
    find = highest_weight.find_delta_filtration

    def counted_presentation(pres, sys_, lam):
        presentations[(id(sys_), lam)] += 1
        build_presentation(pres, sys_, lam)

    def counted_find(sys_, M):
        filtrations.append(M)
        return find(sys_, M)

    monkeypatch.setattr(MinimalPresentation, "__init__", counted_presentation)
    monkeypatch.setattr(highest_weight, "find_delta_filtration", counted_find)
    rigidity_pipeline(sys, "1", method="both")
    assert presentations == Counter({(id(sys), lam): 1 for lam in sys.labels})
    assert len(filtrations) == len(sys.labels)
    assert all(M is sys.projective(mu) for M, mu in zip(filtrations, sys.labels))


@pytest.mark.parametrize("system", ["sl2", "ce3", "aus3_f3", "aus4_f3", "aus3_q"])
def test_character_and_module_layer_formulas_agree(system, request, auslander):
    n_p = {"aus3_f3": (3, 3), "aus4_f3": (4, 3), "aus3_q": (3, 0)}
    sys = auslander(*n_p[system]) if system in n_p else request.getfixturevalue(system)
    layered = {lam: radical_profile(sys.standard(lam)) for lam in sys.labels}
    block = BlockData(sys.labels, sys.algebra.order_covers or (), layered)
    reciprocal = []
    for mu in sys.labels:
        actual = radical_profile(sys.projective(mu))
        placement = sys.projective_filtration(mu)[0]
        assert layers_from_placement(placement, layered) == actual, mu
        reciprocal.append(projective_layers(block, mu) == actual)
    # reciprocity reads the placement of P(mu) off the Delta table alone only
    # when a duality swaps Delta and nabla; ce3 has none, and there it fails
    assert all(reciprocal) == (sys.algebra.duality_pairs is not None)


def test_enumerator_agrees_on_spot_fixtures(sl2_f2, ce3):
    T2 = sl2_f2.tilting("2")
    assert stretched_subquotients_bruteforce(sl2_f2, T2, "delta-L") == []
    wits = stretched_subquotients_bruteforce(ce3, ce3.tilting("3"), "delta-L")
    assert len(wits) == 1
    outer_dims, inner_dims, label, mu, _ = wits[0]
    assert label == "1" and mu == "3"
    # T(3) = (1: 2, 2: 1, 3: 1); the witness is the submodule (1: 1, 3: 1) itself
    assert outer_dims == (1, 0, 1) and inner_dims == (0, 0, 0)


def test_enumerator_rejects_rationals(sl2):
    with pytest.raises(Exception):
        stretched_subquotients_bruteforce(sl2, sl2.tilting("2"), "delta-L")


def test_enumerator_rejects_unknown_side(ce3):
    T3 = ce3.tilting("3")
    for run in (detect_stretched, stretched_subquotients_bruteforce):
        with pytest.raises(ValueError, match="unknown side 'nabla-L'"):
            run(ce3, T3, "nabla-L")


def test_pipeline_sl2(sl2):
    rep = rigidity_pipeline(sl2, "2")
    assert rep["hypothesis"]["ok"]
    assert rep["rigid_theorem"] is True
    assert rep["rigid_oracle"] is True
    assert rep["consistent"]
    assert rep["filteredExt_all_vanish"]
    rep = rigidity_pipeline(sl2, "1")
    assert rep["rigid_theorem"] is True and rep["rigid_oracle"] is True


def test_pipeline_ce3_theorem_silent(ce3):
    rep = rigidity_pipeline(ce3, "3")
    assert rep["hypothesis"]["ok"]
    assert rep["rigid_theorem"] == "n/a"  # stretched found: theorem says nothing
    assert rep["rigid_oracle"] is False
    assert rep["consistent"]
    assert not rep["filteredExt_all_vanish"]


def test_theorem_consistency_all_bundled(sl2, ce3):
    # detector pass on both sides ==> rigid, on every bundled QH algebra
    for sys in (sl2, ce3):
        for lam in sys.labels:
            T = sys.tilting(lam)
            both = not detect_stretched(sys, T, "delta-L") and not detect_stretched(sys, T, "L-nabla")
            if both:
                assert is_rigid(T)[0], (sys.algebra.name, lam)


def test_converse_on_bgg_inputs(sl2):
    # rigid + radical-respecting standard filtration ==> detector passes
    for lam in sl2.labels:
        T = sl2.tilting(lam)
        steps = find_delta_filtration(sl2, T)[0]  # raises FiltrationFailure if there is none
        ok, _, _ = check_radical_respecting(sl2, T, steps)
        if is_rigid(T)[0] and ok:
            assert detect_stretched(sl2, T, "delta-L") == []
            assert detect_stretched(sl2, T, "L-nabla") == []


def test_filtered_ext_bridge(sl2, ce3):
    # detector pass on the standard side + radical-respecting filtration
    # ==> filtered Ext vanishes at every weight and shift in range
    for sys in (sl2, ce3):
        for lam in sys.labels:
            T = sys.tilting(lam)
            try:
                steps = find_delta_filtration(sys, T)[0]
            except FiltrationFailure:
                continue
            respecting, _, _ = check_radical_respecting(sys, T, steps)
            if not respecting or detect_stretched(sys, T, "delta-L"):
                continue
            ell = loewy_length(T)
            for mu in sys.labels:
                for r in range(-ell, ell + 1):
                    assert filtered_ext1_delta(sys, mu, r, T) == 0


# -- the generator-level lifting against the per-basis-vector reference ----------------


class _ReferenceLifting:
    """deep and boundary as they were computed before the generator-level
    rewrite: Hom(syzygy, T) by the block solve; one condition per basis
    vector of every J^t (A v_j) for deep; Hom(P(lam), T) by the block solve,
    one condition per basis vector of P(lam) and one coordinate solve per
    restriction for boundary.  Both are then mapped into generator images."""

    def __init__(self, lift, T, syzygy_block_solve, coords):
        self.lift, self.T = lift, T
        pres = lift.pres
        P, syzygy = pres.P0, pres.syzygy
        self.hom_syz, images, self.inclusion = syzygy_block_solve(pres, T)
        self.images = Mat.from_cols(T.field, images)  # coordinates -> generator images
        self.layers = []  # (m_j + t, basis of J^t (A v_j) in syzygy coordinates)
        for label, depth, vector in pres.generators:
            layer, t = spin_submodule(P, [(label, vector)]), 0
            while not layer.is_zero():
                vecs = [(v, coords(syzygy.spaces[v], w)) for v in P.vertices for w in layer.spaces[v].basis]
                self.layers.append((depth + t, vecs))
                layer, t = radical_of(P, layer), t + 1
        self.hom_P = hom_space(Representation(P.algebra, P.dims, P.mats), T)  # no basis paths: solved

    def _as_images(self, coords):
        return Subspace(self.lift.hom.field, self.lift.hom.ambient, [self.images.apply(c) for c in coords.basis])

    def deep(self, shift):
        lift = self.lift
        if not self.hom_syz:
            return Subspace(lift.hom.field, lift.hom.ambient)
        conditions = []
        for depth, vecs in self.layers:
            if depth + shift > 0:
                target = _clamped(radical_series(self.T), depth + shift)
                conditions.extend((v, coords, target) for v, coords in vecs)
        return self._as_images(_constrain(lift.hom.field, self.hom_syz, conditions))

    def boundary(self, shift):
        lift, P, F = self.lift, self.lift.pres.P0, self.lift.hom.field
        if not self.hom_syz:
            return Subspace(F, lift.hom.ambient)
        space = Subspace.full(F, len(self.hom_P))
        if shift > 0 and self.hom_P:
            target = _clamped(radical_series(self.T), shift)
            units = [(v, row, target) for v in P.vertices for row in Subspace.full(F, P.dims[v]).basis]
            space = _constrain(F, self.hom_P, units)
        restricted = []
        for coords in space.basis:
            restriction = compose(combine(self.hom_P, coords), self.inclusion)
            restricted.append(morphism_coords(F, self.hom_syz, restriction))
        return self._as_images(Subspace(F, len(self.hom_syz), restricted))


@pytest.mark.parametrize("fixture", ["sl2", "ce3", (3, 2), (3, 3), (3, 0), (4, 2), (4, 3), (4, 0), (5, 2), (5, 3), (5, 0)], ids=str)
def test_lifting_matches_reference(fixture, request, auslander, syzygy_block_solve, coords):
    sys = request.getfixturevalue(fixture) if isinstance(fixture, str) else auslander(*fixture)
    # the tilting modules and, up to four weights, simples and standards, whose radicals cut deeper
    kinds = (sys.tilting, sys.simple, sys.standard) if len(sys.labels) <= 4 else (sys.tilting,)
    compared = 0
    for T in [f(lam) for lam in sys.labels for f in kinds]:
        dual, dual_sys = sys.dual_module(T)
        for side_sys, M in ((sys, T), (dual_sys, dual)):
            ell = loewy_length(M)
            for mu in side_sys.labels:
                lift = PositionedLifting(side_sys, mu, M)
                reference = _ReferenceLifting(lift, M, syzygy_block_solve, coords)
                for s in range(-ell - 2, ell + 3):
                    assert lift.deep(s) == reference.deep(s), (M.name, mu, s)
                    assert lift.boundary(s) == reference.boundary(s), (M.name, mu, s)
                    compared += lift.deep(s).dim + lift.boundary(s).dim
    assert compared


@pytest.mark.parametrize("p", [3, 0])
def test_lifting_with_no_syzygy_maps(auslander, p):
    # weight 1 is maximal, so Delta(1) = P(1), its syzygy is 0 and so is Hom(syzygy, T(1))
    sys = auslander(3, p)
    T = sys.tilting("1")
    lift = PositionedLifting(sys, "1", T)
    zero = Subspace(sys.algebra.field, 0)
    assert lift.hom == zero
    for s in range(-2, 3):
        assert lift.deep(s) == zero and lift.boundary(s) == zero
        memo = positioned_lifting(sys, "1", T)
        assert (filtered_ext1_delta(sys, "1", s, T), memo.deep(s).dim, memo.boundary(s).dim) == (0, 0, 0)


# -- the brute-force oracle's predicates against the enumerating references ------------


def hom_combinations(F, basis):
    """All nonzero combinations of a hom basis over a small finite field F."""
    if not basis:
        return
    if F.p == 0 or F.p ** len(basis) > 2 ** 14:
        raise ModuleError("hom-space enumeration out of range")
    for coeffs in itertools.product(F.elements(), repeat=len(basis)):
        if any(coeffs):
            yield combine(basis, coeffs)


def _reference_shifted_quotient(sys, lam, Q, induced, subquotient):
    """Q with its induced chain against every quotient P(lam)/U and every
    injective map Q -> P(lam)/U that respects the chains up to a shift."""
    P = sys.projective(lam)
    for U in all_submodules(P, max_total_dim=max(10, P.total_dim)):
        if P.total_dim - U.total_dim != Q.total_dim:
            continue
        Pq, target_chain = subquotient(P, SubFamily.full(P), U)
        homs = hom_space(Q, Pq)
        if not homs:
            continue
        ell_q, ell_p = len(induced), len(target_chain)
        for r in range(-ell_p - 1, ell_q + 2):
            if any(
                _clamped(induced, i).dim_at(v) != _clamped(target_chain, i - r).dim_at(v)
                for i in range(max(ell_q, ell_p + max(r, 0)) + 1)
                for v in P.vertices
            ):
                continue
            for f in hom_combinations(Q.field, homs):
                if kernel(Q, f).is_zero() and all(
                    _clamped(target_chain, i - r).spaces[v].contains(f[v].apply(vec))
                    for i in range(ell_q + 1)
                    for v in P.vertices
                    for vec in _clamped(induced, i).spaces[v].basis
                ):
                    return True
    return False


def _reference_standard_quotient(sys, lam, W):
    """Some map Delta(lam) -> W is onto."""
    delta = sys.standard(lam)
    if W.total_dim > delta.total_dim:
        return False
    return any(image(W, f).total_dim == W.total_dim for f in hom_combinations(W.field, hom_space(delta, W)))


def _reference_splits(Q, line):
    """Some submodule of Q of codimension 1 meets the line in 0."""
    return any(
        comp.total_dim == Q.total_dim - 1 and comp.intersect(line).total_dim == 0
        for comp in all_submodules(Q, max_total_dim=max(10, Q.total_dim))
    )


def _positions_in(Q, induced):
    """The layer dimension vectors of an induced chain in Q's coordinates, and its last entry."""
    positions = [tuple(big.dim_at(v) - small.dim_at(v) for v in Q.vertices) for big, small in zip(induced, induced[1:])]
    return positions + [tuple(induced[-1].dim_at(v) for v in Q.vertices)]


def _reference_witnesses(sys, T, outcomes, subquotient):
    """The oracle's enumeration on subquotients built as modules, with the
    enumerating predicates.  Each of the three tests runs, with its
    reference, on every candidate that gets past the head check; they must
    agree there.  The oracle's screen on Q's top and dimension vector passes
    exactly on the candidates that are standard and do not split, so no
    screened candidate splits.  `outcomes` counts the values."""
    witnesses = []
    subs = all_submodules(T, max_total_dim=8)
    for outer, inner in itertools.product(subs, subs):
        if inner.total_dim >= outer.total_dim or not outer.contains(inner):
            continue
        Q, induced = subquotient(T, outer, inner)
        if Q.total_dim < 2:
            continue
        top = radical_profile(Q)[0]
        screened = _witness_weights(sys, {v: top[v] for v in Q.vertices}, Q.dims)
        soc = socle_of(Q, SubFamily(Q))
        for mu in Q.vertices:
            seen_lines = set()
            for w in subspace_vectors(soc.spaces[mu]):
                line = SubFamily.from_vectors(Q, [(mu, w)])
                if line in seen_lines or line.total_dim != 1:
                    continue
                seen_lines.add(line)
                W, _ = subquotient(Q, SubFamily.full(Q), line)
                head = radical_profile(W)[0]
                if sum(head.values()) != 1:
                    continue
                lam = next(iter(head))
                if not sys.poset.less(lam, mu):
                    continue
                standard = _reference_standard_quotient(sys, lam, W)
                splits = _reference_splits(Q, line)
                shifted = _reference_shifted_quotient(sys, lam, Q, induced, subquotient)
                case = (T.name, outer, inner, mu, w)
                assert is_standard_quotient(sys, lam, W.dims) == standard, case
                assert (screened == (lam, mu)) == (standard and not splits), case
                # the oracle reads Q's chains in T
                in_T = _filtered_iso_to_shifted_quotient(lam, _induced_chain(T, outer, inner), radical_chain(T, outer, inner))
                assert in_T == shifted, case
                outcomes.update([("standard", standard), ("splits", splits), ("shifted", shifted)])
                if standard and not splits and not shifted:
                    outer_dims, inner_dims = (tuple(fam.dim_at(v) for v in T.vertices) for fam in (outer, inner))
                    witnesses.append((outer_dims, inner_dims, lam, mu, _positions_in(Q, induced)))
    return witnesses


def _f2_cases(dual_extension, auslander):
    """(system, module) pairs: the bundled F_2 fixtures, every T, P, Delta and
    nabla of the Auslander algebras n = 2, 3 over F_2, and every T, P,
    Delta, nabla and L of dimension <= 8 of dual extension seeds 0, 3, 7."""
    for sys, fixtures in _f2_fixture_sets():
        yield from ((sys, M) for M in fixtures.values())
    for n in (2, 3):
        sys = auslander(n, 2)
        kinds = (sys.tilting, sys.projective, sys.standard, sys.costandard)
        yield from ((sys, f(lam)) for lam in sys.labels for f in kinds)
    for seed in (0, 3, 7):
        sys = dual_extension(seed, 2)
        kinds = (sys.tilting, sys.projective, sys.standard, sys.costandard, sys.simple)
        yield from ((sys, M) for lam in sys.labels for M in (f(lam) for f in kinds) if M.total_dim <= 8)


def test_bruteforce_predicates_match_references(monkeypatch, dual_extension, auslander, subquotient):
    lattices = []

    def recorded_lattice(M, max_total_dim=10):
        lattices.append(M)
        return all_submodules(M, max_total_dim)

    monkeypatch.setattr(rigidity, "all_submodules", recorded_lattice)
    cases, witness_cases, outcomes = 0, 0, Counter()
    for sys, M in _f2_cases(dual_extension, auslander):
        dual, dual_sys = sys.dual_module(M)
        for side, side_sys, N in (("delta-L", sys, M), ("L-nabla", dual_sys, dual)):
            lattices.clear()
            found = stretched_subquotients_bruteforce(sys, M, side)
            # the oracle enumerates the submodule lattice of the module under test only
            assert len(lattices) == 1 and lattices[0].dims == N.dims
            assert found == _reference_witnesses(side_sys, N, outcomes, subquotient), (M.name, side)
            cases, witness_cases = cases + 1, witness_cases + bool(found)
    # every test took both values somewhere, and two cases have witnesses
    assert set(outcomes) == {(name, value) for name in ("standard", "splits", "shifted") for value in (True, False)}
    assert (cases, witness_cases) == (182, 2)


def _witnesses_on_built_subquotients(sys, T, subquotient, refused):
    """The oracle with each screened Q built as a module: its radical series,
    induced chain and socle taken in Q's own coordinates.  `refused` collects
    the screened pairs whose line Q_mu is not in the socle of Q."""
    witnesses = []
    subs = all_submodules(T, max_total_dim=8)
    for outer, inner in itertools.product(subs, subs):
        if outer.total_dim - inner.total_dim < 2 or not outer.contains(inner):
            continue
        rad = radical_of(T, outer).sum(inner)
        top = {v: outer.dim_at(v) - rad.dim_at(v) for v in T.vertices}
        weights = _witness_weights(sys, top, {v: outer.dim_at(v) - inner.dim_at(v) for v in T.vertices})
        if weights is None:
            continue
        lam, mu = weights
        Q, induced = subquotient(T, outer, inner)
        if _filtered_iso_to_shifted_quotient(lam, induced, radical_series(Q)):
            continue
        if not socle_of(Q, SubFamily(Q)).dim_at(mu):
            refused.append((outer, inner))
            continue
        outer_dims, inner_dims = (tuple(fam.dim_at(v) for v in T.vertices) for fam in (outer, inner))
        witnesses.append((outer_dims, inner_dims, lam, mu, _positions_in(Q, induced)))
    return witnesses


@pytest.mark.parametrize("seed,lam,side", [(12, "3", "delta-L"), (5, "4", "L-nabla")])
def test_bruteforce_socle_test_matches_built_subquotients(seed, lam, side, dual_extension, subquotient):
    # T(3) of seed 12 and the dual of P(4) of seed 5 have screened pairs that
    # are not shifted quotients and whose line Q_mu is not in the socle of Q,
    # so there the socle test alone refuses a witness
    sys = dual_extension(seed, 2)
    if side == "delta-L":
        M = N = sys.tilting(lam)
        side_sys = sys
    else:
        M = sys.projective(lam)
        N, side_sys = sys.dual_module(M)
    found = stretched_subquotients_bruteforce(sys, M, side)
    refused = []
    assert found == _witnesses_on_built_subquotients(side_sys, N, subquotient, refused)
    assert refused


def test_bruteforce_reads_screened_pairs_in_the_module(monkeypatch):
    # 42 of the 126 pairs of codimension >= 2 of the bundled F_2 fixtures
    # pass the screen on Q's top and dimension vector, and Q is read in the
    # module under test: the oracle builds no representation
    screened, built = [], []
    screen, construct = rigidity._witness_weights, Representation.__init__

    def counted_screen(*args):
        weights = screen(*args)
        if weights is not None:
            screened.append(weights)
        return weights

    def counted_construct(rep, *args, **kwargs):
        built.append(args)
        construct(rep, *args, **kwargs)

    cases = [(sys, M) for sys, fixtures in _f2_fixture_sets() for M in fixtures.values()]
    for sys, M in cases:
        sys.dual_module(M)  # the L-nabla side's dual, built once per module
    monkeypatch.setattr(rigidity, "_witness_weights", counted_screen)
    monkeypatch.setattr(Representation, "__init__", counted_construct)
    for sys, M in cases:
        for side in ("delta-L", "L-nabla"):
            stretched_subquotients_bruteforce(sys, M, side)
    assert len(screened) == 42
    assert built == []


@pytest.mark.parametrize("seed", [0, 2, 3, 7, 10, 11, 13, 14])
def test_detector_agrees_with_bruteforce_on_dual_extensions(seed, dual_extension):
    sys = dual_extension(seed, 2)
    kinds = (sys.tilting, sys.projective, sys.standard, sys.costandard, sys.simple)
    witness_cases = []
    for lam, f in itertools.product(sys.labels, kinds):
        # Delta(lam) <= T(lam), so T(lam) is too large when Delta(lam) is; this
        # skips building T(5) of seed 10 (dim Delta(5) = 15), which takes seconds
        if f == sys.tilting and sys.standard(lam).total_dim > BRUTE_FORCE_MAX_DIM:
            continue
        M = f(lam)
        if M.total_dim > BRUTE_FORCE_MAX_DIM:
            continue
        for side in ("delta-L", "L-nabla"):
            witnesses = stretched_subquotients_bruteforce(sys, M, side)
            assert (not detect_stretched(sys, M, side)) == (not witnesses), (M.name, side)
            if witnesses:
                witness_cases.append((M.name, side))
    # seeds 2 and 10 reach the detector's failure branch
    assert len(witness_cases) == (4 if seed in (2, 10) else 0)
