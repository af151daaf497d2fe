import random
from collections import Counter

import pytest
from conftest import combine, compose, flatten

from tiltrig import highest_weight
from tiltrig.highest_weight import (
    FiltrationFailure,
    StandardSystem,
    WeightPoset,
    certify_indecomposable,
    check_bgg,
    check_quasihereditary,
    check_radical_respecting,
    delta_filtration_from_chain,
    universal_extension,
    dualize,
    find_delta_filtration,
    nabla_multiplicities,
)
from tiltrig.linalg import Mat, Subspace, kernel_basis, quotient_map, rref, solve
from tiltrig.modules import (
    ModuleError,
    Representation,
    SubFamily,
    direct_sum,
    ext1,
    hom_space,
    image,
    morphism_from_flat,
    quotient_rep,
    radical_profile,
    radical_series,
    spin_submodule,
)
from tiltrig.acceptance import sl2_reversed
from tiltrig.quiver import FinDimAlgebra, parse_alg_text


def test_poset_validation():
    WeightPoset(["1", "2"], [("1", "2")])
    with pytest.raises(ValueError):
        WeightPoset(["1", "2"], [("1", "2"), ("2", "1")])


def test_standard_modules(sl2):
    assert radical_profile(sl2.standard("1")) == [Counter({"1": 1})]
    assert radical_profile(sl2.standard("2")) == [Counter({"2": 1}), Counter({"1": 1})]
    # maximal weight: the standard module is the whole projective
    assert sl2.standard("2").total_dim == sl2.projective("2").total_dim


def test_standard_module_invariants(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            delta = sys.standard(lam)
            head = radical_profile(delta)[0]
            assert head == Counter({lam: 1})  # simple head at the weight
            for mu in sum(radical_profile(delta), Counter()):
                assert sys.poset.leq(mu, lam)  # factors bounded by the weight


def test_semisimple_algebra_is_quasihereditary():
    sys = StandardSystem(parse_alg_text("field 0\nvertex 1 2\norder 1 < 2\n"))
    assert check_quasihereditary(sys)["ok"]


def test_costandard_via_duality_and_opposite(sl2, ce3):
    assert radical_profile(sl2.costandard("2")) == [Counter({"1": 1}), Counter({"2": 1})]
    # without a duality, the opposite-algebra route is used
    assert radical_profile(ce3.costandard("3")) == [
        Counter({"1": 2}),
        Counter({"2": 1}),
        Counter({"3": 1}),
    ]


def test_dual_system_is_the_system_itself_under_a_declared_duality(sl2, auslander):
    for sys in (sl2, auslander(3, 0)):
        assert sys.algebra.duality_pairs is not None
        assert sys.dual_system() is sys
        assert sys.dual_module(sys.standard(sys.labels[-1]))[1] is sys


def test_dual_system_without_a_duality_is_the_opposite_linked_back(ce3, monkeypatch):
    opposites = []
    build = FinDimAlgebra.opposite

    def counted_opposite(algebra):
        opposites.append(algebra)
        return build(algebra)

    monkeypatch.setattr(FinDimAlgebra, "opposite", counted_opposite)
    sys = StandardSystem(ce3.algebra)  # a fresh system, so no dual is built yet
    dual = sys.dual_system()
    assert dual is not sys and dual.dual_system() is sys and sys.dual_system() is dual
    for lam in sys.labels:  # both sides ask for duals, and A^op^op is never built
        assert sys.dual_module(sys.costandard(lam))[1] is dual
        assert dual.dual_module(dual.costandard(lam))[1] is sys
    assert opposites == [ce3.algebra]


def test_costandard_without_a_duality_is_the_transpose_of_the_opposite_standard(ce3):
    # the matrices the opposite-algebra route has always given: arrow a of A
    # acts on Nabla(lam) by the transpose of a's matrix on Delta(lam) over A^op
    for lam in ce3.labels:
        delta, nabla = ce3.dual_system().standard(lam), ce3.costandard(lam)
        assert nabla.algebra is ce3.algebra and nabla.dims == delta.dims
        for a, (u, w) in ce3.algebra.quiver.arrows.items():
            m = delta.mats[a]
            assert (m.rows, m.cols) == (delta.dims[u], delta.dims[w])
            hand = [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)]
            assert (nabla.mats[a].rows, nabla.mats[a].cols, nabla.mats[a].data) == (m.cols, m.rows, hand), (lam, a)


def test_check_quasihereditary(sl2, ce3):
    assert check_quasihereditary(sl2)["ok"]
    assert check_quasihereditary(ce3)["ok"]
    rep = check_quasihereditary(sl2)
    assert rep["weights"]["1"]["filtration"] == [("2", 1), ("1", 0)]


def test_reversed_order_fails_axiom_ii():
    text = """
field 0
vertex 1 2
order 2 < 1
arrow a 1 2
arrow b 2 1
relation 1*b.a
duality a=b
"""
    sys = StandardSystem(parse_alg_text(text))
    rep = check_quasihereditary(sys)
    assert not rep["ok"]
    assert not rep["weights"]["2"]["axiom_ii"]
    # the tilting construction refuses the order, naming the first failing weight
    with pytest.raises(ModuleError, match=r"not quasi-hereditary at weight 1: axiom \(i\)"):
        sys.tilting("1")


def test_find_delta_filtration_examples(sl2):
    # a standard module is a single step
    steps, _ = find_delta_filtration(sl2, sl2.standard("2"))
    assert steps == [("2", 0)]
    # P(1): standard modules at shifts 1 and 0
    steps, chain = find_delta_filtration(sl2, sl2.projective("1"))
    assert sorted(steps) == [("1", 0), ("2", 1)]
    # the chain climbs from 0 through Delta(2) = [2 | 1] to P(1)
    assert [c.total_dim for c in chain] == [0, 2, 3]
    # semisimple of minimal weight: two steps at shift 0
    M, _ = direct_sum([sl2.simple("1"), sl2.simple("1")])
    steps, _ = find_delta_filtration(sl2, M)
    assert steps == [("1", 0), ("1", 0)]


def test_filtration_failure_witness(sl2):
    # Nabla(2) = [1 over 2] has no standard filtration
    with pytest.raises(FiltrationFailure) as failure:
        find_delta_filtration(sl2, sl2.costandard("2"))
    # the trace of P(2) is the socle L(2), not a copy of Delta(2)
    assert failure.value.label == "2" and failure.value.trace_dims == {"1": 0, "2": 1}


def test_reversed_order_raises_filtration_failure():
    # with 2 < 1 the greedy filtration of either projective stops at weight 1
    sys = sl2_reversed()
    for lam, trace_dims in (("1", {"1": 2, "2": 1}), ("2", {"1": 1, "2": 0})):
        with pytest.raises(FiltrationFailure, match="^at 1: trace of the maximal weight is not a standard power$") as failure:
            find_delta_filtration(sys, sys.projective(lam))
        assert isinstance(failure.value, ModuleError)
        assert (failure.value.label, failure.value.trace_dims) == ("1", trace_dims), lam


def test_radical_respecting_examples(sl2):
    P1 = sl2.projective("1")
    steps, _ = find_delta_filtration(sl2, P1)
    ok, predicted, actual = check_radical_respecting(sl2, P1, steps)
    assert ok and predicted == actual
    # direct sum with a shift-0 placement: predicted [ {1,2}, {1} ]
    M, _ = direct_sum([sl2.simple("1"), sl2.standard("2")])
    steps, _ = find_delta_filtration(sl2, M)
    ok, predicted, actual = check_radical_respecting(sl2, M, steps)
    assert ok
    assert actual == [Counter({"1": 1, "2": 1}), Counter({"1": 1})]


def test_filtration_independence_two_chains(sl2):
    P1, D2 = sl2.projective("1"), sl2.standard("2")
    M, injs = direct_sum([P1, D2])
    full = SubFamily.full(M)
    summand = image(M, injs[1])
    radp1 = spin_submodule(M, [("2", injs[0]["2"].apply([sl2.algebra.field.one]))])
    chain_a = [SubFamily(M), summand, summand.sum(radp1), full]
    chain_b = [SubFamily(M), radp1, summand.sum(radp1), full]
    assert chain_a[1] != chain_b[1]
    preds = []
    for chain in (chain_a, chain_b):
        steps = delta_filtration_from_chain(sl2, M, chain)
        ok, predicted, actual = check_radical_respecting(sl2, M, steps)
        assert ok
        preds.append(predicted)
    assert preds[0] == preds[1]


def test_filtration_from_chain_refusals(sl2):
    P1 = sl2.projective("1")
    # P(1) has top L(1) but is not Delta(1): it does not vanish at 2
    with pytest.raises(ModuleError, match="chain step is not a standard module at weight 1"):
        delta_filtration_from_chain(sl2, P1, [SubFamily(P1), SubFamily.full(P1)])
    M, _ = direct_sum([sl2.simple("1"), sl2.simple("2")])
    with pytest.raises(ModuleError, match="chain step does not have a simple head"):
        delta_filtration_from_chain(sl2, M, [SubFamily(M), SubFamily.full(M)])
    bad = SubFamily.from_vectors(P1, [("1", [1, 0])])  # the head line is not a submodule
    with pytest.raises(ModuleError, match="not arrow-stable"):
        delta_filtration_from_chain(sl2, P1, [SubFamily(P1), bad, SubFamily.full(P1)])


def test_heredity_multiplicity_from_filtration(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            steps, _ = find_delta_filtration(sys, sys.projective(lam))
            mults = Counter(label for label, _ in steps)
            assert mults[lam] == 1
            assert all(sys.poset.less(lam, mu) for mu in mults if mu != lam)


def test_ringel_examples(sl2):
    T2 = sl2.tilting("2")
    assert radical_profile(T2) == [Counter({"1": 1}), Counter({"2": 1}), Counter({"1": 1})]
    assert sl2.tilting("1").total_dim == 1


def _ringel_multipass(sys, lam, projective_cover):
    """Ringel's construction as a loop: after every extension recompute
    Ext^1(Delta(mu), X) for every mu, each through a fresh projective cover
    of Delta(mu), and extend at a maximal weight where it is nonzero, until
    none is."""
    X = sys.standard(lam)
    while True:
        covers = {mu: projective_cover(sys.standard(mu)) for mu in sys.labels}
        pending = {mu: classes for mu in sys.labels if (classes := ext1(covers[mu], X))}
        if not pending:
            return X
        mu = sys.poset.max_label(list(pending))
        X = universal_extension(X, covers[mu], pending[mu])


@pytest.mark.parametrize("fixture", ["sl2", "ce3", (3, 2), (3, 3), (3, 0), (4, 2), (4, 3), (4, 0), (5, 2), (5, 3), (5, 0)], ids=str)
def test_one_pass_ringel_matches_multipass(fixture, request, auslander, projective_cover):
    sys = request.getfixturevalue(fixture) if isinstance(fixture, str) else auslander(*fixture)
    for lam in sys.labels:
        T, R = sys.tilting(lam), _ringel_multipass(sys, lam, projective_cover)
        assert T.dims == R.dims and radical_profile(T) == radical_profile(R), lam
        # every order here is total, so both take the same extensions in the same basis
        assert {a: m.data for a, m in T.mats.items()} == {a: m.data for a, m in R.mats.items()}, lam


def test_certificate_rejects_decomposable_modules(sl2):
    T2 = sl2.tilting("2")
    certify_indecomposable(T2, "2")
    with_simple, _ = direct_sum([T2, sl2.simple("1")])
    with pytest.raises(ModuleError, match="decomposable"):
        certify_indecomposable(with_simple, "2")
    doubled, _ = direct_sum([T2, T2])
    with pytest.raises(ModuleError, match="dimension 2 at weight 2"):
        certify_indecomposable(doubled, "2")


def _plain(profile) -> list:
    return [{k: v for k, v in layer.items() if v} for layer in profile]


@pytest.mark.parametrize("n,p", [(3, 3), (4, 3), (3, 0)])
def test_auslander_top_tilting_is_projective_injective(n, p, auslander):
    # T(1) = P(n): dims 1..n, layer k holds L(n - j) for j = k mod 2, ..., min(k, 2n - 2 - k)
    T = auslander(n, p).tilting("1")
    assert T.dims == {str(i): i for i in range(1, n + 1)}
    expected = [
        {str(n - j): 1 for j in range(k % 2, min(k, 2 * n - 2 - k) + 1, 2)} for k in range(2 * n - 1)
    ]
    assert _plain(radical_profile(T)) == expected


def test_auslander_tiltings_agree_over_q_and_f3(auslander):
    q, f3 = auslander(3, 0), auslander(3, 3)
    for lam in q.labels:
        Tq, Tf = q.tilting(lam), f3.tilting(lam)
        assert Tq.dims == Tf.dims
        assert _plain(radical_profile(Tq)) == _plain(radical_profile(Tf))


def test_tilting_has_both_filtrations_and_ext_vanishing(sl2, ce3, projective_cover):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            T = sys.tilting(lam)
            find_delta_filtration(sys, T)  # raises FiltrationFailure if there is none
            assert nabla_multiplicities(sys, T) is not None
            cover = projective_cover(T)
            for mu in sys.labels:
                assert ext1(projective_cover(sys.standard(mu)), T) == []
                assert ext1(cover, sys.costandard(mu)) == []
            # highest-weight condition: composition factors bounded by lam
            for nu in sum(radical_profile(T), Counter()):
                assert sys.poset.leq(nu, lam)


def test_hom_pairing_on_filtered_pairs(sl2):
    # dim Hom(M, N) = sum of standard x costandard multiplicities
    mods = [sl2.projective("1"), sl2.projective("2"), sl2.standard("2"), sl2.tilting("2")]
    for M in mods:
        try:
            steps, _ = find_delta_filtration(sl2, M)
        except FiltrationFailure:
            continue
        for N in mods:
            nm = nabla_multiplicities(sl2, N)
            if nm is None:
                continue
            dm = Counter(label for label, _ in steps)
            assert len(hom_space(M, N)) == sum(dm[l] * nm[l] for l in sl2.labels)


def test_check_bgg(sl2, ce3):
    rep = check_bgg(sl2)
    assert rep["applicable"] and rep["ok"]
    rep = check_bgg(ce3)
    assert not rep["applicable"]


def test_bgg_layer_reciprocity_value(sl2):
    # [rad_1 P(1) : L(2)] = [rad_1 P(2) : L(1)] = 1
    p1 = radical_profile(sl2.projective("1"))
    p2 = radical_profile(sl2.projective("2"))
    assert p1[1]["2"] == 1 and p2[1]["1"] == 1


# -- the standard-filtration layer against the routines it replaced -----------------------


def _spin_reference(M, vectors):
    """The per-vector spin: one family sum for every arrow image not yet inside."""
    fam = SubFamily.from_vectors(M, vectors)
    changed = True
    while changed:
        changed = False
        for a, (u, w) in M.algebra.quiver.arrows.items():
            for vec in fam.spaces[u].basis:
                img = M.mats[a].apply(vec)
                if not fam.spaces[w].contains(img):
                    fam = fam.sum(SubFamily.from_vectors(M, [(w, img)]))
                    changed = True
    return fam


def _trace_of(P, M):
    """Sum of the images of all homomorphisms P -> M."""
    fam = SubFamily(M)
    for g in hom_space(P, M):
        fam = fam.sum(image(M, g))
    return fam


def _standard_kernel_reference(sys, lam):
    """Sum of the traces in P(lam) of the P(mu) with mu not <= lam."""
    P = sys.projective(lam)
    fam = SubFamily(P)
    for mu in sys.labels:
        if not sys.poset.leq(mu, lam):
            fam = fam.sum(_trace_of(sys.projective(mu), P))
    return fam


def _preimage_family(M, proj, fam):
    """{x in M : proj(x) in fam}, computed per vertex."""
    spaces = {}
    for v in M.vertices:
        Q, _ = quotient_map(M.field, fam.spaces[v])
        spaces[v] = Subspace(M.field, M.dims[v], kernel_basis(Q.mul(proj[v])))
    return SubFamily(M, spaces)


def _greedy_reference(sys, M):
    """The greedy builder as it was: the weight from the radical profile of
    each quotient, each head the lift of g(e_lam) through the projection by
    a solve, shifts tagged once the chain is complete by adding whole
    families.  Returns (placement, chain), or the failure's (label, trace dims)."""
    rad = radical_series(M)
    heads, chain = [], [SubFamily(M)]
    while chain[-1].total_dim < M.total_dim:
        quot = quotient_rep(M, chain[-1])
        proj = {v: quotient_map(M.field, chain[-1].spaces[v])[0] for v in M.vertices}
        lam = sys.poset.max_label(list(sum(radical_profile(quot), Counter())))
        P, kernel = sys.projective(lam), _standard_kernel_reference(sys, lam)
        homs = hom_space(P, quot)
        trace = SubFamily(quot)
        for g in homs:
            trace = trace.sum(image(quot, g))
        factoring = all(
            not any(g[v].apply(vec)) for g in homs for v in M.vertices for vec in kernel.spaces[v].basis
        )
        if not factoring or trace.total_dim != len(homs) * (P.total_dim - kernel.total_dim):
            return lam, {v: trace.dim_at(v) for v in M.vertices}
        A = P.algebra  # P(lam)_lam is spanned by the basis paths from lam to lam, in basis order
        loops = [p for p in A.basis if A.path_source(p) == lam == A.path_target(p)]
        generator = [M.field.one if p == (lam,) else M.field.zero for p in loops]
        partial = SubFamily(quot)
        for g in homs:
            partial = partial.sum(image(quot, g))
            heads.append((lam, solve(proj[lam], g[lam].apply(generator))))
            chain.append(_preimage_family(M, proj, partial))
    placement = []
    for (lam, vec), below in zip(heads, chain):
        s = 0
        while s + 1 < len(rad) and rad[s + 1].sum(below).spaces[lam].contains(vec):
            s += 1
        placement.append((lam, s))
    return placement, chain


def _rebased(M, rng):
    """M in a random basis at every vertex: an isomorphic module in which a
    head representative comes out mixed with the vectors below it."""
    F, inverse, change = M.field, {}, {}
    for v in M.vertices:
        n = M.dims[v]
        while True:
            g = [[F.of(rng.randint(0, 6)) for _ in range(n)] for _ in range(n)]
            unit = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
            R, pivots = rref(Mat.canonical(F, [a + b for a, b in zip(g, unit)], 2 * n))
            if pivots == list(range(n)):
                change[v], inverse[v] = Mat.canonical(F, g, n), Mat.canonical(F, [row[n:] for row in R], n)
                break
    mats = {a: change[w].mul(M.mats[a]).mul(inverse[u]) for a, (u, w) in M.algebra.quiver.arrows.items()}
    return Representation(M.algebra, M.dims, mats, name=f"rebased({M.name})")


REFERENCE_FIXTURES = ["sl2", "ce3"] + [(n, p) for n in (2, 3, 4, 5) for p in (2, 3, 0)]
REFERENCE_FIXTURES += [("dx", seed, p) for seed in (2, 8, 9, 12) for p in (2, 3)] + [("dx", 8, 0)]


def _reference_system(fixture, request):
    if isinstance(fixture, str):
        return request.getfixturevalue(fixture)
    if fixture[0] == "dx":
        return request.getfixturevalue("dual_extension")(*fixture[1:])
    return request.getfixturevalue("auslander")(*fixture)


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_quotient_rep_is_the_projection_times_a_section(fixture, request):
    # X_a on M/U is Q_w X_a S_u, with S_u the section that sends the k-th
    # quotient coordinate to the k-th coordinate that is not a pivot of U_u
    sys = _reference_system(fixture, request)
    F = sys.algebra.field
    checked = 0
    for lam in sys.labels:
        P = sys.projective(lam)
        pairs = [(P, sys.standard_kernel(lam))] + [(M, fam) for M in (P, sys.tilting(lam)) for fam in radical_series(M)]
        for M, fam in pairs:
            quot, proj, section = quotient_rep(M, fam), {}, {}
            for v in M.vertices:
                proj[v] = quotient_map(F, fam.spaces[v])[0]
                free = [c for c in range(M.dims[v]) if c not in fam.spaces[v].pivots]
                section[v] = Mat.zero(F, M.dims[v], len(free))
                for k, c in enumerate(free):
                    section[v].data[c][k] = 1
                assert proj[v].mul(section[v]) == Mat.identity(F, len(free))
                assert quot.dims[v] == len(free)
            for a, (u, w) in M.algebra.quiver.arrows.items():
                expected = proj[w].mul(M.mats[a]).mul(section[u])
                assert (quot.mats[a].rows, quot.mats[a].cols) == (expected.rows, expected.cols)
                assert quot.mats[a] == expected, (M.name, a)
                checked += expected.rows * expected.cols
    assert checked


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_presentation_is_the_cover_of_delta_on_the_systems_own_objects(fixture, request, monkeypatch, projective_cover):
    # a fresh system, so that no presentation is in its memo yet
    sys = StandardSystem(_reference_system(fixture, request).algebra)
    for lam in sys.labels:  # U(lam) and P(lam) are all it reads; Delta(lam) is not needed
        sys.standard_kernel(lam)
    built, construct = [], Representation.__init__

    def counted_construct(rep, *args, **kwargs):
        built.append(args)
        construct(rep, *args, **kwargs)

    monkeypatch.setattr(Representation, "__init__", counted_construct)
    presentations = {lam: sys.presentation(lam) for lam in sys.labels}
    monkeypatch.undo()
    assert built == []
    for lam, pres in presentations.items():
        assert pres.P0 is sys.projective(lam) and pres.heads == [lam], lam
        assert pres.syzygy == sys.standard_kernel(lam), lam
        ref = projective_cover(sys.standard(lam))
        assert ref.heads == pres.heads and ref.columns == pres.columns, lam
        assert pres.generators == ref.generators, lam
        assert pres.paths == ref.paths, lam
        assert {w: m.data for w, m in pres.path_images.items()} == {w: m.data for w, m in ref.path_images.items()}, lam
        assert pres.relations == ref.relations, lam


def _certify_by_composition(M, lam):
    """The certificate on maps: the powers of I = ker c as spans of
    flattened maps, each power times I by composing every pair."""
    F = M.field
    endo = hom_space(M, M)
    scalars = Mat.canonical(F, [[f[lam].data[0][0] for f in endo]])
    ideal = [combine(endo, coords) for coords in kernel_basis(scalars)]
    power = Subspace(F, len(flatten(endo[0])), [flatten(f) for f in ideal])
    while power.dim:
        products = [flatten(compose(morphism_from_flat(M, M, flat), g)) for flat in power.basis for g in ideal]
        nxt = Subspace(F, power.ambient, products)
        if nxt.dim == power.dim:
            raise ModuleError(f"{M.name} is decomposable: the maps vanishing at {lam} are not nilpotent")
        power = nxt


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES + ["sl2_reversed"], ids=str)
def test_end_dim_matches_the_block_solve(fixture, request):
    # End Delta(lam) is read off Delta(lam)_lam; the reversed sl2 order makes
    # Delta(1) = P(1), with L(1) twice, so End Delta(1) is 2-dimensional there
    if fixture == "sl2_reversed":
        sys = sl2_reversed()
    else:
        sys = _reference_system(fixture, request)
    report = check_quasihereditary(sys)
    for lam in sys.labels:
        assert report["weights"][lam]["end_dim"] == len(hom_space(sys.standard(lam), sys.standard(lam))), lam
    if fixture == "sl2_reversed":
        assert report["weights"]["1"]["end_dim"] == 2


@pytest.mark.parametrize(
    "fixture", [(n, p) for n in (3, 4) for p in (3, 0)] + [("dx", seed, 2) for seed in range(10)], ids=str
)
def test_end_of_tilting_is_the_filtration_pairing(fixture, request):
    # dim End T = sum_mu (T:Delta(mu)) (T:nabla(mu)); this pins the block solve
    # of hom_space on T.  Every case here takes under 0.1 s, so none is skipped
    sys = _reference_system(fixture, request)
    for lam in sys.labels:
        T = sys.tilting(lam)
        delta = Counter(label for label, _ in find_delta_filtration(sys, T)[0])
        nabla = nabla_multiplicities(sys, T)
        assert len(hom_space(T, T)) == sum(delta[mu] * nabla[mu] for mu in sys.labels), lam


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_certificate_matches_the_composition_walk(fixture, request):
    # both accept every T(lam), and both reject T(lam) (+) L(mu) whenever
    # L(mu)_lam = 0, where the line at lam is still one-dimensional
    sys = _reference_system(fixture, request)
    modules = 0
    for lam in sys.labels:
        T = sys.tilting(lam)
        certify_indecomposable(T, lam)
        _certify_by_composition(T, lam)
        modules += 1
        for mu in sys.labels:
            if sys.simple(mu).dims[lam]:
                continue
            M, _ = direct_sum([T, sys.simple(mu)])
            for certify in (certify_indecomposable, _certify_by_composition):
                with pytest.raises(ModuleError, match="is decomposable"):
                    certify(M, lam)
            modules += 1
    # every mu != lam qualifies: 284 modules over all the fixtures
    assert modules == len(sys.labels) ** 2


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_standard_filtrations_match_reference(fixture, request):
    sys = _reference_system(fixture, request)
    for lam in sys.labels:
        assert sys.standard_kernel(lam) == _standard_kernel_reference(sys, lam), lam
    # costandard modules may have no standard filtration, which compares the failures too
    modules = [f(lam) for f in (sys.projective, sys.tilting, sys.costandard) for lam in sys.labels]
    rng = random.Random(7)
    for M in modules:
        # in a random basis a head representative that is not reduced modulo
        # the step below shows; isomorphic modules get one placement up to order
        placements = []
        for N in (M, _rebased(M, rng)):
            try:
                steps, chain = find_delta_filtration(sys, N)
            except FiltrationFailure as failure:
                assert (failure.label, failure.trace_dims) == _greedy_reference(sys, N), N.name
                placements.append(None)
            else:
                assert (steps, chain) == _greedy_reference(sys, N), N.name
                assert delta_filtration_from_chain(sys, N, chain) == steps, N.name
                placements.append(sorted(steps))
        assert placements[0] == placements[1], M.name


@pytest.mark.parametrize("fixture", ["sl2", "ce3", (4, 3), (3, 0), ("dx", 8, 2), ("dx", 12, 3)], ids=str)
def test_greedy_filtration_builds_no_module(fixture, request, monkeypatch):
    # each round is read in M itself: no quotient by the chain so far is built
    sys = _reference_system(fixture, request)
    modules = [f(lam) for f in (sys.projective, sys.tilting) for lam in sys.labels]
    for lam in sys.labels:  # the failure test reads dim Delta(lam)
        sys.standard(lam)
    built, construct = [], Representation.__init__

    def counted_construct(rep, *args, **kwargs):
        built.append(args)
        construct(rep, *args, **kwargs)

    monkeypatch.setattr(Representation, "__init__", counted_construct)
    for M in modules:  # raises FiltrationFailure if one has none
        find_delta_filtration(sys, M)
    monkeypatch.undo()
    assert built == []


def _path_matrix_reference(M, path):
    """The action of a path as the product of its arrow matrices, from the identity."""
    quiver = M.algebra.quiver
    if path[0] in quiver.vertices:
        return Mat.identity(M.field, M.dims[path[0]])
    out = Mat.identity(M.field, M.dims[quiver.source(path[0])])
    for a in path:
        out = M.mats[a].mul(out)
    return out


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_path_matrix_is_the_product_of_its_arrows(fixture, request):
    sys = _reference_system(fixture, request)
    A = sys.algebra
    paths = list(A.basis) + [p for rel in A.relations for _, p in rel.terms]
    for M in [f(lam) for f in (sys.projective, sys.tilting) for lam in sys.labels]:
        # a fresh copy, with the longest paths asked first, builds every prefix on the way
        fresh = Representation(A, M.dims, M.mats, name=M.name)
        for N in (M, fresh):
            for p in sorted(paths, key=len, reverse=True):
                got, ref = N.path_matrix(p), _path_matrix_reference(N, p)
                assert (got.rows, got.cols, got.data) == (ref.rows, ref.cols, ref.data), (M.name, p)


def test_head_class_avoids_the_radical_of_the_step():
    # over K[x]/(x^2), Delta(1) = P(1) holds L(1) twice, so J P(1) meets the
    # weight space itself; with the deep basis vector listed first the head
    # class must still be taken modulo J P(1), at shift 0
    sys = StandardSystem(parse_alg_text("field 2\nvertex 1\narrow x 1 1\nrelation x.x\n"))
    P = sys.projective("1")
    mats = {"x": Mat.canonical(P.field, [row[::-1] for row in P.mats["x"].data[::-1]], 2)}
    M = Representation(sys.algebra, P.dims, mats, name="P(1) deepest first")
    assert delta_filtration_from_chain(sys, M, [SubFamily(M), SubFamily.full(M)]) == [("1", 0)]


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_spin_matches_per_vector_spin(fixture, request):
    sys = _reference_system(fixture, request)
    F = sys.algebra.field
    for M in [f(lam) for f in (sys.projective, sys.tilting) for lam in sys.labels]:
        units = [(v, [F.one if i == k else F.zero for i in range(M.dims[v])]) for v in M.vertices for k in range(M.dims[v])]
        for vectors in [[]] + [[u] for u in units] + [units[::2], units[1::3]]:
            assert spin_submodule(M, vectors) == _spin_reference(M, vectors), (M.name, vectors)
        # the sum of the unit vectors at every vertex
        sums = [(v, [F.one] * M.dims[v]) for v in M.vertices if M.dims[v]]
        assert spin_submodule(M, sums) == _spin_reference(M, sums), M.name


@pytest.mark.parametrize("p", [2, 3, 0])
def test_repeated_weight_at_mixed_shifts(dual_extension, p):
    # B has the arrows 3 -> 1, 3 -> 2 and 2 -> 1 (doubled), so P(1) holds
    # Delta(2) twice at shift 1, and Delta(3) once along 3 -> 1 and twice
    # along 3 -> 2 -> 1
    sys = dual_extension(8, p)
    steps, chain = sys.projective_filtration("1")
    assert steps == [("3", 1), ("3", 2), ("3", 2), ("2", 1), ("2", 1), ("1", 0)]
    assert _greedy_reference(sys, sys.projective("1")) == (steps, chain)
    ok, _, _ = check_radical_respecting(sys, sys.projective("1"), steps)
    assert ok


def test_dualize_fixes_simples(sl2):
    for lam in sl2.labels:
        img = dualize(sl2.simple(lam), sl2.algebra)
        assert img.dims == sl2.simple(lam).dims


# -- maps out of the syzygy against the block solve on the syzygy as a module ---------


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_hom_out_of_syzygy_matches_the_block_solve(fixture, request, syzygy_block_solve, projective_cover, signed_cover):
    sys = _reference_system(fixture, request)
    F = sys.algebra.field
    targets = [f(lam) for f in (sys.simple, sys.standard, sys.costandard, sys.tilting) for lam in sys.labels]
    compared = 0
    for M in [f(lam) for f in (sys.standard, sys.costandard) for lam in sys.labels]:
        for cover in (projective_cover(M), signed_cover(M)):
            for N in targets:
                hom = cover.hom(N)
                solved = syzygy_block_solve(cover, N)[1]
                assert hom == Subspace(F, hom.ambient, solved), (M.name, N.name)
                assert hom.dim == len(solved), (M.name, N.name)
                compared += hom.dim
    assert compared


def _graph_by_syzygy_walk(X, cover, classes, syzygy_block_solve):
    """The graph of `universal_extension` as it was built before: each class
    as a map out of Omega, and for every basis vector w of Omega one vector
    (phi_i(w), -w in the i-th copy of P0) of X (+) P0^d."""
    F = X.field
    homs, images, inclusion = syzygy_block_solve(cover, X)
    maps = [combine(homs, solve(Mat.from_cols(F, images), phi)) for phi in classes]
    big, injs = direct_sum([X] + [cover.P0] * len(classes))
    vectors = []
    for v in X.vertices:
        for unit in Mat.identity(F, cover.syzygy.dim_at(v)).data:
            for i, phi in enumerate(maps):
                x_part = injs[0][v].apply(phi[v].apply(unit))
                p_part = injs[1 + i][v].apply([F.neg(c) for c in inclusion[v].apply(unit)])
                vectors.append((v, [F.add(a, b) for a, b in zip(x_part, p_part)]))
    return SubFamily.from_vectors(big, vectors)


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_path_image_graph_matches_the_syzygy_walk(fixture, request, monkeypatch, syzygy_block_solve):
    # every universal extension of Ringel's construction, for every weight
    sys = _reference_system(fixture, request)
    graphs, checked = [], []

    def quotient_capturing_the_graph(M, fam):
        graphs.append(fam)
        return quotient_rep(M, fam)

    def checked_extension(X, cover, classes):
        graphs.clear()
        out = universal_extension(X, cover, classes)
        assert graphs[0] == _graph_by_syzygy_walk(X, cover, classes, syzygy_block_solve), X.name
        checked.append(len(classes))
        return out

    monkeypatch.setattr(highest_weight, "quotient_rep", quotient_capturing_the_graph)
    monkeypatch.setattr(highest_weight, "universal_extension", checked_extension)
    for lam in sys.labels:
        highest_weight.ringel_tilting(sys, lam)
    assert checked


def _graph_meets_the_base(X, cover, phi):
    """dim of graph cap (X (+) 0) in X (+) P0 for one generator-image vector
    phi, the graph spanned by p.(phi(v_j), -v_j) over the generators v_j and
    the basis paths p out of their labels."""
    A, F, P0 = X.algebra, X.field, cover.P0
    big = direct_sum([X, P0])[0]
    vectors, pos = [], 0
    for label, _, vector in cover.generators:
        block, pos = phi[pos : pos + X.dims[label]], pos + X.dims[label]
        for p in A.basis:
            if A.path_source(p) == label:
                minus = [F.neg(c) for c in P0.path_matrix(p).apply(vector)]
                vectors.append((A.path_target(p), X.path_matrix(p).apply(block) + minus))
    base = [(v, unit + [F.zero] * P0.dims[v]) for v in X.vertices for unit in Mat.identity(F, X.dims[v]).data]
    return SubFamily.from_vectors(big, vectors).intersect(SubFamily.from_vectors(big, base)).total_dim


def test_universal_extension_refuses_a_non_cocycle(sl2, projective_cover):
    # the syzygy of L(2) has one generator, at 1, and a relation that cuts
    # Hom(syzygy, P(1)) down to a line of P(1)_1
    cover, X = projective_cover(sl2.simple("2")), sl2.projective("1")
    hom = cover.hom(X)
    assert hom.dim < hom.ambient
    phi = next(u for u in Subspace.full(X.field, hom.ambient).basis if not hom.contains(u))
    assert _graph_meets_the_base(X, cover, phi) > 0
    with pytest.raises(ModuleError, match="wrong dimension"):
        universal_extension(X, cover, [phi])
    # a cocycle's graph meets X in 0, and the extension has the expected dimension
    (cocycle,) = hom.basis
    assert _graph_meets_the_base(X, cover, cocycle) == 0
    extended = universal_extension(X, cover, [cocycle])
    assert extended.total_dim == X.total_dim + cover.P0.total_dim - cover.syzygy.total_dim
