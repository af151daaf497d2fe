import random
from collections import Counter

import pytest

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
from tiltrig.linalg import Mat, Subspace, kernel_basis, rref, solve
from tiltrig.modules import (
    ModuleError,
    ProjectiveCover,
    Representation,
    SubFamily,
    direct_sum,
    ext1,
    hom_space,
    linear_combination,
    morphism_from_flat,
    quotient_rep,
    radical_profile,
    radical_series,
    spin_submodule,
)
from tiltrig.quiver import parse_alg_text


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
    filt = find_delta_filtration(sl2, sl2.standard("2"))
    assert filt.placement() == [("2", 0)]
    # P(1): standard modules at shifts 1 and 0
    filt = find_delta_filtration(sl2, sl2.projective("1"))
    assert sorted(filt.placement()) == [("1", 0), ("2", 1)]
    # the chain climbs from 0 through Delta(2) = [2 | 1] to P(1)
    assert [c.total_dim for c in filt.chain] == [0, 2, 3]
    # semisimple of minimal weight: two steps at shift 0
    M, _ = direct_sum([sl2.simple("1"), sl2.simple("1")])
    filt = find_delta_filtration(sl2, M)
    assert filt.placement() == [("1", 0), ("1", 0)]


def test_filtration_failure_witness(sl2):
    # Nabla(2) = [1 over 2] has no standard filtration
    out = find_delta_filtration(sl2, sl2.costandard("2"))
    assert isinstance(out, FiltrationFailure)
    # the trace of P(2) is the socle L(2), not a copy of Delta(2)
    assert out.label == "2" and out.trace_dims == {"1": 0, "2": 1}


def test_radical_respecting_examples(sl2):
    P1 = sl2.projective("1")
    filt = find_delta_filtration(sl2, P1)
    ok, predicted, actual = check_radical_respecting(sl2, P1, filt)
    assert ok and predicted == actual
    # direct sum with a shift-0 placement: predicted [ {1,2}, {1} ]
    M, _ = direct_sum([sl2.simple("1"), sl2.standard("2")])
    filt = find_delta_filtration(sl2, M)
    ok, predicted, actual = check_radical_respecting(sl2, M, filt)
    assert ok
    assert actual == [Counter({"1": 1, "2": 1}), Counter({"1": 1})]


def test_filtration_independence_two_chains(sl2):
    P1, D2 = sl2.projective("1"), sl2.standard("2")
    M, injs = direct_sum([P1, D2])
    full = SubFamily.full(M)
    summand = injs[1].image()
    radp1 = spin_submodule(M, [("2", injs[0].mats["2"].apply([sl2.algebra.field.one]))])
    chain_a = [SubFamily(M), summand, summand.sum(radp1), full]
    chain_b = [SubFamily(M), radp1, summand.sum(radp1), full]
    assert chain_a[1] != chain_b[1]
    preds = []
    for chain in (chain_a, chain_b):
        filt = delta_filtration_from_chain(sl2, M, chain)
        ok, predicted, actual = check_radical_respecting(sl2, M, filt)
        assert ok
        preds.append(predicted)
    assert preds[0] == preds[1]


def test_heredity_multiplicity_from_filtration(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            filt = find_delta_filtration(sys, sys.projective(lam))
            mults = filt.multiplicities()
            assert mults[lam] == 1
            assert all(sys.poset.less(lam, mu) for mu in mults if mu != lam)


def test_ringel_examples(sl2):
    T2 = sl2.tilting("2")
    assert radical_profile(T2) == [Counter({"1": 1}), Counter({"2": 1}), Counter({"1": 1})]
    assert sl2.tilting("1").total_dim == 1


def _ringel_multipass(sys, lam):
    """Ringel's construction as a loop: after every extension recompute
    Ext^1(Delta(mu), X) for every mu, each through a fresh projective cover,
    and extend at a maximal weight where it is nonzero, until none is."""
    X = sys.standard(lam)
    while True:
        pending = {mu: e for mu in sys.labels if (e := ext1(sys.standard(mu), X)).dim}
        if not pending:
            return X
        mu = sys.poset.max_label(list(pending))
        X = universal_extension(X, sys.standard(mu), pending[mu])


@pytest.mark.parametrize("fixture", ["sl2", "ce3", (3, 2), (3, 3), (3, 0), (4, 2), (4, 3), (4, 0), (5, 2), (5, 3), (5, 0)], ids=str)
def test_one_pass_ringel_matches_multipass(fixture, request, auslander):
    sys = request.getfixturevalue(fixture) if isinstance(fixture, str) else auslander(*fixture)
    for lam in sys.labels:
        T, R = sys.tilting(lam), _ringel_multipass(sys, lam)
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


def test_tilting_has_both_filtrations_and_ext_vanishing(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            T = sys.tilting(lam)
            filt = find_delta_filtration(sys, T)
            assert not isinstance(filt, FiltrationFailure)
            assert nabla_multiplicities(sys, T) is not None
            for mu in sys.labels:
                assert ext1(sys.standard(mu), T).dim == 0
                assert ext1(T, sys.costandard(mu)).dim == 0
            # highest-weight condition: composition factors bounded by lam
            for nu in sum(radical_profile(T), Counter()):
                assert sys.poset.leq(nu, lam)


def test_hom_pairing_on_filtered_pairs(sl2):
    # dim Hom(M, N) = sum of standard x costandard multiplicities
    mods = [sl2.projective("1"), sl2.projective("2"), sl2.standard("2"), sl2.tilting("2")]
    for M in mods:
        filt = find_delta_filtration(sl2, M)
        if isinstance(filt, FiltrationFailure):
            continue
        for N in mods:
            nm = nabla_multiplicities(sl2, N)
            if nm is None:
                continue
            dm = filt.multiplicities()
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
        fam = fam.sum(g.image())
    return fam


def _standard_kernel_reference(sys, lam):
    """Sum of the traces in P(lam) of the P(mu) with mu not <= lam."""
    P = sys.projective(lam)
    fam = SubFamily(P)
    for mu in sys.labels:
        if not sys.poset.leq(mu, lam):
            fam = fam.sum(_trace_of(sys.projective(mu), P))
    return fam


def _greedy_reference(sys, M):
    """The greedy builder as it was: the weight from the radical profile of
    each quotient, each head the lift of g(e_lam) through the projection by
    a solve, shifts tagged once the chain is complete by adding whole
    families.  Returns (placement, chain), or the failure's (label, trace dims)."""
    from tiltrig.highest_weight import _preimage_family

    rad = radical_series(M)
    heads, chain = [], [SubFamily(M)]
    while chain[-1].total_dim < M.total_dim:
        quot, proj = quotient_rep(M, chain[-1])
        lam = sys.poset.max_label(list(sum(radical_profile(quot), Counter())))
        P, kernel = sys.projective(lam), _standard_kernel_reference(sys, lam)
        homs = hom_space(P, quot)
        trace = SubFamily(quot)
        for g in homs:
            trace = trace.sum(g.image())
        factoring = all(
            not any(g.mats[v].apply(vec)) for g in homs for v in M.vertices for vec in kernel.spaces[v].basis
        )
        if not factoring or trace.total_dim != len(homs) * (P.total_dim - kernel.total_dim):
            return lam, {v: trace.dim_at(v) for v in M.vertices}
        generator = [M.field.one if p == (lam,) else M.field.zero for p in P.basis_paths[lam]]
        partial = SubFamily(quot)
        for g in homs:
            partial = partial.sum(g.image())
            heads.append((lam, solve(proj.mats[lam], g.mats[lam].apply(generator))))
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
                change[v], inverse[v] = Mat.canonical(F, g, n), Mat.canonical(F, [row[n:] for row in R.data], n)
                break
    mats = {a: change[w].mul(M.mats[a]).mul(inverse[u]) for a, (u, w) in M.algebra.quiver.arrows.items()}
    return Representation(M.algebra, M.dims, mats, name=f"rebased({M.name})")


def _filtration_summary(filt):
    if isinstance(filt, FiltrationFailure):
        return filt.label, filt.trace_dims
    return filt.placement(), filt.chain


REFERENCE_FIXTURES = ["sl2", "ce3"] + [(n, p) for n in (2, 3, 4, 5) for p in (2, 3, 0)]
REFERENCE_FIXTURES += [("dx", seed, p) for seed in (2, 8, 9, 12) for p in (2, 3)] + [("dx", 8, 0)]


def _reference_system(fixture, request):
    if isinstance(fixture, str):
        return request.getfixturevalue(fixture)
    if fixture[0] == "dx":
        return request.getfixturevalue("dual_extension")(*fixture[1:])
    return request.getfixturevalue("auslander")(*fixture)


def _certify_by_composition(M, lam):
    """The certificate on morphisms: the powers of I = ker c as spans of
    flattened maps, each power times I by composing every pair."""
    F = M.field
    endo = hom_space(M, M)
    scalars = Mat.canonical(F, [[f.mats[lam].data[0][0] for f in endo]])
    ideal = [linear_combination(endo, coords) for coords in kernel_basis(scalars)]
    power = Subspace(F, len(flatten(endo[0])), [flatten(f) for f in ideal])
    while power.dim:
        products = [flatten(morphism_from_flat(M, M, flat).compose(g)) for flat in power.basis for g in ideal]
        nxt = Subspace(F, power.ambient, products)
        if nxt.dim == power.dim:
            raise ModuleError(f"{M.name} is decomposable: the maps vanishing at {lam} are not nilpotent")
        power = nxt


def flatten(f) -> list:
    """The entries of a morphism's vertex matrices, vertex by vertex, row by row."""
    return [x for v in f.source.vertices for row in f.mats[v].data for x in row]


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
            filt = find_delta_filtration(sys, N)
            assert _filtration_summary(filt) == _greedy_reference(sys, N), N.name
            if isinstance(filt, FiltrationFailure):
                placements.append(None)
            else:
                assert delta_filtration_from_chain(sys, N, filt.chain).placement() == filt.placement(), N.name
                placements.append(sorted(filt.placement()))
        assert placements[0] == placements[1], M.name


def test_head_class_avoids_the_radical_of_the_step():
    # over K[x]/(x^2), Delta(1) = P(1) holds L(1) twice, so J P(1) meets the
    # weight space itself; with the deep basis vector listed first the head
    # class must still be taken modulo J P(1), at shift 0
    sys = StandardSystem(parse_alg_text("field 2\nvertex 1\narrow x 1 1\nrelation x.x\n"))
    P = sys.projective("1")
    mats = {"x": Mat.canonical(P.field, [row[::-1] for row in P.mats["x"].data[::-1]], 2)}
    M = Representation(sys.algebra, P.dims, mats, name="P(1) deepest first")
    filt = delta_filtration_from_chain(sys, M, [SubFamily(M), SubFamily.full(M)])
    assert filt.placement() == [("1", 0)]


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
    filt = sys.projective_filtration("1")
    assert filt.placement() == [("3", 1), ("3", 2), ("3", 2), ("2", 1), ("2", 1), ("1", 0)]
    assert _greedy_reference(sys, filt.module) == (filt.placement(), filt.chain)
    ok, _, _ = check_radical_respecting(sys, filt.module, filt)
    assert ok


def test_dualize_fixes_simples(sl2):
    for lam in sl2.labels:
        img = dualize(sl2.simple(lam))
        assert img.dims == sl2.simple(lam).dims


# -- maps out of the syzygy against the block solve on the syzygy as a module ---------


@pytest.mark.parametrize("fixture", REFERENCE_FIXTURES, ids=str)
def test_hom_out_of_syzygy_matches_the_block_solve(fixture, request, syzygy_block_solve, signed_cover):
    sys = _reference_system(fixture, request)
    F = sys.algebra.field
    targets = [f(lam) for f in (sys.simple, sys.standard, sys.costandard, sys.tilting) for lam in sys.labels]
    compared = 0
    for M in [f(lam) for f in (sys.standard, sys.costandard) for lam in sys.labels]:
        for cover in (ProjectiveCover(M), signed_cover(M)):
            for N in targets:
                hom = cover.hom(N)
                solved = syzygy_block_solve(cover, N)[1]
                assert hom == Subspace(F, hom.ambient, solved), (M.name, N.name)
                assert hom.dim == len(solved), (M.name, N.name)
                compared += hom.dim
    assert compared


def _graph_by_syzygy_walk(X, ext, syzygy_block_solve):
    """The graph of `universal_extension` as it was built before: each class
    as a map out of Omega, and for every basis vector w of Omega one vector
    (phi_i(w), -w in the i-th copy of P0) of X (+) P0^d."""
    cover, F = ext.cover, X.field
    homs, images, inclusion = syzygy_block_solve(cover, X)
    classes = [linear_combination(homs, solve(Mat.from_cols(F, images), phi)) for phi in ext.classes]
    big, injs = direct_sum([X] + [cover.P0] * ext.dim)
    vectors = []
    for v in X.vertices:
        for unit in Mat.identity(F, inclusion.source.dims[v]).data:
            for i, phi in enumerate(classes):
                x_part = injs[0].mats[v].apply(phi.mats[v].apply(unit))
                p_part = injs[1 + i].mats[v].apply([F.neg(c) for c in inclusion.mats[v].apply(unit)])
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

    def checked_extension(X, delta, ext):
        graphs.clear()
        out = universal_extension(X, delta, ext)
        assert graphs[0] == _graph_by_syzygy_walk(X, ext, syzygy_block_solve), (X.name, delta.name)
        checked.append(ext.dim)
        return out

    monkeypatch.setattr(highest_weight, "quotient_rep", quotient_capturing_the_graph)
    monkeypatch.setattr(highest_weight, "universal_extension", checked_extension)
    for lam in sys.labels:
        highest_weight.ringel_tilting(sys, lam)
    assert checked
