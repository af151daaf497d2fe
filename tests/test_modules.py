from collections import Counter

import pytest

from tiltrig.linalg import Mat, Subspace, kernel_basis
from tiltrig.modules import (
    ModuleError,
    Representation,
    SubFamily,
    all_submodules,
    direct_sum,
    ext1,
    hom_space,
    image,
    is_rigid,
    loewy_length,
    parse_rep_text,
    quotient_rep,
    radical_of,
    radical_profile,
    radical_series,
    socle_profile,
    socle_series,
    spin_submodule,
)


def ext1_dim_by_cocycles(M: Representation, N: Representation) -> int:
    """Independent Ext^1 computation: block upper-triangular middle terms.

    A candidate extension is N (+) M with connecting blocks C_a; relations
    impose linear conditions on the C_a and coboundaries are the blocks of
    the form X^N h - h X^M.  The test-only reference for ext1().
    """
    F = M.field
    algebra = M.algebra
    offs = {}
    pos = 0
    for a, (u, w) in algebra.quiver.arrows.items():
        offs[a] = pos
        pos += N.dims[w] * M.dims[u]
    nvars = pos

    def block_var(a, i, j):
        return offs[a] + i * M.dims[algebra.quiver.source(a)] + j

    rows = []
    for rel in algebra.relations:
        src, dst = rel.src, rel.dst
        for i in range(N.dims[dst]):
            for j in range(M.dims[src]):
                row = [F.zero] * nvars
                for coeff, p in rel.terms:
                    coeff = F.of(coeff)
                    # off-diagonal block of X^E_p: sum over the position k of
                    # the arrow where the path drops from the M side to N
                    for k, a in enumerate(p):
                        suffix = p[k + 1 :]
                        prefix = p[:k]
                        left = N.path_matrix(suffix) if suffix else Mat.identity(F, N.dims[algebra.quiver.target(a)])
                        right = M.path_matrix(prefix) if prefix else Mat.identity(F, M.dims[algebra.quiver.source(a)])
                        for r in range(left.cols):
                            lv = left.data[i][r]
                            if lv == F.zero:
                                continue
                            for c in range(right.rows):
                                rv = right.data[c][j]
                                if rv == F.zero:
                                    continue
                                idx = block_var(a, r, c)
                                row[idx] = F.add(row[idx], F.mul(coeff, F.mul(lv, rv)))
                if any(x != F.zero for x in row):
                    rows.append(row)
    if nvars == 0:
        return 0
    cocycles = len(kernel_basis(Mat.canonical(F, rows))) if rows else nvars

    # coboundary space: h = (h_v), C_a = X^N_a h_u - h_w X^M_a; the sign
    # convention is irrelevant for the span.
    hvars = 0
    hoffs = {}
    for v in M.vertices:
        hoffs[v] = hvars
        hvars += N.dims[v] * M.dims[v]
    cob_rows = []
    for hv in range(hvars):
        flat = [F.zero] * hvars
        flat[hv] = F.one
        hmats = {}
        p2 = 0
        for v in M.vertices:
            r, c = N.dims[v], M.dims[v]
            if r == 0 or c == 0:
                hmats[v] = Mat.zero(F, r, c)
            else:
                hmats[v] = Mat.canonical(F, [flat[p2 + i * c : p2 + (i + 1) * c] for i in range(r)])
            p2 += r * c
        vec = [F.zero] * nvars
        for a, (u, w) in algebra.quiver.arrows.items():
            blk = N.mats[a].mul(hmats[u]).add(hmats[w].mul(M.mats[a]).scale(-1))
            for i in range(blk.rows):
                for j in range(blk.cols):
                    vec[block_var(a, i, j)] = blk.data[i][j]
        cob_rows.append(vec)
    boundaries = Subspace(F, nvars, cob_rows).dim if cob_rows else 0
    return cocycles - boundaries


def P(sys, l):
    return sys.projective(l)


def L(sys, l):
    return sys.simple(l)


def test_projective_profiles(sl2):
    assert radical_profile(P(sl2, "1")) == [Counter({"1": 1}), Counter({"2": 1}), Counter({"1": 1})]
    assert radical_profile(P(sl2, "2")) == [Counter({"2": 1}), Counter({"1": 1})]
    assert socle_profile(P(sl2, "2")) == [Counter({"1": 1}), Counter({"2": 1})]


def test_semisimple_single_layer(sl2):
    M, _ = direct_sum([L(sl2, "1"), L(sl2, "2")])
    assert radical_profile(M) == [Counter({"1": 1, "2": 1})]


def test_hom_space_examples(sl2):
    assert len(hom_space(L(sl2, "1"), L(sl2, "1"))) == 1
    assert len(hom_space(P(sl2, "1"), P(sl2, "2"))) == 1
    assert len(hom_space(P(sl2, "1"), P(sl2, "1"))) == 2
    # the unique P(1) -> P(2) map lands in the radical
    (g,) = hom_space(P(sl2, "1"), P(sl2, "2"))
    rad = radical_of(P(sl2, "2"), SubFamily.full(P(sl2, "2")))
    assert rad.contains(image(P(sl2, "2"), g))


def test_hom_counts_composition_factors(sl2):
    # dim Hom(P(l), M) equals the multiplicity of L(l) in M
    for l in ("1", "2"):
        for M in (P(sl2, "1"), P(sl2, "2"), L(sl2, "1")):
            assert len(hom_space(P(sl2, l), M)) == sum(radical_profile(M), Counter())[l]


def test_spin_examples(sl2):
    P1 = P(sl2, "1")
    assert spin_submodule(P1, []).total_dim == 0
    A = P1.algebra  # P(1)_1 is spanned by the basis paths from 1 to 1, in basis order
    idempotent = [1 if p == ("1",) else 0 for p in A.basis if A.path_source(p) == "1" == A.path_target(p)]
    assert spin_submodule(P1, [("1", idempotent)]).total_dim == P1.total_dim
    soc = socle_series(P1)[1]
    vec = soc.spaces["1"].basis[0]
    assert spin_submodule(P1, [("1", vec)]).total_dim == 1


@pytest.mark.parametrize("fixture", ["sl2", "sl2_f2", "ce3"] + [(seed, p) for seed in range(10) for p in (2, 3)], ids=str)
def test_spin_matches_the_fixpoint_loop(fixture, request, dual_extension, spin_fixpoint):
    sys = request.getfixturevalue(fixture) if isinstance(fixture, str) else dual_extension(*fixture)
    F = sys.algebra.field
    for lam in sys.labels:
        P, T = sys.projective(lam), sys.tilting(lam)
        for M in (P, T):
            units = [(v, row) for v in M.vertices for row in Mat.identity(F, M.dims[v]).data]
            sums = [(v, [F.one] * M.dims[v]) for v in M.vertices if M.dims[v]]
            for vectors in [[], units, sums, units[::2] + units[1::3]] + [[u] for u in units]:
                assert spin_submodule(M, vectors) == spin_fixpoint(M, vectors), (M.name, vectors)
        # the standard kernel U(lam) spins P(lam)_mu for every mu not <= lam
        higher = [(mu, row) for mu in sys.labels if not sys.poset.leq(mu, lam) for row in Mat.identity(F, P.dims[mu]).data]
        assert sys.standard_kernel(lam) == spin_fixpoint(P, higher), lam


def test_radical_is_intersection_of_maximals(sl2, subquotient):
    # rad M = sum of arrow images and M/rad is semisimple
    for M in (P(sl2, "1"), P(sl2, "2")):
        rad = radical_of(M, SubFamily.full(M))
        head, _ = subquotient(M, SubFamily.full(M), rad)
        assert loewy_length(head) <= 1


def test_subquotient_examples(sl2, subquotient):
    P1 = P(sl2, "1")
    whole, induced = subquotient(P1, SubFamily.full(P1), SubFamily(P1))
    assert whole.total_dim == P1.total_dim
    assert [f.total_dim for f in induced] == [3, 2, 1, 0]
    chain = radical_series(P1)
    middle, _ = subquotient(P1, chain[1], chain[2])
    assert radical_profile(middle) == [Counter({"2": 1})]
    soc = socle_series(P1)[1]
    top, _ = subquotient(P1, SubFamily.full(P1), soc)
    assert radical_profile(top) == [Counter({"1": 1}), Counter({"2": 1})]


def test_radical_series_is_built_once(sl2):
    P1 = P(sl2, "1")
    chain = radical_series(P1)
    assert isinstance(chain, tuple) and radical_series(P1) is chain
    assert [f.total_dim for f in chain] == [3, 2, 1, 0]


def test_subquotient_validation(sl2, sub_rep, subquotient):
    P1 = P(sl2, "1")
    chain = radical_series(P1)
    with pytest.raises(ModuleError):
        subquotient(P1, chain[2], chain[1])  # not nested
    bad = SubFamily.from_vectors(P1, [("1", [1, 0])])  # head line is not stable
    with pytest.raises(ModuleError, match="not arrow-stable"):
        subquotient(P1, SubFamily.full(P1), bad)
    with pytest.raises(ModuleError, match="not arrow-stable"):
        subquotient(P1, bad, SubFamily(P1))
    for build in (sub_rep, quotient_rep):
        with pytest.raises(ModuleError, match="not arrow-stable"):
            build(P1, bad)


def test_ext1_examples(sl2, projective_cover):
    assert len(ext1(projective_cover(L(sl2, "1")), L(sl2, "1"))) == 0
    assert len(ext1(projective_cover(L(sl2, "1")), L(sl2, "2"))) == 1
    for N in (L(sl2, "1"), L(sl2, "2"), P(sl2, "1")):
        assert len(ext1(projective_cover(P(sl2, "1")), N)) == 0
        assert len(ext1(projective_cover(P(sl2, "2")), N)) == 0


def test_ext1_matches_cocycle_oracle(sl2_f2, ce3, projective_cover):
    for sys in (sl2_f2, ce3):
        mods = {f"L{l}": L(sys, l) for l in sys.labels}
        mods.update({f"P{l}": P(sys, l) for l in sys.labels})
        for name_m, M in mods.items():
            for name_n, N in mods.items():
                if M.total_dim + N.total_dim > 4:
                    continue
                assert len(ext1(projective_cover(M), N)) == ext1_dim_by_cocycles(M, N), (name_m, name_n)


def test_ext1_matches_literal_middle_term_enumeration(sl2_f2, projective_cover):
    # enumerate every block-triangular middle term over F2 and count the
    # relation-satisfying choices and the split ones directly
    import itertools

    from tiltrig.linalg import Mat
    from tiltrig.modules import Representation

    A = sl2_f2.algebra
    cases = [("1", "2"), ("1", "1"), ("2", "1")]
    for lm, ln in cases:
        M, N = L(sl2_f2, lm), L(sl2_f2, ln)
        arrows = list(A.quiver.arrows)
        shapes = {a: (N.dims[A.quiver.target(a)], M.dims[A.quiver.source(a)]) for a in arrows}
        nvars = sum(r * c for r, c in shapes.values())
        valid = 0
        split = 0
        for bits in itertools.product([0, 1], repeat=nvars):
            mats = {}
            pos = 0
            ok = True
            for a in arrows:
                r, c = shapes[a]
                u, w = A.quiver.arrows[a]
                block = [[bits[pos + i * c + j] for j in range(c)] for i in range(r)]
                pos += r * c
                top = [
                    list(N.mats[a].data[i]) + block[i] for i in range(N.dims[w])
                ]
                bottom = [
                    [0] * N.dims[u] + list(M.mats[a].data[i]) for i in range(M.dims[w])
                ]
                rows = top + bottom
                mats[a] = Mat(A.field, rows) if rows else Mat.zero(A.field, 0, N.dims[u] + M.dims[u])
            dims = {v: N.dims[v] + M.dims[v] for v in A.quiver.vertices}
            try:
                E = Representation(A, dims, mats)
            except Exception:
                ok = False
            if not ok:
                continue
            valid += 1
            # split iff E has a submodule complementing the N part
            from tiltrig.modules import SubFamily, all_submodules

            n_part = SubFamily.from_vectors(
                E,
                [
                    (v, [1 if k == i else 0 for k in range(dims[v])])
                    for v in A.quiver.vertices
                    for i in range(N.dims[v])
                ],
            )
            for sub in all_submodules(E):
                if sub.total_dim == M.total_dim and sub.intersect(n_part).total_dim == 0:
                    split += 1
                    break
        d = len(ext1(projective_cover(M), N))
        assert valid % split == 0 and valid // split == 2 ** d, (lm, ln, valid, split, d)


def test_is_rigid_examples(sl2):
    assert is_rigid(L(sl2, "1"))[0]
    assert is_rigid(P(sl2, "1"))[0]
    M, _ = direct_sum([L(sl2, "1"), P(sl2, "1")])
    ok, witness = is_rigid(M)
    assert not ok and witness["layer"] >= 1


def test_submodule_lattice(sl2_f2):
    P1 = P(sl2_f2, "1")
    subs = all_submodules(P1)
    assert [s.total_dim for s in subs] == [0, 1, 2, 3]  # uniserial lattice


def test_rep_roundtrip(sl2):
    P1 = P(sl2, "1")
    lines = []
    for v in P1.vertices:
        lines.append(f"dim {v} {P1.dims[v]}")
    for a in P1.algebra.quiver.arrows:
        lines.append(f"map {a}")
        for row in P1.mats[a].data:
            lines.append(" ".join(map(str, row)))
    again = parse_rep_text("\n".join(lines), P1.algebra)
    assert again.dims == P1.dims
    assert radical_profile(again) == radical_profile(P1)


def test_rep_map_blocks_may_precede_dims(sl2):
    dims = "dim 1 2\ndim 2 1\n"
    maps = "map a\n1 0\nmap b\n0\n1\n"
    dims_first = parse_rep_text(dims + maps, sl2.algebra)
    maps_first = parse_rep_text(maps + dims, sl2.algebra)
    assert maps_first.dims == dims_first.dims == {"1": 2, "2": 1}
    assert {a: m.data for a, m in maps_first.mats.items()} == {a: m.data for a, m in dims_first.mats.items()}
    assert radical_profile(maps_first) == radical_profile(P(sl2, "1"))


def test_relation_violation_rejected(sl2):
    from tiltrig.linalg import Mat
    from tiltrig.modules import Representation

    A = sl2.algebra
    with pytest.raises(ModuleError):
        Representation(
            A,
            {"1": 1, "2": 1},
            {"a": Mat(A.field, [[1]]), "b": Mat(A.field, [[1]])},
        )


def _family_modules(sys):
    """Simples, standards, costandards and projectives of a system."""
    return [f(lam) for lam in sys.labels for f in (sys.simple, sys.standard, sys.costandard, sys.projective)]


@pytest.mark.parametrize("fixture", ["sl2", "ce3", (3, 3), (3, 0), (4, 2)], ids=str)
def test_read_off_restrictions_match_the_block_solve(fixture, request, auslander, signed_cover):
    # Hom(P0, N) read off (+) N_{v_i} restricts to the span the block solve gives
    sys = request.getfixturevalue(fixture) if isinstance(fixture, str) else auslander(*fixture)
    F = sys.algebra.field
    modules = _family_modules(sys)
    for M in modules:
        cover = signed_cover(M)
        for N in modules:
            read = cover.read_off(N)
            solved = hom_space(cover.P0, N)  # P0 is a direct sum, so this is the block solve
            assert read.cols == len(solved), (M.name, N.name)
            if not cover.generators:
                continue
            # the generator images of the restriction of g: P0 -> N are the g(v_j)
            restricted = [[x for v, _, vec in cover.generators for x in g[v].apply(vec)] for g in solved]
            ambient = read.rows
            assert Subspace(F, ambient, read.transpose().data) == Subspace(F, ambient, restricted), (M.name, N.name)


@pytest.mark.parametrize("n,p", [(3, 3), (3, 0)])
def test_ext1_matches_cocycle_oracle_on_auslander(n, p, auslander, projective_cover):
    sys = auslander(n, p)
    modules = _family_modules(sys) + [sys.tilting(lam) for lam in sys.labels]
    for M in modules:
        cover = projective_cover(M)
        for N in modules:
            assert len(ext1(cover, N)) == ext1_dim_by_cocycles(M, N), (M.name, N.name)
