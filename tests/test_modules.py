from collections import Counter

import pytest

from tiltrig.modules import (
    ModuleError,
    SubFamily,
    all_submodules,
    composition_counter,
    direct_sum,
    ext1,
    ext1_dim_by_cocycles,
    hom_space,
    is_rigid,
    loewy_length,
    parse_rep_text,
    projective_generator_vector,
    radical_of,
    radical_profile,
    radical_series,
    socle_profile,
    socle_series,
    spin_submodule,
    subquotient,
)


def P(sys, l):
    return sys.projective(l)


def L(sys, l):
    return sys.simple(l)


def test_projective_profiles(sl2):
    assert radical_profile(P(sl2, "1")) == [Counter({"1": 1}), Counter({"2": 1}), Counter({"1": 1})]
    assert radical_profile(P(sl2, "2")) == [Counter({"2": 1}), Counter({"1": 1})]
    assert socle_profile(P(sl2, "2")) == [Counter({"1": 1}), Counter({"2": 1})]


def test_semisimple_single_layer(sl2):
    M, _, _ = direct_sum([L(sl2, "1"), L(sl2, "2")])
    assert radical_profile(M) == [Counter({"1": 1, "2": 1})]


def test_hom_space_examples(sl2):
    assert len(hom_space(L(sl2, "1"), L(sl2, "1"))) == 1
    assert len(hom_space(P(sl2, "1"), P(sl2, "2"))) == 1
    assert len(hom_space(P(sl2, "1"), P(sl2, "1"))) == 2
    # the unique P(1) -> P(2) map lands in the radical
    (g,) = hom_space(P(sl2, "1"), P(sl2, "2"))
    rad = radical_of(P(sl2, "2"), SubFamily.full(P(sl2, "2")))
    assert rad.contains(g.image())


def test_hom_counts_composition_factors(sl2):
    # dim Hom(P(l), M) equals the multiplicity of L(l) in M
    for l in ("1", "2"):
        for M in (P(sl2, "1"), P(sl2, "2"), L(sl2, "1")):
            assert len(hom_space(P(sl2, l), M)) == composition_counter(M)[l]


def test_spin_examples(sl2):
    P1 = P(sl2, "1")
    assert spin_submodule(P1, []).total_dim == 0
    gen = projective_generator_vector(P1, "1")
    assert spin_submodule(P1, [gen]).total_dim == P1.total_dim
    soc = socle_series(P1)[1]
    vec = soc.spaces["1"].basis[0]
    assert spin_submodule(P1, [("1", vec)]).total_dim == 1


def test_radical_is_intersection_of_maximals(sl2):
    # rad M = sum of arrow images and M/rad is semisimple
    for M in (P(sl2, "1"), P(sl2, "2")):
        rad = radical_of(M, SubFamily.full(M))
        head, _, _ = subquotient(M, SubFamily.full(M), rad)
        assert loewy_length(head) <= 1


def test_subquotient_examples(sl2):
    P1 = P(sl2, "1")
    whole, induced, _ = subquotient(P1, SubFamily.full(P1), SubFamily(P1))
    assert whole.total_dim == P1.total_dim
    assert [f.total_dim for f in induced] == [3, 2, 1, 0]
    chain = radical_series(P1)
    middle, _, _ = subquotient(P1, chain[1], chain[2])
    assert radical_profile(middle) == [Counter({"2": 1})]
    soc = socle_series(P1)[1]
    top, _, _ = subquotient(P1, SubFamily.full(P1), soc)
    assert radical_profile(top) == [Counter({"1": 1}), Counter({"2": 1})]


def test_subquotient_validation(sl2):
    P1 = P(sl2, "1")
    chain = radical_series(P1)
    with pytest.raises(ModuleError):
        subquotient(P1, chain[2], chain[1])  # not nested
    bad = SubFamily.from_vectors(P1, [("1", [1, 0])])  # head line is not stable
    with pytest.raises(ModuleError):
        subquotient(P1, SubFamily.full(P1), bad)


def test_ext1_examples(sl2):
    assert ext1(L(sl2, "1"), L(sl2, "1")).dim == 0
    assert ext1(L(sl2, "1"), L(sl2, "2")).dim == 1
    for N in (L(sl2, "1"), L(sl2, "2"), P(sl2, "1")):
        assert ext1(P(sl2, "1"), N).dim == 0
        assert ext1(P(sl2, "2"), N).dim == 0


def test_ext1_matches_cocycle_oracle(sl2_f2, ce3):
    for sys in (sl2_f2, ce3):
        mods = {f"L{l}": L(sys, l) for l in sys.labels}
        mods.update({f"P{l}": P(sys, l) for l in sys.labels})
        for name_m, M in mods.items():
            for name_n, N in mods.items():
                if M.total_dim + N.total_dim > 4:
                    continue
                assert ext1(M, N).dim == ext1_dim_by_cocycles(M, N), (name_m, name_n)


def test_ext1_matches_literal_middle_term_enumeration(sl2_f2):
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
        d = ext1(M, N).dim
        assert valid % split == 0 and valid // split == 2 ** d, (lm, ln, valid, split, d)


def test_is_rigid_examples(sl2):
    assert is_rigid(L(sl2, "1"))[0]
    assert is_rigid(P(sl2, "1"))[0]
    M, _, _ = direct_sum([L(sl2, "1"), P(sl2, "1")])
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
            lines.append(" ".join(P1.field.fmt(x) for x in row))
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
