import random
from fractions import Fraction

import pytest
from conftest import flatten

from tiltrig.linalg import Field, Mat, Subspace, kernel_basis, quotient_map, rref, solve
from tiltrig.modules import hom_space, radical_series
from tiltrig.rigidity import positioned_lifting, rigidity_pipeline


def test_field_validation():
    Field(0)
    Field(7)
    with pytest.raises(ValueError):
        Field(6)


def test_field_coercion():
    F5 = Field(5)
    assert F5.of("2/3") == (2 * pow(3, -1, 5)) % 5
    Q = Field(0)
    assert str(Q.of("4/6")) == "2/3"


def test_rref_zero_and_identity():
    Q = Field(0)
    z = Mat.zero(Q, 2, 2)
    assert rref(z) == ([], [])
    i3 = Mat.identity(Q, 3)
    assert rref(i3) == (i3.data, [0, 1, 2])


def test_rref_f2_hand_case():
    F2 = Field(2)
    assert rref(Mat(F2, [[1, 1], [1, 1]])) == ([[1, 1]], [0])


def test_rank_nullity_and_solve():
    Q = Field(0)
    m = Mat(Q, [[1, 2, 3], [2, 4, 6]])
    assert len(rref(m)[1]) == 1
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert all(x == Q.zero for x in m.apply(v))
    assert solve(m, [1, 2]) is not None
    assert solve(m, [1, 3]) is None


def test_subspace_ops_hand_cases():
    Q = Field(0)
    U = Subspace(Q, 2, [[1, 1]])
    V = Subspace(Q, 2, [[1, -1]])
    assert U.sum(V).dim == 2
    assert U.intersect(V).dim == 0
    assert U.intersect(U) == U
    e1 = Subspace(Q, 2, [[1, 0]])
    e2 = Subspace(Q, 2, [[0, 1]])
    assert e1.sum(e2).dim == 2 and e1.intersect(e2).dim == 0


def test_subspace_height_mismatch():
    Q = Field(0)
    with pytest.raises(ValueError):
        Subspace(Q, 2, [[1, 0]]).sum(Subspace(Q, 3, [[1, 0, 0]]))


def test_subspace_canonical_equality():
    F2 = Field(2)
    a = Subspace(F2, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace(F2, 3, [[1, 0, 1], [1, 1, 0]])
    assert a == b


@pytest.mark.parametrize("p", [0, 2, 3])
def test_full_subspace_is_the_reduced_identity(p):
    F = Field(p)
    for n in range(5):
        full = Subspace.full(F, n)
        eliminated = Subspace(F, n, [[F.of(int(i == j)) for j in range(n)] for i in range(n)])
        assert (full.basis, full.pivots) == (eliminated.basis, eliminated.pivots)


def test_coords_and_complement(coords):
    Q = Field(0)
    U = Subspace(Q, 3, [[1, 0, 1]])
    W = Subspace(Q, 3, [[1, 0, 1], [0, 1, 0]])
    assert coords(U, [2, 0, 2]) == [Q.of(2)]
    comp = U.complement_in(W)
    assert len(comp) == 1 and not U.contains(comp[0])


def _greedy_complement(U, W):
    """The vectors of W's basis, in order, outside the span of U and the vectors kept before them."""
    comp, cur = [], U
    for v in W.basis:
        if not cur.contains(v):
            comp.append(v)
            cur = cur.sum(Subspace(U.field, U.ambient, [v]))
    return comp


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_complement_matches_the_greedy_loop(p):
    F, rng = Field(p), random.Random(p)
    for case in range(150):
        n = rng.randint(1, 6)
        W = Subspace(F, n, [[F.of(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, n))])
        combos = [[F.of(rng.randint(-2, 2)) for _ in W.basis] for _ in range(rng.randint(0, W.dim))]
        U = Subspace(F, n, [Mat.from_cols(F, W.basis).apply(c) for c in combos if W.basis])
        comp = U.complement_in(W)
        assert comp == _greedy_complement(U, W), case
        assert U.sum(Subspace(F, n, comp)) == W and U.dim + len(comp) == W.dim, case
    with pytest.raises(ValueError, match="requires containment"):
        Subspace(F, 2, [[F.one, F.zero]]).complement_in(Subspace(F, 2, [[F.zero, F.one]]))


def test_quotient_map_kernel():
    Q = Field(0)
    U = Subspace(Q, 3, [[1, 2, 0]])
    Qm, free = quotient_map(Q, U)
    assert Qm.rows == 2
    for v in U.basis:
        assert all(x == Q.zero for x in Qm.apply(v))


def test_randomized_invariants_seeded():
    rng = random.Random(1)
    for _ in range(60):
        F = Field(rng.choice([0, 2, 5]))
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Mat(F, [[F.of(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)])
        R, piv = rref(m)
        assert len(piv) + len(kernel_basis(m)) == cols
        assert rref(Mat.canonical(F, R, cols)) == (R, piv)


# -- reference: element-wise Gauss-Jordan ---------------------------------------
#
# One field operation per entry, pivot rows normalised as they are found: the
# elimination the row kernels replaced.  The reduced row-echelon form is
# unique, so the kernels must agree with it entry for entry.


def _ops(F):
    """(sub, mul, inv) on canonical elements of F."""
    p = F.p
    if p:
        return (lambda a, b: (a - b) % p), (lambda a, b: a * b % p), (lambda a: pow(a, -1, p))
    return (lambda a, b: a - b), (lambda a, b: a * b), (lambda a: 1 / Fraction(a))


def ref_rref(F, data, ncols):
    sub, mul, inv = _ops(F)
    out = [list(row) for row in data]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(out)) if out[i][c] != F.zero), None)
        if pr is None:
            continue
        out[r], out[pr] = out[pr], out[r]
        iv = inv(out[r][c])
        out[r] = [mul(iv, x) for x in out[r]]
        for i in range(len(out)):
            if i != r and out[i][c] != F.zero:
                f = out[i][c]
                out[i] = [sub(x, mul(f, y)) for x, y in zip(out[i], out[r])]
        pivots.append(c)
        r += 1
        if r == len(out):
            break
    return out[:r], pivots


def ref_null_vectors(F, rows, pivots, n):
    """e_fc - sum_i rows[i][fc] e_pivots[i], one per non-pivot column fc."""
    sub = _ops(F)[0]
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F.zero] * n
        v[fc] = F.one
        for row, pc in zip(rows, pivots):
            v[pc] = sub(v[pc], row[fc])
        out.append(v)
    return out


def ref_solve(F, data, ncols, b):
    R, piv = ref_rref(F, [row + [x] for row, x in zip(data, b)], ncols + 1)
    if ncols in piv:
        return None
    x = [F.zero] * ncols
    for i, pc in enumerate(piv):
        x[pc] = R[i][ncols]
    return x


def ref_intersect(F, n, U, V):
    rows = [u + u for u in U] + [v + [F.zero] * n for v in V]
    R, piv = ref_rref(F, rows, 2 * n)
    meet = [row[n:] for row in R if all(x == F.zero for x in row[:n])]
    return ref_rref(F, meet, n)[0]


def _random_rows(rng, F, rows, cols, rank=None):
    """Sparse random rows over F; with `rank`, integer combinations of `rank` of them."""

    def entry():
        if rng.random() < 0.4:
            return 0
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 7**3)) if F.p == 0 else num

    if rank is None:
        return Mat(F, [[entry() for _ in range(cols)] for _ in range(rows)]).data
    gens = [[entry() for _ in range(cols)] for _ in range(rank)]
    combos = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
    return Mat(F, [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(cols)] for cs in combos]).data


def _shapes(rng, F):
    """(name, rows) for a tall, a wide, a rank-deficient and a zero-padded matrix."""
    tall = _random_rows(rng, F, rng.randint(5, 9), rng.randint(1, 4))
    wide = _random_rows(rng, F, rng.randint(1, 4), rng.randint(5, 9))
    low = _random_rows(rng, F, rng.randint(3, 7), rng.randint(3, 7), rank=rng.randint(1, 2))
    padded = _random_rows(rng, F, rng.randint(2, 5), rng.randint(2, 5))
    cols = len(padded[0])
    padded = [row[:1] + [F.zero] + row[1:] for row in padded]  # a zero column
    padded.insert(rng.randint(0, len(padded)), [F.zero] * (cols + 1))  # a zero row
    return [("tall", tall), ("wide", wide), ("rank-deficient", low), ("zero row and column", padded)]


def _assert_canonical(F, vectors):
    """Over F_p an int in [0, p); over Q an int, or a Fraction that is not integral."""
    for vec in vectors:
        for x in vec:
            if F.p:
                assert type(x) is int and 0 <= x < F.p, (F, x)
            else:
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1), (F, x)


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_row_kernels_match_elementwise_reference(p, coords):
    F = Field(p)
    rng = random.Random(1000 + p)
    for _ in range(10):
        for name, data in _shapes(rng, F):
            n = len(data[0])
            m = Mat(F, data)
            before = [row[:] for row in m.data]
            R, piv = rref(m)
            assert m.data == before, name
            assert (R, piv) == ref_rref(F, data, n), name
            # exactly the nonzero rows, one per pivot
            assert len(R) == len(piv) and all(map(any, R)), name
            _assert_canonical(F, R)
            ker = kernel_basis(m)
            assert ker == ref_null_vectors(F, *ref_rref(F, data, n), n), name
            _assert_canonical(F, ker)
            x = _random_rows(rng, F, 1, n)[0]
            for b in (m.apply(x), _random_rows(rng, F, 1, m.rows)[0]):
                assert solve(m, b) == ref_solve(F, data, n, b), name
            other = _random_rows(rng, F, rng.randint(1, 4), n)
            U, V = Subspace(F, n, data), Subspace(F, n, other)
            assert U.basis == ref_rref(F, data, n)[0]
            inside = Mat.canonical(F, [_random_rows(rng, F, 1, m.rows)[0]]).mul(m).data[0]
            columns = [list(col) for col in zip(*U.basis)] or [[] for _ in range(n)]
            for v in (inside, x):
                got, want = coords(U, v), ref_solve(F, columns, U.dim, v)
                assert got == want, name
                _assert_canonical(F, [got or []])
            assert coords(U, inside) is not None
            meet = U.intersect(V)
            assert meet.basis == ref_intersect(F, n, U.basis, V.basis), name
            _assert_canonical(F, meet.basis)
            Qm, free = quotient_map(F, U)
            assert Qm.data == ref_null_vectors(F, U.basis, U.pivots, n), name
            assert free == [c for c in range(n) if c not in U.pivots]
            _assert_canonical(F, Qm.data)


def test_public_constructor_coerces():
    assert Mat(Field(3), [[5, -1]]).data == [[2, 2]]
    (row,) = Mat(Field(0), [[1, Fraction(2), "3/3"]]).data
    assert row == [1, 2, 1] and all(type(x) is int for x in row)


# -- strict entries over Q from mixed inputs -----------------------------------------


def _mixed_entry(rng):
    """A rational given as an int, an integral Fraction, a proper Fraction or an 'n/d' string."""
    num, den = rng.randint(-6, 6), rng.randint(1, 4)
    return rng.choice([0, 0, num, Fraction(num * den, den), Fraction(num, den), f"{num}/{den}"])


def _mixed_rows(rng, rows, cols):
    """(raw rows, the same values as Fractions): the input and the all-Fraction reference's input."""
    raw = [[_mixed_entry(rng) for _ in range(cols)] for _ in range(rows)]
    return raw, [[Fraction(x) for x in row] for row in raw]


def _ref_complement(Q, n, U, W):
    """The vectors of W, in order, that raise the rank of the span of U and the vectors kept before them."""
    kept = []
    for w in W:
        if len(ref_rref(Q, U + kept + [w], n)[1]) > len(ref_rref(Q, U + kept, n)[1]):
            kept.append(w)
    return kept


def _ref_reduce(basis, pivots, v):
    """v minus v[pc] times the basis row at pc, for every pivot pc of a reduced basis."""
    for row, pc in zip(basis, pivots):
        v = [x - v[pc] * y for x, y in zip(v, row)]
    return v


def test_mixed_rational_inputs_give_strict_entries():
    """Every output is an int or a proper Fraction, equal in value to the all-Fraction reference."""
    Q, rng = Field(0), random.Random(26)

    def same(got, want):
        _assert_canonical(Q, got)
        assert got == want

    def vector(length):
        raw, ref = _mixed_rows(rng, 1, length)
        return [Q.of(x) for x in raw[0]], ref[0]

    for case in range(60):
        rows, n, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        raw, ref = _mixed_rows(rng, rows, n)
        same([[Q.of(x) for x in row] for row in raw], ref)
        m = Mat(Q, raw)
        same(m.data, ref)
        raw2, ref2 = _mixed_rows(rng, rows, n)
        m2 = Mat(Q, raw2)
        same(m.add(m2).data, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(ref, ref2)])
        c = _mixed_entry(rng)
        same(m.scale(c).data, [[Fraction(c) * a for a in row] for row in ref])
        raw3, ref3 = _mixed_rows(rng, n, k)
        same(m.mul(Mat(Q, raw3)).data, [[sum(a * b for a, b in zip(row, col)) for col in zip(*ref3)] for row in ref])
        x, x_ref = vector(n)
        same([m.apply(x)], [[sum(a * b for a, b in zip(row, x_ref)) for row in ref]])

        R, piv = rref(m)
        R_ref, piv_ref = ref_rref(Q, ref, n)
        same(R, R_ref)
        assert piv == piv_ref
        same(kernel_basis(m), ref_null_vectors(Q, R_ref, piv_ref, n))
        inside = m.apply(x), [sum(a * e for a, e in zip(row, x_ref)) for row in ref]
        for b, b_ref in (vector(rows), inside):
            got, want = solve(m, b), ref_solve(Q, ref, n, b_ref)
            assert (got is None) == (want is None), case
            if got is not None:
                same([got], [want])

        U, V = Subspace(Q, n, m.data), Subspace(Q, n, m2.data)
        U_ref, V_ref = ref_rref(Q, ref, n)[0], ref_rref(Q, ref2, n)[0]
        same(U.basis, U_ref)
        W = U.sum(V)
        same(W.basis, ref_rref(Q, U_ref + V_ref, n)[0])
        same(U.intersect(V).basis, ref_intersect(Q, n, U_ref, V_ref))
        same(U.complement_in(W), _ref_complement(Q, n, U_ref, ref_rref(Q, U_ref + V_ref, n)[0]))
        v, v_ref = vector(n)
        same([U.reduce(v)], [_ref_reduce(U_ref, U.pivots, v_ref)])
        Qm, free = quotient_map(Q, U)
        same(Qm.data, ref_null_vectors(Q, U_ref, U.pivots, n))
        assert free == [c for c in range(n) if c not in U.pivots]


@pytest.mark.parametrize("p", [0, 3])
def test_canonical_entries_on_auslander(monkeypatch, auslander, p):
    """Every trusted Mat holds canonical entries, and so does what the layers return."""
    wrap = Mat.canonical.__func__
    built = []

    def checked(cls, field, data, cols=0):
        _assert_canonical(field, data)
        built.append(1)
        return wrap(cls, field, data, cols)

    monkeypatch.setattr(Mat, "canonical", classmethod(checked))
    sys = auslander(3, p)
    F = sys.algebra.field
    nonzero = 0
    for lam in sys.labels:
        assert rigidity_pipeline(sys, lam, "both")["consistent"]
        T = sys.tilting(lam)
        homs = hom_space(T, T)
        _assert_canonical(F, [flatten(g) for g in homs])
        flat = Mat(F, [flatten(g) for g in homs])
        _assert_canonical(F, rref(flat)[0] + kernel_basis(flat))
        for mu in sys.labels:
            lift = positioned_lifting(sys, mu, T)
            _assert_canonical(F, lift.hom.basis + [flatten(g) for g in hom_space(sys.projective(mu), T)])
            for fam in radical_series(T):
                _assert_canonical(F, [row for space in fam.spaces.values() for row in space.basis])
            for shift in range(-2, 4):
                _assert_canonical(F, lift.deep(shift).basis + lift.boundary(shift).basis)
                nonzero += lift.deep(shift).dim
    assert built and nonzero


# -- growth shortcuts against from-scratch elimination ------------------------------


def _sum_from_scratch(U, V):
    """U + V as one elimination of both bases, with no operand returned."""
    return Subspace(U.field, U.ambient, U.basis + V.basis)


def _intersect_from_scratch(U, V):
    """Zassenhaus on both bases, whatever the operands."""
    F, n = U.field, U.ambient
    rows = [u + u for u in U.basis] + [v + [F.zero] * n for v in V.basis]
    if not rows:
        return Subspace(F, n)
    return Subspace(F, n, [row[n:] for row in rref(Mat.canonical(F, rows))[0] if not any(row[:n])])


def _operand_pairs(rng, F):
    """(U, V) pairs in K^n with zero, whole, equal, nested and random operands."""
    n = rng.randint(1, 6)
    zero, full = Subspace(F, n), Subspace.full(F, n)
    U = Subspace(F, n, _random_rows(rng, F, rng.randint(1, n), n, rank=rng.randint(1, n)))
    combos = Mat.canonical(F, _random_rows(rng, F, rng.randint(1, 3), U.dim), U.dim)
    inside = Subspace(F, n, combos.mul(Mat.canonical(F, U.basis, n)).data)
    other = Subspace(F, n, _random_rows(rng, F, rng.randint(1, n), n))
    others = [zero, full, U, Subspace(F, n, U.basis), inside, other]
    return [(a, b) for a in (zero, full, U, other) for b in others]


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_growth_matches_from_scratch_elimination(p):
    F, rng = Field(p), random.Random(2400 + p)
    cases = 0
    for _ in range(6):
        for U, V in _operand_pairs(rng, F):
            for got, want in ((U.sum(V), _sum_from_scratch(U, V)), (U.intersect(V), _intersect_from_scratch(U, V))):
                assert (got.ambient, got.basis, got.pivots) == (want.ambient, want.basis, want.pivots), (U, V)
                assert got == want and hash(got) == hash(want)
                _assert_canonical(F, got.basis)
            inside = all(U.contains(v) for v in V.basis)
            assert U.contains_space(V) == inside, (U, V)
            # the greedy complement of each operand in the sum, against rank-raising reference elimination
            W = U.sum(V)
            for X in (U, V):
                comp = X.complement_in(W)
                assert comp == _ref_complement(F, X.ambient, X.basis, W.basis), (X, W)
                _assert_canonical(F, comp)
            # an operand that already is the answer comes back itself
            n = U.ambient
            assert U.sum(Subspace(F, n)) is U
            if inside or not U.basis:
                assert U.sum(V) is (U if inside else V), (U, V)
            if not U.basis or V.dim == n:
                assert U.intersect(V) is U, (U, V)
            elif not V.basis or U.dim == n:
                assert U.intersect(V) is V, (U, V)
            cases += 1
    assert cases == 144
