import random
from fractions import Fraction

import pytest

from tiltrig.linalg import Field, Mat, Subspace, kernel_basis, quotient_map, rank, rref, solve
from tiltrig.modules import hom_space, radical_series
from tiltrig.rigidity import positioned_lifting, rigidity_pipeline


def flatten(f) -> list:
    """The entries of a morphism's vertex matrices, vertex by vertex, row by row."""
    return [x for v in f.source.vertices for row in f.mats[v].data for x in row]


def test_field_validation():
    Field(0)
    Field(7)
    with pytest.raises(ValueError):
        Field(6)


def test_field_coercion():
    F5 = Field(5)
    assert F5.of("2/3") == (2 * pow(3, -1, 5)) % 5
    Q = Field(0)
    assert Q.fmt(Q.of("4/6")) == "2/3"


def test_rref_zero_and_identity():
    Q = Field(0)
    z = Mat.zero(Q, 2, 2)
    R, piv = rref(z)
    assert R == z and piv == []
    i3 = Mat.identity(Q, 3)
    R, piv = rref(i3)
    assert R == i3 and piv == [0, 1, 2]


def test_rref_f2_hand_case():
    F2 = Field(2)
    R, piv = rref(Mat(F2, [[1, 1], [1, 1]]))
    assert R.data == [[1, 1], [0, 0]]
    assert piv == [0]


def test_rank_nullity_and_solve():
    Q = Field(0)
    m = Mat(Q, [[1, 2, 3], [2, 4, 6]])
    assert rank(m) == 1
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


def test_coords_and_complement():
    Q = Field(0)
    U = Subspace(Q, 3, [[1, 0, 1]])
    W = Subspace(Q, 3, [[1, 0, 1], [0, 1, 0]])
    assert U.coords([2, 0, 2]) == [Q.of(2)]
    comp = U.complement_in(W)
    assert len(comp) == 1 and not U.contains(comp[0])


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
        R2, piv2 = rref(R)
        assert R2 == R and piv2 == piv


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
    return (lambda a, b: a - b), (lambda a, b: a * b), (lambda a: 1 / a)


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
    return out, pivots


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


def ref_span(F, vectors, n):
    R, piv = ref_rref(F, vectors, n)
    return R[: len(piv)], piv


def ref_intersect(F, n, U, V):
    rows = [u + u for u in U] + [v + [F.zero] * n for v in V]
    R, piv = ref_rref(F, rows, 2 * n)
    meet = [R[i][n:] for i in range(len(piv)) if all(x == F.zero for x in R[i][:n])]
    return ref_span(F, meet, n)[0]


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
    for vec in vectors:
        for x in vec:
            if F.p:
                assert type(x) is int and 0 <= x < F.p, (F, x)
            else:
                assert type(x) is Fraction, (F, x)


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7])
def test_row_kernels_match_elementwise_reference(p):
    F = Field(p)
    rng = random.Random(1000 + p)
    for _ in range(10):
        for name, data in _shapes(rng, F):
            n = len(data[0])
            m = Mat(F, data)
            before = [row[:] for row in m.data]
            R, piv = rref(m)
            assert m.data == before, name
            assert (R.data, piv) == ref_rref(F, data, n), name
            assert (R.rows, R.cols) == (m.rows, m.cols)
            _assert_canonical(F, R.data)
            ker = kernel_basis(m)
            assert ker == ref_null_vectors(F, *ref_rref(F, data, n), n), name
            _assert_canonical(F, ker)
            x = _random_rows(rng, F, 1, n)[0]
            for b in (m.apply(x), _random_rows(rng, F, 1, m.rows)[0]):
                assert solve(m, b) == ref_solve(F, data, n, b), name
            other = _random_rows(rng, F, rng.randint(1, 4), n)
            U, V = Subspace(F, n, data), Subspace(F, n, other)
            assert U.basis == ref_span(F, data, n)[0]
            inside = Mat.canonical(F, [_random_rows(rng, F, 1, m.rows)[0]]).mul(m).data[0]
            columns = [list(col) for col in zip(*U.basis)] or [[] for _ in range(n)]
            for v in (inside, x):
                got, want = U.coords(v), ref_solve(F, columns, U.dim, v)
                assert got == want, name
                assert [type(c) for c in got or []] == [type(c) for c in want or []], name
            assert U.coords(inside) is not None
            meet = U.intersect(V)
            assert meet.basis == ref_intersect(F, n, U.basis, V.basis), name
            _assert_canonical(F, meet.basis)
            Qm, free = quotient_map(F, U)
            assert Qm.data == ref_null_vectors(F, U.basis, U.pivots, n), name
            assert free == [c for c in range(n) if c not in U.pivots]
            _assert_canonical(F, Qm.data)


def test_public_constructor_coerces():
    assert Mat(Field(3), [[5, -1]]).data == [[2, 2]]
    (x,), = Mat(Field(0), [[1]]).data
    assert type(x) is Fraction and x == 1


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
        _assert_canonical(F, rref(flat)[0].data + kernel_basis(flat))
        for mu in sys.labels:
            lift = positioned_lifting(sys, mu, T)
            _assert_canonical(F, lift.hom.basis + [flatten(g) for g in hom_space(sys.projective(mu), T)])
            for fam in radical_series(T):
                _assert_canonical(F, [row for space in fam.spaces.values() for row in space.basis])
            for shift in range(-2, 4):
                _assert_canonical(F, lift.deep(shift).basis + lift.boundary(shift).basis)
                nonzero += lift.deep(shift).dim
    assert built and nonzero
