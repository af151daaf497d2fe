"""Exact dense linear algebra over the rationals and prime fields.

Everything downstream (path algebras, quiver representations, filtration
machinery) reduces to row operations on small exact matrices, so this module
deliberately stays simple: matrices are lists of rows, entries are
`fractions.Fraction` in characteristic 0 and plain ints in [0, p) over F_p,
and the canonical form of a subspace is the reduced row-echelon basis of its
row span.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Exact ground field: characteristic 0 means Q, p means F_p (p prime)."""

    def __init__(self, characteristic: int):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError(f"characteristic must be 0 or prime, got {characteristic}")
        self.characteristic = characteristic

    @property
    def p(self) -> int:
        return self.characteristic

    def __repr__(self) -> str:
        return "Q" if self.p == 0 else f"F{self.p}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    # -- element constructors / arithmetic ---------------------------------

    def of(self, x) -> "Elt":
        """Coerce an int, Fraction, or 'n[/d]' string to a canonical element."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.p == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"{x} has no image in F_{self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    @property
    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.p == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def elements(self) -> List:
        """All field elements; only available over a finite field."""
        if self.p == 0:
            raise ValueError("cannot enumerate the rationals")
        return list(range(self.p))

    def fmt(self, a) -> str:
        if self.p == 0:
            f = Fraction(a)
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        return str(a)


# A field element is a Fraction or an int; kept opaque behind Field methods.
Elt = object
Vec = List


class Mat:
    """Dense exact matrix, row-major, entries canonical for the field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: Sequence[Sequence]):
        self.field = field
        self.data = [[field.of(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, rows, cols
        m.data = [[field.zero] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        m = cls.zero(field, n, n)
        for i in range(n):
            m.data[i][i] = field.one
        return m

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence]) -> "Mat":
        if not cols:
            return cls.zero(field, 0, 0)
        return cls(field, [[col[i] for col in cols] for i in range(len(cols[0]))])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.data == self.data
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.data)
        return f"Mat({self.field!r}, {self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def transpose(self) -> "Mat":
        m = Mat.zero(self.field, self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                m.data[j][i] = self.data[i][j]
        return m

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        F = self.field
        out = Mat.zero(F, self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            for k in range(self.cols):
                a = row[k]
                if a == F.zero:
                    continue
                ok = other.data[k]
                oi = out.data[i]
                for j in range(other.cols):
                    oi[j] = F.add(oi[j], F.mul(a, ok[j]))
        return out

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        F = self.field
        if self.rows == 0:
            return Mat.zero(F, self.rows, self.cols)
        return Mat(F, [[F.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.scale(self.field.neg(self.field.one)))

    def scale(self, c) -> "Mat":
        F = self.field
        c = F.of(c)
        if self.rows == 0:
            return Mat.zero(F, self.rows, self.cols)
        return Mat(F, [[F.mul(c, a) for a in row] for row in self.data])

    def apply(self, v: Vec) -> Vec:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        F = self.field
        out = []
        for row in self.data:
            s = F.zero
            for a, x in zip(row, v):
                if a != F.zero and x != F.zero:
                    s = F.add(s, F.mul(a, x))
            out.append(s)
        return out

    def col(self, j: int) -> Vec:
        return [self.data[i][j] for i in range(self.rows)]


def rref(m: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row-echelon form and pivot columns (Gauss-Jordan, exact)."""
    F = m.field
    out = [row[:] for row in m.data]
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if out[i][c] != F.zero), None)
        if pr is None:
            continue
        out[r], out[pr] = out[pr], out[r]
        inv = F.inv(out[r][c])
        out[r] = [F.mul(inv, x) for x in out[r]]
        for i in range(m.rows):
            if i != r and out[i][c] != F.zero:
                f = out[i][c]
                out[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(out[i], out[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Mat(F, out), pivots


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> List[Vec]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column."""
    F = m.field
    R, pivots = rref(m)
    piv_set = set(pivots)
    free = [c for c in range(m.cols) if c not in piv_set]
    basis = []
    for fc in free:
        v = [F.zero] * m.cols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R.data[i][fc])
        basis.append(v)
    return basis


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """One solution of m x = b (free variables set to 0), or None."""
    F = m.field
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    if m.rows == 0:
        return [F.zero] * m.cols
    aug = Mat(F, [row + [F.of(bv)] for row, bv in zip(m.data, b)])
    R, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [F.zero] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = R.data[i][m.cols]
    return x


# -- subspaces ---------------------------------------------------------------
#
# A subspace of K^n is stored as the rref of a spanning set, one basis vector
# per row; equality of subspaces is then literal equality of matrices.


class Subspace:
    """Canonical (rref-basis) subspace of K^n."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, vectors: Iterable[Vec] = ()):
        self.field = field
        self.ambient = ambient
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError(f"vector length {len(v)} != ambient {ambient}")
        if vecs:
            R, piv = rref(Mat(field, vecs))
            self.basis = [R.data[i] for i in range(len(piv))]
            self.pivots = piv
        else:
            self.basis, self.pivots = [], []

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, Mat.identity(field, ambient).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(tuple(map(str, row)) for row in self.basis)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient})"

    def reduce(self, v: Vec) -> Vec:
        """Residue of v after eliminating pivot coordinates; 0 iff v in U."""
        F = self.field
        v = [F.of(x) for x in v]
        for row, pc in zip(self.basis, self.pivots):
            c = v[pc]
            if c != F.zero:
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, v: Vec) -> bool:
        z = self.field.zero
        return all(x == z for x in self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coords(self, v: Vec) -> Optional[Vec]:
        """Coordinates of v in this basis, or None if v is outside."""
        if not self.basis:
            return [] if all(x == self.field.zero for x in v) else None
        return solve(Mat.from_cols(self.field, self.basis), v)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.field, self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref [[u u],[v 0]]; zero left blocks carry U cap V."""
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        F, n = self.field, self.ambient
        rows = [u + u for u in self.basis] + [v + [F.zero] * n for v in other.basis]
        if not rows:
            return Subspace(F, n)
        R, piv = rref(Mat(F, rows))
        out = []
        for i in range(len(piv)):
            left = R.data[i][:n]
            if all(x == F.zero for x in left):
                out.append(R.data[i][n:])
        return Subspace(F, n, out)

    def complement_in(self, other: "Subspace") -> List[Vec]:
        """Vectors of `other` extending this basis to a basis of `other`.

        Requires self <= other; the chosen complement is the deterministic
        pivot-greedy one, so a fixed input always yields the same answer.
        """
        if not other.contains_space(self):
            raise ValueError("complement_in requires containment")
        comp = []
        cur = self
        for v in other.basis:
            if not cur.contains(v):
                comp.append(v)
                cur = cur.sum(Subspace(self.field, self.ambient, [v]))
        return comp


def quotient_map(field: Field, sub: Subspace) -> Tuple[Mat, List[int]]:
    """Matrix Q of K^n -> K^(n-d) with kernel exactly `sub`.

    Coordinates are the non-pivot coordinates of the residue after reduction
    by the subspace; the returned column list records which ambient
    coordinates survived (the section sends unit vectors back to them).
    """
    n = sub.ambient
    free = [c for c in range(n) if c not in set(sub.pivots)]
    rows = []
    for fc in free:
        row = [field.zero] * n
        row[fc] = field.one
        # subtract the fc-column of each rref basis row times the pivot coord
        for brow, pc in zip(sub.basis, sub.pivots):
            row[pc] = field.sub(row[pc], brow[fc])
        rows.append(row)
    return (Mat(field, rows) if rows else Mat.zero(field, 0, n)), free
