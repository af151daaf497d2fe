"""Exact dense linear algebra over the rationals and prime fields.

Everything downstream (path algebras, quiver representations, filtration
machinery) reduces to row operations on small exact matrices, so this module
deliberately stays simple: matrices are lists of rows of canonical entries,
and the canonical form of a subspace is the reduced row-echelon basis of its
row span.  No floating point anywhere.

Each field element has exactly one representation.  Over F_p it is an int
in [0, p).  Over Q it is an int when it is integral and a
`fractions.Fraction` with denominator > 1 otherwise, so module matrices,
which are almost all 0 and +-1, do their arithmetic on ints.  0 and 1 are
the ints 0 and 1 over every field.  The only true division is by a
`Fraction`, as int / int would give a float.

Coercion happens once, at the public boundary: `Field.of` and
`Mat(field, rows)` turn ints, Fractions and 'n/d' strings into canonical
entries.  Everything computed here is canonical already and is wrapped by
`Mat.canonical`, which neither copies nor coerces; other modules use it for
rows they build from canonical entries.

Arithmetic runs on whole rows, with one row path for both field kinds:
`_canonical` then reduces the rows mod p, or over Q turns integral Fractions
back into ints, which is needed only where a Fraction entered.  `rref` is
the one elimination routine: it returns the nonzero rows of the reduced
row-echelon form and their pivots, and has two row kernels.  Over F_p,
`_rref_mod_p` updates each row with one list comprehension and one `% p` per
entry.  Over Q, `_rref_rational` clears the denominators of each row and
eliminates fraction-free on integer rows, by cross-multiplication as in
Bareiss (Math. Comp. 1968) but dividing every new row by its content rather
than by the previous pivot; it builds Fractions only when it normalises the
pivot rows at the end, and only for entries its pivot does not divide.  The
reduced row-echelon form is unique, so both give what element-wise
Gauss-Jordan gives, entry for entry.

Each echelon form is eliminated once: `Subspace.echelon` adopts rows that
are reduced already, and `complement_in` grows a copy of its echelon basis
by `extend_echelon`.  Subspaces grow incrementally.  `Subspace.sum` and
`Subspace.intersect` return an operand, not a copy, whenever it already is
the answer (a zero or whole operand, or a sum that adds nothing), and a sum
eliminates only the residues of the other basis.  Results are therefore
shared: nothing may change a `Subspace`'s basis or pivots after it is built.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
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


def _rational(x):
    """An element of Q in canonical form: an integral Fraction as its int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _canonical(p: int, rows: List[list]) -> List[list]:
    """Rows of exact ring arithmetic on canonical entries, made canonical.

    Over F_p every entry is reduced mod p.  Over Q an int result is
    canonical already, and an integral Fraction can only arise where a
    Fraction entered, so rows are rewritten only when the results hold one.
    """
    if p:
        return [[x % p for x in row] for row in rows]
    if Fraction not in set(map(type, chain.from_iterable(rows))):
        return rows
    return [list(map(_rational, row)) for row in rows]


class Field:
    """Exact ground field: characteristic 0 means Q, p means F_p (p prime)."""

    zero = 0
    one = 1

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
        p = self.p
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator != 1:
                if not p:
                    return x
                if x.denominator % p == 0:
                    raise ZeroDivisionError(f"{x} has no image in F_{p}")
                return x.numerator * pow(x.denominator, -1, p) % p
            x = x.numerator
        return x % p if p else x

    def add(self, a, b):
        return _rational(a + b) if self.p == 0 else (a + b) % self.p

    def mul(self, a, b):
        return _rational(a * b) if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def elements(self) -> List:
        """All field elements; only available over a finite field."""
        if self.p == 0:
            raise ValueError("cannot enumerate the rationals")
        return list(range(self.p))


# A field element is an int or, over Q, a Fraction; kept opaque behind Field methods.
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
    def canonical(cls, field: Field, data: List[list], cols: int = 0) -> "Mat":
        """Wrap rows of canonical entries as they are: no copy, no coercion.

        `cols` gives the width only when there are no rows.
        """
        m = cls.__new__(cls)
        m.field, m.data, m.rows = field, data, len(data)
        m.cols = len(data[0]) if data else cols
        return m

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls.canonical(field, [[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        m = cls.zero(field, n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence]) -> "Mat":
        """The matrix whose columns are the given canonical vectors."""
        if not cols:
            return cls.zero(field, 0, 0)
        return cls.canonical(field, [list(row) for row in zip(*cols)], len(cols))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.data == self.data
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, row)) for row in self.data)
        return f"Mat({self.field!r}, {self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def transpose(self) -> "Mat":
        return Mat.from_cols(self.field, self.data) if self.rows else Mat.zero(self.field, self.cols, 0)

    def mul(self, other: "Mat") -> "Mat":
        """Each row of the product is a combination of the rows of `other`."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        n = other.cols
        out = []
        for row in self.data:
            acc = None
            for a, orow in zip(row, other.data):
                if a:
                    acc = [a * y for y in orow] if acc is None else [x + a * y for x, y in zip(acc, orow)]
            out.append([0] * n if acc is None else acc)
        return Mat.canonical(self.field, _canonical(self.field.p, out), n)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        data = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        return Mat.canonical(self.field, _canonical(self.field.p, data), self.cols)

    def scale(self, c) -> "Mat":
        c = self.field.of(c)
        data = [[c * a for a in row] for row in self.data]
        return Mat.canonical(self.field, _canonical(self.field.p, data), self.cols)

    def apply(self, v: Vec) -> Vec:
        """Matrix times a column vector of canonical entries."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return _canonical(self.field.p, [[sum(map(mul, row, v)) for row in self.data]])[0]


# -- row kernels -------------------------------------------------------------
#
# Both take rows of canonical entries (over F_p, ints not reduced mod p too), leave the
# input untouched and return the nonzero rows of the reduced row-echelon form
# with their pivot columns.


def _rref_mod_p(data: Sequence[Sequence], ncols: int, p: int) -> Tuple[List[list], List[int]]:
    """Gauss-Jordan over F_p, one list comprehension per row update."""
    rest = [row for row in ([x % p for x in r] for r in data) if any(row)]
    done: List[list] = []
    pivots: List[int] = []
    for c in range(ncols):
        if not rest:
            break
        k = next((k for k, row in enumerate(rest) if row[c]), None)
        if k is None:
            continue
        prow = rest.pop(k)
        if prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = [x * inv % p for x in prow]
        for rows in (done, rest):
            for i, row in enumerate(rows):
                f = row[c]
                if f:
                    row = rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
                    if not any(row):  # only an updated row can become zero, and never a pivot row
                        rows[i] = None
        rest = [row for row in rest if row is not None]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def _primitive(row: List[int]) -> List[int]:
    """An integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _rref_rational(data: Sequence[Sequence], ncols: int) -> Tuple[List[list], List[int]]:
    """Fraction-free Gauss-Jordan over Q on primitive integer rows."""
    rest = []
    for row in data:
        if Fraction in set(map(type, row)):
            den = lcm(*[x.denominator for x in row])
            row = [x.numerator * (den // x.denominator) for x in row]
        irow = _primitive(list(row))
        if any(irow):
            rest.append(irow)
    done: List[list] = []
    pivots: List[int] = []
    for c in range(ncols):
        if not rest:
            break
        k = next((k for k, row in enumerate(rest) if row[c]), None)
        if k is None:
            continue
        prow = rest.pop(k)
        a = prow[c]
        for rows in (done, rest):
            for i, row in enumerate(rows):
                b = row[c]
                if b:
                    g = gcd(a, b)
                    s, t = a // g, b // g
                    row = rows[i] = _primitive([s * x - t * y for x, y in zip(row, prow)])
                    if not any(row):  # only an updated row can become zero, and never a pivot row
                        rows[i] = None
        rest = [row for row in rest if row is not None]
        done.append(prow)
        pivots.append(c)
    for i, (row, c) in enumerate(zip(done, pivots)):
        a = row[c]
        if a != 1:
            done[i] = [Fraction(x, a) if x % a else x // a for x in row]
    return done, pivots


def rref(m: Mat) -> Tuple[List[list], List[int]]:
    """The nonzero rows of the reduced row-echelon form, and their pivot columns."""
    p = m.field.p
    return _rref_mod_p(m.data, m.cols, p) if p else _rref_rational(m.data, m.cols)


def _free_vectors(F: Field, rows: Sequence[Sequence], pivots: List[int], n: int) -> Tuple[List[Vec], List[int]]:
    """e_fc - sum_i rows[i][fc] e_pivots[i] for every non-pivot column fc of an rref.

    These span the right kernel of the rref, and are the rows of the
    quotient map by the row span.
    """
    p, piv_set = F.p, set(pivots)
    free = [c for c in range(n) if c not in piv_set]
    vectors = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            x = row[fc]
            if x:
                v[pc] = -x % p if p else -x
        vectors.append(v)
    return vectors, free


def kernel_basis(m: Mat) -> List[Vec]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column."""
    return _free_vectors(m.field, *rref(m), m.cols)[0]


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """One solution of m x = b (free variables set to 0), or None."""
    F = m.field
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    if m.rows == 0:
        return [0] * m.cols
    aug = Mat.canonical(F, [row + [F.of(bv)] for row, bv in zip(m.data, b)])
    rows, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for row, pc in zip(rows, pivots):
        x[pc] = row[m.cols]
    return x


def extend_echelon(field: Field, rows: List[Vec], pivots: List[int], v: Vec) -> Optional[Vec]:
    """Grow an echelon spanning set by v in place; the row added, or None.

    `rows` are in the order they were added, each 1 at its pivot and 0 at
    the pivots of the rows before it, so reducing v by them in that order
    leaves a residue that is 0 exactly when v is in their span.  A nonzero
    residue is scaled to 1 at its first nonzero entry and appended.
    """
    p = field.p
    for row, pc in zip(rows, pivots):
        c = v[pc] % p if p else v[pc]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    (v,) = _canonical(p, [v])
    pc = next((k for k, x in enumerate(v) if x), None)
    if pc is None:
        return None
    if v[pc] != 1:
        inv = pow(v[pc], -1, p) if p else 1 / Fraction(v[pc])
        (v,) = _canonical(p, [[x * inv for x in v]])
    rows.append(v)
    pivots.append(pc)
    return v


# -- subspaces ---------------------------------------------------------------
#
# A subspace of K^n is stored as the rref of a spanning set, one basis vector
# per row; equality of subspaces is then literal equality of matrices.


class Subspace:
    """Canonical (rref-basis) subspace of K^n, spanned by canonical vectors.

    A subspace never changes after it is built: `sum` and `intersect` may
    return one of their operands, so its basis may be shared.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, vectors: Iterable[Vec] = ()):
        self.field = field
        self.ambient = ambient
        vecs = list(vectors)
        for v in vecs:
            if len(v) != ambient:
                raise ValueError(f"vector length {len(v)} != ambient {ambient}")
        self.basis, self.pivots = rref(Mat.canonical(field, vecs, ambient)) if vecs else ([], [])

    @classmethod
    def echelon(cls, field: Field, ambient: int, rows: List[Vec], pivots: List[int]) -> "Subspace":
        """Adopt rows already in reduced row-echelon form, with their pivots: no elimination."""
        sub = cls.__new__(cls)
        sub.field, sub.ambient, sub.basis, sub.pivots = field, ambient, rows, pivots
        return sub

    @classmethod
    def full(cls, field: Field, ambient: int) -> "Subspace":
        """K^n, whose rref basis is the identity."""
        return cls.echelon(field, ambient, Mat.identity(field, ambient).data, list(range(ambient)))

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
        # entries are canonical for one field, so equal bases hash equal
        return hash((self.ambient, tuple(map(tuple, self.basis))))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of K^{self.ambient})"

    def reduce(self, v: Vec) -> Vec:
        """Residue of v after eliminating pivot coordinates; 0 iff v in U.

        The basis is reduced, so the coefficient of each basis row is the
        entry of v itself at that row's pivot.
        """
        out = v
        for row, pc in zip(self.basis, self.pivots):
            c = v[pc]
            if c:
                out = [x - c * y for x, y in zip(out, row)]
        return list(v) if out is v else _canonical(self.field.p, [out])[0]

    def contains(self, v: Vec) -> bool:
        return not any(self.reduce(v))

    def contains_space(self, other: "Subspace") -> bool:
        return other.dim <= self.dim and all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        """U + V; an operand itself when it already is the sum (`self` when both are).

        Otherwise V's basis is reduced against U's, and U's basis is
        eliminated together with the nonzero residues only.
        """
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if not other.basis or self.dim == self.ambient:
            return self
        if not self.basis or other.dim == other.ambient:
            return other
        residues = [r for r in map(self.reduce, other.basis) if any(r)]
        if not residues:
            return self
        return Subspace(self.field, self.ambient, self.basis + residues)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap V; an operand itself when one is zero or the whole space.

        Otherwise Zassenhaus: rref [[u u],[v 0]]; its last rows, pivoted at
        or after n, have zero left blocks and right blocks a reduced basis of U cap V.
        """
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if not self.basis or other.dim == other.ambient:
            return self
        if not other.basis or self.dim == self.ambient:
            return other
        F, n = self.field, self.ambient
        rows, piv = rref(Mat.canonical(F, [u + u for u in self.basis] + [v + [0] * n for v in other.basis]))
        k = bisect_left(piv, n)
        return Subspace.echelon(F, n, [row[n:] for row in rows[k:]], [pc - n for pc in piv[k:]])

    def complement_in(self, other: "Subspace") -> List[Vec]:
        """Vectors of `other` extending this basis to a basis of `other`.

        Requires self <= other.  The complement is the greedy one: each basis
        vector of `other`, in order, that is not in the span of this basis and
        the vectors before it, found by growing a copy of this echelon basis.
        """
        if not other.contains_space(self):
            raise ValueError("complement_in requires containment")
        rows, pivots = list(self.basis), list(self.pivots)
        return [w for w in other.basis if extend_echelon(self.field, rows, pivots, w) is not None]


def quotient_map(field: Field, sub: Subspace) -> Tuple[Mat, List[int]]:
    """Matrix Q of K^n -> K^(n-d) with kernel exactly `sub`.

    Coordinates are the non-pivot coordinates of the residue after reduction
    by the subspace; the returned column list records which ambient
    coordinates survived (the section sends unit vectors back to them).
    """
    rows, free = _free_vectors(field, sub.basis, sub.pivots, sub.ambient)
    return Mat.canonical(field, rows, sub.ambient), free
