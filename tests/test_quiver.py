from importlib import resources

import pytest

from tiltrig.linalg import Field, Mat, rref
from tiltrig import quiver as quiver_module
from tiltrig.quiver import AlgParseError, Quiver, QuiverError, Relation, build_algebra, parse_alg_text


SL2 = """
field 0
vertex 1 2
order 1 < 2
arrow a 1 2
arrow b 2 1
relation 1*b.a
duality a=b
"""


def test_sl2_block_basis():
    A = parse_alg_text(SL2)
    assert A.dim == 5
    assert set(A.basis) == {("1",), ("2",), ("a",), ("b",), ("a", "b")}
    assert [len(l) for l in A.radical_powers()] == [5, 3, 1, 0]


def test_single_vertex_field_case():
    A = parse_alg_text("field 0\nvertex 1\n")
    assert A.dim == 1
    assert [len(l) for l in A.radical_powers()] == [1, 0]


def test_loop_algebra():
    A = parse_alg_text("field 0\nvertex 1\narrow x 1 1\nrelation 1*x.x\n")
    assert A.dim == 2
    assert [len(l) for l in A.radical_powers()] == [2, 1, 0]


def test_semisimple_no_arrows():
    A = parse_alg_text("field 0\nvertex 1 2 3\norder 1 < 2\norder 2 < 3\n")
    assert A.dim == 3
    assert [len(l) for l in A.radical_powers()] == [3, 0]


def test_order_line_forms():
    # no `order` line: no order is declared; a bare one declares an order with no covers
    assert parse_alg_text("field 0\nvertex 1 2\n").order_covers is None
    assert parse_alg_text("field 0\nvertex 1 2\norder\n").order_covers == []
    assert parse_alg_text("field 0\nvertex 1 2\norder\norder 1 < 2\n").order_covers == [("1", "2")]
    for line in ("order 1 <", "order 1 > 2", "order 1 < 2 < 3"):
        with pytest.raises(AlgParseError, match="^line 3: expected 'order <a> < <b>'"):
            parse_alg_text(f"field 0\nvertex 1 2\n{line}\n")


def test_idempotents_and_unit():
    A = parse_alg_text(SL2)
    F = A.field
    for u in A.quiver.vertices:
        for v in A.quiver.vertices:
            prod = A.mult((u,), (v,))
            assert prod == ({(u,): F.one} if u == v else {})
    # sum of idempotents acts as identity on every basis path
    for p in A.basis:
        total = {}
        for v in A.quiver.vertices:
            for q, c in A.mult((v,), p).items():
                total[q] = total.get(q, F.zero) + c
        assert total == {p: F.one}


def test_radical_power_multiplicativity():
    A = parse_alg_text(SL2)
    for i in range(4):
        for j in range(4):
            for p in A.radical_power_basis(i):
                for q in A.radical_power_basis(j):
                    for r in A.mult(p, q):
                        assert A.path_length(r) >= i + j


def mult_elements(A, x, y):
    """Product of two combinations of basis paths, through `A.mult`."""
    F = A.field
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            for r, c in A.mult(p, q).items():
                v = F.add(out.get(r, F.zero), F.mul(F.mul(a, b), c))
                if v == F.zero:
                    out.pop(r, None)
                else:
                    out[r] = v
    return out


def test_duality_antimap():
    A = parse_alg_text(SL2)
    # squares to the identity on basis paths
    for p in A.basis:
        assert A.dual_path(A.dual_path(p)) == p
    # reverses multiplication on path pairs
    F = A.field
    for p in A.basis:
        for q in A.basis:
            lhs = {A.dual_path(r): c for r, c in A.mult(p, q).items()}
            rhs = mult_elements(A, {A.dual_path(q): F.one}, {A.dual_path(p): F.one})
            assert lhs == rhs


def test_duality_must_reverse_and_cover():
    # b.a and a.b make the algebra finite (dim 4), so the duality check is reached
    text = "field 0\nvertex 1 2\narrow a 1 2\narrow b 2 1\nrelation b.a\nrelation a.b\nduality a=a\n"
    with pytest.raises((QuiverError, AlgParseError), match="does not reverse direction"):
        parse_alg_text(text)


def test_duality_built_in_code_names_the_arrows_it_leaves_out():
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "1")])
    relations = [Relation(quiver, [(1, tuple(p))]) for p in (["b", "a"], ["c", "a"], ["a", "b"], ["a", "c"])]
    with pytest.raises(QuiverError, match="duality must pair every arrow") as caught:
        build_algebra(quiver, relations, Field(0), duality_pairs={"a": "b", "b": "a"})
    assert caught.value.arrows == ["c"]


def test_non_admissible_relation_rejected():
    with pytest.raises(AlgParseError):
        parse_alg_text("field 0\nvertex 1 2\narrow a 1 2\nrelation 1*a\n")


def test_inhomogeneous_relation_rejected():
    text = "field 0\nvertex 1\narrow x 1 1\nrelation 1*x.x + 1*x.x.x\n"
    with pytest.raises(AlgParseError):
        parse_alg_text(text)


def test_dim_cap_guards_infinite_algebra():
    # K[x, y]: the relation involves both loops, so only dim_cap stops it,
    # and the longest surviving words repeat both
    text = "field 0\nvertex 1\narrow x 1 1\narrow y 1 1\nrelation x.y + -1*y.x\n"
    with pytest.raises(AlgParseError, match="^lines 3, 4: basis exceeded dim_cap=50") as exc:
        parse_alg_text(text, dim_cap=50)
    assert exc.value.lines == [3, 4]


def test_dim_cap_abort_names_the_arrows_the_longest_words_repeat():
    # a occurs in the relation b.a, so the free-cycle refusal does not fire,
    # but the cycle a.c survives: the longest words, such as (a.c)^k.a.b,
    # repeat a and c and run through b at most once
    text = "field 0\nvertex 1 2\narrow a 1 2\narrow b 2 1\narrow c 2 1\nrelation b.a\n"
    with pytest.raises(AlgParseError, match="words of length 17 repeat a, c, so") as exc:
        parse_alg_text(text, dim_cap=50)
    assert exc.value.lines == [3, 5]
    # words that repeat no arrow are named whole
    path = "field 0\nvertex 1 2 3\narrow a 1 2\narrow b 2 3\n"
    with pytest.raises(AlgParseError, match="^lines 3, 4: .* length 2 run through a, b, so"):
        parse_alg_text(path, dim_cap=5)


def test_parse_error_reports_line():
    try:
        parse_alg_text("field 0\nvertex 1\nbroken stuff here\n")
    except AlgParseError as exc:
        assert exc.lines == [3]
    else:
        pytest.fail("expected a parse error")


def test_field_override():
    A = parse_alg_text(SL2, field_override=2)
    assert A.field.characteristic == 2
    assert A.dim == 5


def test_opposite_algebra():
    A = parse_alg_text(SL2)
    B = A.opposite()
    assert B.dim == 5
    assert ("b", "a") in B.basis and ("a", "b") not in B.basis


SQUARE = """
field 0
vertex 1 2 3 4
order 1 < 2
order 2 < 3
order 3 < 4
arrow d 1 2
arrow e 1 3
arrow f 2 4
arrow g 3 4
relation 1*d.f + -1*e.g
"""


def test_commutative_square_relation():
    # two paths identified: d.f = e.g on a commuting square
    A = parse_alg_text(SQUARE)
    # free paths: 4 idempotents + 4 arrows + 2 length-2 paths glued into 1
    assert A.dim == 9
    red = A.reduce(("d", "f"))
    assert list(red.values()) != [] and set(red) == {("e", "g")}


# -- reference: the quotient from every free word ------------------------------

DATA = resources.files("tiltrig").joinpath("data")
SMALL = {
    "x.x": "field 0\nvertex 1\narrow x 1 1\nrelation 1*x.x\n",
    # the terms share their prefix, so the arrow order decides the pivot, and
    # c, d are two normal words u in front of the relation
    "parallel arrows": (
        "field 0\nvertex 1 2 3 4\narrow c 1 2\narrow d 1 2\narrow p 2 3\narrow q 3 4\narrow r 3 4\n"
        "relation p.q + -1*p.r\n"
    ),
    # relations of lengths 3 and 4, one of them killing a whole stratum
    "mixed lengths": (
        "field 5\nvertex 1 2\narrow x 1 1\narrow y 1 2\narrow z 2 1\nrelation x.x.x + 2*y.z.x\n"
        "relation z.x.x + -1*z.y.z\nrelation y.z.y\nrelation x.y.z.x\nrelation x.x.y + y.z.y\n"
    ),
}


def _enumerate_words(A):
    """Basis, max length and reductions of A's presentation from every free word.

    Words are listed by length in the order build_algebra lists its products
    (sorted (source, target) keys, prefixes in stratum order, sorted arrows);
    each (source, target, length) stratum is reduced by one rref against the
    span of every u.r.w in it.
    """
    Q, F, V = A.quiver, A.field, A.quiver.vertices
    words = {(v, v): [(v,)] for v in V}
    basis = [(v,) for v in V]
    red = {(v,): {(v,): F.one} for v in V}
    length = 0
    while True:
        length += 1
        longer = {}
        for (s, t), ws in sorted(words.items()):
            for w in ws:
                for a in sorted(Q.arrows_from(t)):
                    longer.setdefault((s, Q.target(a)), []).append((a,) if w[0] in V else w + (a,))
        if not longer:
            return basis, length, red
        words, survivors = longer, 0
        for key in sorted(words):
            ws = words[key]
            col = {w: j for j, w in enumerate(ws)}
            rows = {}
            for x in ws:
                for k, rel in enumerate(A.relations):
                    for i in range(length - rel.length + 1):
                        u, w = x[:i], x[i + rel.length :]
                        if (k, u, w) in rows or Q.path_endpoints(x[i : i + rel.length]) != (rel.src, rel.dst):
                            continue
                        row = [F.zero] * len(ws)
                        for c, p in rel.terms:
                            j = col[u + p + w]
                            row[j] = F.add(row[j], F.of(c))
                        rows[(k, u, w)] = row
            reduced, pivots = rref(Mat(F, list(rows.values()))) if rows else ([], [])
            piv_set = set(pivots)
            keep = [w for j, w in enumerate(ws) if j not in piv_set]
            red.update((w, {w: F.one}) for w in keep)
            for row, pc in zip(reduced, pivots):
                red[ws[pc]] = {w: F.neg(row[col[w]]) for w in keep if row[col[w]] != F.zero}
            basis += keep
            survivors += len(keep)
        if not survivors:
            basis.sort(key=lambda p: (0 if p[0] in V else len(p), p))
            return basis, length, red


@pytest.mark.parametrize(
    "case",
    sorted(p.name for p in DATA.iterdir() if p.name.endswith(".alg"))
    + ["square", *SMALL]
    + [f"aus{n}_3" for n in range(2, 6)]
    + [f"aus{n}_0" for n in range(2, 5)],
)
def test_build_algebra_matches_word_enumeration(case, auslander_alg):
    if case.endswith(".alg"):
        text = DATA.joinpath(case).read_text(encoding="utf-8")
    elif case.startswith("aus"):
        n, p = case[3:].split("_")
        text = auslander_alg(int(n), int(p))
    else:
        text = SQUARE if case == "square" else SMALL[case]
    A = parse_alg_text(text)
    basis, max_length, red = _enumerate_words(A)
    assert A.basis == basis and A.max_length == max_length
    for p in basis:
        for q in basis:
            if A.path_target(p) != A.path_source(q):
                expected = {}
            elif A.path_length(p) == 0 or A.path_length(q) == 0:
                expected = {q if A.path_length(p) == 0 else p: A.field.one}
            else:
                expected = red.get(p + q, {})
            assert A.mult(p, q) == expected, (p, q)


@pytest.mark.parametrize("n", [7, 8])
def test_auslander_growth(n, auslander_alg):
    A = parse_alg_text(auslander_alg(n, 3))
    assert A.dim == n * (n + 1) * (2 * n + 1) // 6
    assert len(A.radical_powers()) - 1 == 2 * n - 1
    F = A.field
    for rel in A.relations:
        image = {}
        for c, p in rel.terms:
            for r, x in A.reduce(p).items():
                image[r] = F.add(image.get(r, F.zero), F.mul(c, x))
        assert all(x == F.zero for x in image.values()), rel


def test_free_cycles_refused_before_any_degree(monkeypatch):
    def no_degree(*args):
        raise AssertionError("a degree was built")

    monkeypatch.setattr(quiver_module, "_append", no_degree)  # every degree starts with it
    quiver = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    with pytest.raises(QuiverError, match="arrows x, y contain an oriented cycle that no relation involves"):
        build_algebra(quiver, [], Field(3))
    two_cycle = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(QuiverError, match="arrows a, b contain an oriented cycle"):
        build_algebra(two_cycle, [], Field(3))
    # a relation elsewhere does not cut the free loop x
    three = Quiver(["1", "2"], [("x", "1", "1"), ("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2")])
    cut = [Relation(three, [(1, ("a", "b"))]), Relation(three, [(1, ("b", "c"))])]
    with pytest.raises(QuiverError, match="arrows x contain"):
        build_algebra(three, cut, Field(3))
