import importlib.util
import random
import re
from pathlib import Path

import pytest

from tiltrig import modules
from tiltrig.acceptance import bundled_system
from tiltrig.highest_weight import StandardSystem
from tiltrig.linalg import Mat, Subspace, kernel_basis, quotient_map
from tiltrig.modules import (
    ModuleError,
    ProjectiveCover,
    Representation,
    SubFamily,
    _path_map,
    direct_sum,
    hom_space,
    image,
    projective_rep,
    quotient_rep,
    radical_of,
    radical_series,
)
from tiltrig.quiver import parse_alg_text

# the Auslander family the benchmark runs on, from its own generator
_FAMILY = importlib.util.spec_from_file_location("family", Path(__file__).resolve().parents[1] / "benchmarks" / "family.py")
family = importlib.util.module_from_spec(_FAMILY)
_FAMILY.loader.exec_module(family)


@pytest.fixture(scope="session")
def sl2():
    return bundled_system("sl2block")


@pytest.fixture(scope="session")
def sl2_f2():
    return bundled_system("sl2block", 2)


@pytest.fixture(scope="session")
def ce3():
    return bundled_system("ce3")


def _dual_extension_alg(seed: int, p: int) -> str:
    """`.alg` text of a seeded dual extension algebra over F_p (p = 0: over Q).

    B is a random directed quiver on 3..5 vertices: each pair i > j is an
    arrow d: i -> j with probability 1/2, and one arrow is doubled with
    probability 0.3.  The algebra adds the opposite arrows u: j -> i, the
    relations "d then u = 0" and the duality d = u; its order is 1 < ... < n.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 5)
    down = [(i, j) for i in range(2, n + 1) for j in range(1, i) if rng.random() < 0.5]
    if down and rng.random() < 0.3:
        down.append(rng.choice(down))
    lines = [f"field {p}", "vertex " + " ".join(str(i) for i in range(1, n + 1))]
    lines += [f"order {i} < {i + 1}" for i in range(1, n)]
    for k, (i, j) in enumerate(down):
        lines += [f"arrow d{k} {i} {j}", f"arrow u{k} {j} {i}"]
    lines += [f"relation d{k}.u{m}" for k, (_, j) in enumerate(down) for m, (_, jm) in enumerate(down) if j == jm]
    if down:
        lines.append("duality " + " ".join(f"d{k}=u{k}" for k in range(len(down))))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def dual_extension():
    """dual_extension(seed, p) builds a fresh system over F_p (p = 0: over Q)."""
    return lambda seed, p: StandardSystem(parse_alg_text(_dual_extension_alg(seed, p), name=f"dx{seed}_{p}"))


@pytest.fixture(scope="session")
def auslander_alg():
    """auslander_alg(n, p) is the `.alg` text over F_p (p = 0: over Q)."""
    return family.auslander_alg


@pytest.fixture(scope="session")
def auslander():
    """auslander(n, p) builds a fresh system over F_p (p = 0: over Q)."""
    return lambda n, p: StandardSystem(parse_alg_text(family.auslander_alg(n, p), name=f"aus{n}_{p}"))


_DOT_EDGE = re.compile(r"^\s*n\d+ -> n\d+ \[style=solid\];$")
_DOT_NODE = re.compile(r'^\s*n\d+ \[label=".*"\];$')


def _dot_is_wellformed(text: str) -> bool:
    """Cheap syntactic check: braces balance and every statement is a known form."""
    if not text.startswith("digraph"):
        return False
    depth = 0
    for raw in text.splitlines():
        line = raw.strip()
        depth += line.count("{") - line.count("}")
        if depth < 0:
            return False
        if "->" in line and not _DOT_EDGE.match(raw):
            return False
        if "[label=" in line and not _DOT_NODE.match(raw):
            return False
    return depth == 0


@pytest.fixture(scope="session")
def dot_is_wellformed():
    """dot_is_wellformed(text) checks the DOT the coefficient-quiver renderer writes."""
    return _dot_is_wellformed


# -- maps between modules, as the library gives them: one matrix per vertex ------------
#
# Test modules import these as `from conftest import ...`.


def flatten(f) -> list:
    """The entries of a map's vertex matrices, vertex by vertex, row by row."""
    return [x for m in f.values() for row in m.data for x in row]


def combine(basis, coeffs):
    """sum_k coeffs[k] * basis[k] over a nonempty list of maps."""
    out = {v: m.scale(0) for v, m in basis[0].items()}
    for c, g in zip(coeffs, basis):
        if c:
            out = {v: out[v].add(m.scale(c)) for v, m in g.items()}
    return out


def compose(f, g):
    """f after g (g first)."""
    return {v: f[v].mul(m) for v, m in g.items()}


def kernel(M, f):
    """The kernel of a map out of M, as a family in M."""
    return SubFamily(M, {v: Subspace(M.field, M.dims[v], kernel_basis(f[v])) for v in M.vertices})


def _coords(space, v):
    """Coordinates of v in the basis of a Subspace, or None if v is outside.

    The basis is reduced, so they are the entries of v at the pivots.
    """
    if not space.contains(v):
        return None
    return [v[pc] for pc in space.pivots]


@pytest.fixture(scope="session")
def coords():
    """coords(space, v) is v in the reduced basis of space, or None outside it."""
    return _coords


def _sub_rep(M, fam):
    """The family as a representation in its own right, with the vertex
    matrices of its inclusion.

    Raises ModuleError unless the family is arrow-stable: every arrow image
    of a basis vector must have coordinates in the family.
    """
    F = M.field
    dims = {v: fam.spaces[v].dim for v in M.vertices}
    mats = {}
    for a, (u, w) in M.algebra.quiver.arrows.items():
        m = Mat.zero(F, dims[w], dims[u])
        for j, vec in enumerate(fam.spaces[u].basis):
            column = _coords(fam.spaces[w], M.mats[a].apply(vec))
            if column is None:
                raise ModuleError("family is not arrow-stable; not a submodule")
            for i, c in enumerate(column):
                m.data[i][j] = c
        mats[a] = m
    sub = Representation(M.algebra, dims, mats, name=f"sub({M.name})")
    inc = {v: Mat.from_cols(F, fam.spaces[v].basis) if dims[v] else Mat.zero(F, M.dims[v], 0) for v in M.vertices}
    return sub, inc


def _subquotient(M, outer, inner):
    """outer/inner as a module, with the induced filtration (rad^i M cap outer + inner)/inner.

    The induced chain is in the subquotient's own coordinates.  `_sub_rep`
    and `quotient_rep` refuse an outer or inner family that is not
    arrow-stable.  The library reads subquotients in M instead; this is
    the reference it is compared against.
    """
    if not outer.contains(inner):
        raise ModuleError("subquotient requires inner <= outer")
    outer_rep, _ = _sub_rep(M, outer)
    inner_in_outer = SubFamily(
        outer_rep,
        {v: Subspace(M.field, outer.dim_at(v), [_coords(outer.spaces[v], x) for x in inner.spaces[v].basis]) for v in M.vertices},
    )
    quot = quotient_rep(outer_rep, inner_in_outer)
    proj = {v: quotient_map(M.field, inner_in_outer.spaces[v])[0] for v in M.vertices}
    induced = []
    for rad_i in radical_series(M):
        meet = rad_i.intersect(outer)
        vecs = [(v, proj[v].apply(_coords(outer.spaces[v], x))) for v in M.vertices for x in meet.spaces[v].basis]
        induced.append(SubFamily.from_vectors(quot, vecs))
    while len(induced) > 1 and induced[-1].is_zero() and induced[-2].is_zero():
        induced.pop()
    return quot, induced


@pytest.fixture(scope="session")
def sub_rep():
    """sub_rep(M, fam) is (the submodule as a module, its inclusion)."""
    return _sub_rep


@pytest.fixture(scope="session")
def subquotient():
    """subquotient(M, outer, inner) is (outer/inner as a module, the induced chain in it)."""
    return _subquotient


def _spin_fixpoint(M, vectors):
    """The spin as a fixpoint: add J * fam to the family until it stops growing.

    Each round eliminates the whole family again; the library's worklist
    spin is compared against it.
    """
    fam = SubFamily.from_vectors(M, vectors)
    while True:
        grown = fam.sum(radical_of(M, fam))
        if grown.total_dim == fam.total_dim:
            return fam
        fam = grown


@pytest.fixture(scope="session")
def spin_fixpoint():
    """spin_fixpoint(M, vectors) is the reference for `spin_submodule`."""
    return _spin_fixpoint


def _syzygy_block_solve(cover, N):
    """Hom(Omega, N) by the block solve on Omega as a module in its own right.

    Returns the basis maps, the generator images of each (the images of
    the v_j, read through Omega's coordinates) and the inclusion of Omega
    in P0.
    """
    omega, inclusion = _sub_rep(cover.P0, cover.syzygy)
    homs = hom_space(omega, N)
    coords = [_coords(cover.syzygy.spaces[v], vec) for v, _, vec in cover.generators]
    images = [[x for (v, _, _), c in zip(cover.generators, coords) for x in f[v].apply(c)] for f in homs]
    return homs, images, inclusion


@pytest.fixture(scope="session")
def syzygy_block_solve():
    """syzygy_block_solve(cover, N) is the reference for maps out of a cover's syzygy."""
    return _syzygy_block_solve


def _projective_cover(M):
    """The projective cover P0 -> M of any module, as a ProjectiveCover.

    P0 has one summand P(v_i) for each basis vector of a complement of
    rad M at v_i, and its idempotent goes to that vector; Omega is the
    kernel.  The library presents only P(lam) -> Delta(lam), on the
    system's own P(lam) and U(lam); this is the reference it is compared
    against, and the presentation `ext1` takes for any other module.
    """
    F = M.field
    rad = radical_of(M, SubFamily.full(M))
    lifts = [(v, vec) for v in M.vertices for vec in rad.spaces[v].complement_in(Subspace.full(F, M.dims[v]))]
    summands = [projective_rep(M.algebra, v) for v, _ in lifts]
    P0 = direct_sum(summands)[0] if summands else Representation(M.algebra, {}, {}, name="0")
    cover = _path_map(M, lifts)[1]
    if image(M, cover).total_dim != M.total_dim:
        raise ModuleError("projective cover failed to surject")
    return ProjectiveCover(P0, [v for v, _ in lifts], kernel(P0, cover))


@pytest.fixture(scope="session")
def projective_cover():
    """projective_cover(M) is the reference presentation of a module M."""
    return _projective_cover


def _signed_cover(M):
    """The projective cover of M built on its generators times 1, -1, 1, ...

    They generate the syzygy as well, with entries other than 1, so a
    dropped or misplaced coefficient shows.
    """
    F, complements = M.field, modules.flag_complements

    def signed(flag, bottom):
        out, k = {}, 0
        for v, picked in complements(flag, bottom).items():
            out[v] = []
            for depth, vector in picked:
                c = F.of((-1) ** k)
                k += 1
                out[v].append((depth, [F.mul(c, x) for x in vector]))
        return out

    modules.flag_complements = signed
    try:
        return _projective_cover(M)
    finally:
        modules.flag_complements = complements


@pytest.fixture(scope="session")
def signed_cover():
    """signed_cover(M) is the projective cover of M on rescaled generators."""
    return _signed_cover
