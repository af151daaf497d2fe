"""The acceptance suite: one callable per criterion, shared by the `selftest`
CLI subcommand and the pytest suite.  Each check returns (ok, detail) and
raises nothing on failure, so the runner can print a full scoreboard.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from .linalg import Field, Mat, Subspace, kernel_basis, rref
from . import characters as ch
from .coeffquiver import lemma_prune
from .highest_weight import (
    FiltrationFailure,
    StandardSystem,
    check_quasihereditary,
    check_radical_respecting,
    delta_filtration_from_chain,
    dualize,
    find_delta_filtration,
    nabla_multiplicities,
)
from .modules import (
    SubFamily,
    direct_sum,
    hom_space,
    image,
    radical_profile,
    socle_profile,
    spin_submodule,
)
from .quiver import bgg_symmetry_check, layers_from_placement, parse_alg_text
from .rigidity import (
    detect_stretched,
    filtered_ext1_delta,
    rigidity_pipeline,
    stretched_subquotients_bruteforce,
)


def bundled_system(name: str, field_override: Optional[int] = None) -> StandardSystem:
    """A new system on the bundled algebra `<name>.alg`, over F_p if field_override = p."""
    return StandardSystem(parse_alg_text(ch.data_text(f"{name}.alg"), field_override, name=name))


# Each fixture system is built once per process; its memo then serves every criterion.
@lru_cache(maxsize=None)
def _sl2_system(characteristic: int = 0) -> StandardSystem:
    return bundled_system("sl2block", characteristic)

@lru_cache(maxsize=None)
def _ce3_system() -> StandardSystem:
    return bundled_system("ce3")


def sl2_reversed() -> StandardSystem:
    """The bundled sl2 block with its order swapped, which is not quasi-hereditary."""
    text = ch.data_text("sl2block.alg").replace("order 1 < 2", "order 2 < 1")
    return StandardSystem(parse_alg_text(text, name="sl2block-reversed"))


# -- criterion 1: SL4 projective reconstruction ------------------------------------------

PAPER_PROJECTIVES = {
    "1": [["1"], ["2", "4"], ["1", "3", "1", "3'"], ["2"]],
    "2": [["2"], ["3", "1", "5", "3'"], ["2", "fl", "2", "4", "fl'", "2", "4"], ["3", "3'", "3", "1", "3'"], ["2"]],
    "3": [["3"], ["4", "2", "fl"], ["3", "1", "3'", "5", "3"], ["2", "fl", "2", "4", "fl'"], ["3", "3'"]],
    "fl": [["fl"], ["3", "5"], ["fl", "2", "4", "fl'"], ["3", "3'"]],
    "4": [["4"], ["3", "1", "3'", "5"], ["2", "fl", "2", "4", "fl'"], ["3", "3'"]],
    "5": [["5"], ["fl", "2", "4", "fl'"], ["3", "3'"]],
}

PAPER_TILTINGS = {
    "1": [["1"]],
    "2": [["1"], ["2"], ["1"]],
    "3": [["2"], ["3", "1"], ["2"]],
    "fl": [["3"], ["fl", "2"], ["3"]],
    "4": [["2"], ["3", "1", "3'"], ["2", "4", "2"], ["3", "1", "3'"], ["2"]],
    "5": [["3", "3'"], ["fl'", "fl", "2", "2", "4"], ["3'", "3", "5", "3", "1", "3'"], ["fl", "2", "4", "fl'", "2"], ["3", "3'"]],
}


def criterion_1_sl4_projectives() -> Tuple[bool, str]:
    b = ch.load_block()
    for mu, expected in PAPER_PROJECTIVES.items():
        got = ch.projective_layers(b, mu)
        want = [Counter(layer) for layer in expected]
        if got != want:
            return False, f"P({mu}) computed {got} != recorded {want}"
    golden = ch.parse_lay_text(ch.data_text("sl4.projectives.lay"), b.labels)
    for kind, label, prof in golden:
        if ch.projective_layers(b, label) != prof:
            return False, f"golden mismatch at P({label})"
    return True, "all six recorded projective profiles reproduced exactly (plus primes)"


def criterion_2_sl4_tiltings() -> Tuple[bool, str]:
    b = ch.load_block()
    for lam, expected in PAPER_TILTINGS.items():
        got = layers_from_placement(ch.SL4_TILTING_PLACEMENTS[lam], b.layered)
        if got != [Counter(layer) for layer in expected]:
            return False, f"T({lam}) layers mismatch"
    golden = ch.parse_lay_text(ch.data_text("sl4.tiltings.lay"), b.labels)
    for kind, label, prof in golden:
        if layers_from_placement(ch.SL4_TILTING_PLACEMENTS[label], b.layered) != prof:
            return False, f"golden mismatch at T({label})"
    for lam, placement in ch.SL4_TILTING_PLACEMENTS.items():
        target = layers_from_placement(placement, b.layered)
        mults = Counter(l for l, _ in placement)
        sols = ch.solve_placement(target, mults, b)
        if len(sols) != 1 or sorted(sols[0]) != sorted(placement):
            return False, f"solve_placement not unique for T({lam}): {sols}"
    return True, "all six recorded tilting profiles reproduced; placements recovered uniquely"


def criterion_3_wall_crossing() -> Tuple[bool, str]:
    b = ch.load_block()
    cases = {
        ("s2", "3"): {"fl": 1, "3": 2, "2": 1},
        ("s2", "3'"): {"fl'": 1, "3'": 2, "2": 1},
        ("s2", "4"): {"5": 1, "4": 2, "1": 1},
    }
    for (s, lab), want in cases.items():
        got = ch.wall_cross(s, ch.simple_character(lab), b)
        if got.coeffs != Counter(want):
            return False, f"theta_{s} L({lab}) = {dict(got.coeffs)} != {want}"
    vanishing = [("s3", "1"), ("s3", "3'"), ("s1", "3"), ("s2", "fl"), ("s2", "fl'"), ("s2", "2")]
    for s, lab in vanishing:
        got = ch.wall_cross(s, ch.simple_character(lab), b)
        if got.coeffs:
            return False, f"theta_{s} L({lab}) should vanish, got {dict(got.coeffs)}"
    return True, "three recorded crossings and six recorded vanishings reproduced"


def criterion_4_bgg_symmetry() -> Tuple[bool, str]:
    b = ch.load_block()
    report = bgg_symmetry_check(b.labels, {mu: ch.projective_layers(b, mu) for mu in b.labels})
    if not report["ok"]:
        return False, f"failures: {report['failures']}"
    return True, "layer reciprocity holds on the computed projective profiles"


def criterion_5_sl2_end_to_end() -> Tuple[bool, str]:
    sys = _sl2_system()
    qh = check_quasihereditary(sys)
    if not qh["ok"]:
        return False, "qh verify failed on the sl2 block"
    T2 = sys.tilting("2")
    prof = radical_profile(T2)
    if prof != [Counter({"1": 1}), Counter({"2": 1}), Counter({"1": 1})]:
        return False, f"T(2) profile {prof}"
    rep = rigidity_pipeline(sys, "2")
    if rep["rigid_theorem"] is not True or rep["rigid_oracle"] is not True or not rep["consistent"]:
        return False, f"pipeline verdicts {rep['rigid_theorem']}, {rep['rigid_oracle']}, {rep['consistent']}"
    for lam in sys.labels:
        for r in range(-3, 4):
            dim = filtered_ext1_delta(sys, lam, r, T2)
            if dim != 0:
                return False, f"filtered Ext^1(Delta({lam})<{r}>, T(2)) = {dim}"
    return True, "qh verify, T(2)=[1|2|1], RIGID via both paths, filtered Ext vanishes on [-3,3]"


def _f2_fixture_sets():
    s2 = _sl2_system(2)
    sl2_fixtures = {
        "L(1)": s2.simple("1"),
        "L(2)": s2.simple("2"),
        "P(1)": s2.projective("1"),
        "P(2)": s2.projective("2"),
        "Delta(2)": s2.standard("2"),
        "Nabla(2)": s2.costandard("2"),
        "T(2)": s2.tilting("2"),
        "L(1)+P(1)": direct_sum([s2.simple("1"), s2.projective("1")])[0],
    }
    sc = _ce3_system()
    ce3_fixtures = {
        "P(1)": sc.projective("1"),
        "P(2)": sc.projective("2"),
        "P(3)": sc.projective("3"),
        "T(1)": sc.tilting("1"),
        "T(2)": sc.tilting("2"),
        "T(3)": sc.tilting("3"),
        "Delta(2)": sc.standard("2"),
        "Nabla(3)": sc.costandard("3"),
    }
    return (s2, sl2_fixtures), (sc, ce3_fixtures)


def criterion_6_property_suites() -> Tuple[bool, str]:
    # detector vs enumerator on every bundled F2 fixture of dimension <= 8
    for sys, fixtures in _f2_fixture_sets():
        for name, mod in fixtures.items():
            if mod.total_dim > 8:
                return False, f"fixture {name} exceeds the dimension bound"
            for side in ("delta-L", "L-nabla"):
                failures = detect_stretched(sys, mod, side)
                wits = stretched_subquotients_bruteforce(sys, mod, side)
                if bool(failures) != bool(wits):
                    return False, f"detector/enumerator disagree on {name} ({side})"

    # filtration independence: two distinct chains of P(1) (+) Delta(2)
    sys = _sl2_system()
    P1, D2 = sys.projective("1"), sys.standard("2")
    M, injs = direct_sum([P1, D2])
    full = SubFamily.full(M)
    summand_delta = image(M, injs[1])
    rad_p1_part = spin_submodule(M, [("2", injs[0]["2"].apply([sys.algebra.field.one]))])
    chain_a = [SubFamily(M), summand_delta, summand_delta.sum(rad_p1_part), full]
    chain_b = [SubFamily(M), rad_p1_part, summand_delta.sum(rad_p1_part), full]
    if chain_a[1] == chain_b[1]:
        return False, "filtration-independence chains coincide"
    results = []
    for chain in (chain_a, chain_b):
        steps = delta_filtration_from_chain(sys, M, chain)
        ok, predicted, actual = check_radical_respecting(sys, M, steps)
        results.append((ok, predicted))
    if not (results[0][0] and results[1][0] and results[0][1] == results[1][1]):
        return False, f"layer prediction depends on the filtration: {results}"

    # hom-dimension pairing vs computed Hom on bundled QH fixtures
    for sys in (_sl2_system(), _ce3_system()):
        mods = {lam: sys.tilting(lam) for lam in sys.labels}
        mods.update({f"P{lam}": sys.projective(lam) for lam in sys.labels})
        mods.update({f"D{lam}": sys.standard(lam) for lam in sys.labels})
        nabla = {name: nabla_multiplicities(sys, N) for name, N in mods.items()}
        for name_m, M in mods.items():
            try:
                steps = find_delta_filtration(sys, M)[0]
            except FiltrationFailure:
                continue
            dmults = Counter(label for label, _ in steps)
            for name_n, N in mods.items():
                nmults = nabla[name_n]
                if nmults is None:
                    continue
                predicted = sum(dmults[l] * nmults[l] for l in sys.labels)
                actual = len(hom_space(M, N))
                if predicted != actual:
                    return False, f"hom pairing fails on ({name_m}, {name_n}): {predicted} != {actual}"

    # randomized exact linear algebra, 100 seeded cases
    rng = random.Random(0)
    for case in range(100):
        p = rng.choice([0, 2, 5])
        F = Field(p)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = lambda: F.of(rng.randint(-4, 4))
        m = Mat(F, [[entries() for _ in range(cols)] for _ in range(rows)])
        R, piv = rref(m)
        if len(piv) + len(kernel_basis(m)) != cols:
            return False, f"rank-nullity fails (case {case})"
        R2, piv2 = rref(Mat.canonical(F, R, cols))
        if R2 != R or piv2 != piv:
            return False, f"rref not idempotent (case {case})"
        # canonicity: an invertible row mix does not change the rref
        mix = Mat(F, [[entries() for _ in range(rows)] for _ in range(rows)])
        if len(rref(mix)[1]) == rows:
            R3, piv3 = rref(mix.mul(m))
            if R3 != R or piv3 != piv:
                return False, f"rref not canonical (case {case})"
        n = rng.randint(1, 5)
        U = Subspace(F, n, [[entries() for _ in range(n)] for _ in range(rng.randint(0, 3))])
        V = Subspace(F, n, [[entries() for _ in range(n)] for _ in range(rng.randint(0, 3))])
        if U.sum(V).dim + U.intersect(V).dim != U.dim + V.dim:
            return False, f"subspace dimension formula fails (case {case})"

    # duality exchanges the radical and socle profiles on BGG fixtures
    # (socle layers are listed socle-first, so the exchange is index-aligned)
    sys = _sl2_system()
    for M in (sys.projective("1"), sys.projective("2"), sys.standard("2"), sys.tilting("2"), sys.simple("1")):
        D = dualize(M, sys.algebra)
        if socle_profile(M) != radical_profile(D) or radical_profile(M) != socle_profile(D):
            return False, f"duality fails to exchange series on {M.name}"
    return True, "detector agreement, filtration independence, hom pairing, 100 linalg cases, duality exchange"


def criterion_7_negative_controls() -> Tuple[bool, str]:
    # reversed order: quasi-heredity fails at axiom (ii)
    qh = check_quasihereditary(sl2_reversed())
    if qh["ok"] or qh["weights"]["2"]["axiom_ii"]:
        return False, "reversed sl2 block unexpectedly quasi-hereditary"

    # corrupted profile table: symmetry check fails with the right witness
    b = ch.load_block()
    profiles = {mu: ch.projective_layers(b, mu) for mu in b.labels}
    profiles["1"][1]["4"] -= 1  # drop one entry from the computed table
    report = bgg_symmetry_check(b.labels, profiles)
    if report["ok"]:
        return False, "corrupted table passed the symmetry check"
    witness = report["failures"][0]
    if witness["layer"] != 1 or set(witness["pair"]) != {"1", "4"}:
        return False, f"wrong corruption witness: {witness}"

    # pruning rule on the bare pattern and on both escape patterns
    less = lambda x, y: (x, y) in {("a", "c")}
    ext = {("a", "c"): True}
    bare = ([("a", 0), ("b", 1), ("c", 2)], [(0, 1), (1, 2)])
    v = lemma_prune(bare, "a", "c", ext, less)
    if [escape for *_, escape in v] != [None]:
        return False, f"bare pattern verdicts {v}"
    escape1 = ([("a", 0), ("b", 1), ("b", 1), ("c", 2)], [(0, 1), (0, 2), (1, 3), (2, 3)])
    v = lemma_prune(escape1, "a", "c", ext, less)
    if not v or any(escape != "duplicated-middle" for *_, escape in v):
        return False, f"first escape pattern verdicts {v}"
    escape2 = ([("a", 0), ("a", 0), ("b", 1), ("c", 2)], [(0, 2), (1, 2), (2, 3)])
    v = lemma_prune(escape2, "a", "c", ext, less)
    if not v or any(escape != "second-head" for *_, escape in v):
        return False, f"second escape pattern verdicts {v}"
    return True, "reversed order fails axiom (ii); corruption caught with witness; pruning patterns verified"


CRITERIA: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("1 SL4 projective reconstruction", criterion_1_sl4_projectives),
    ("2 SL4 tilting reconstruction", criterion_2_sl4_tiltings),
    ("3 wall-crossing characters", criterion_3_wall_crossing),
    ("4 BGG layer symmetry", criterion_4_bgg_symmetry),
    ("5 sl2 block end-to-end", criterion_5_sl2_end_to_end),
    ("6 property suites", criterion_6_property_suites),
    ("7 negative controls", criterion_7_negative_controls),
]


def run_all() -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}")
    return all_ok
