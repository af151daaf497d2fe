from collections import Counter

import pytest

from tiltrig import characters as ch
from tiltrig.characters import BlockData, BlockError, Character
from tiltrig.quiver import bgg_symmetry_check, layers_from_placement


@pytest.fixture(scope="module")
def block():
    return ch.load_block()


# -- basis conversions and the 3 <-> 3' symmetry of the bundled block -----------------


def standard_character(label: str) -> Character:
    return Character("delta", {label: 1})


def to_L_basis(c: Character, b: BlockData) -> Character:
    if c.basis == "L":
        return c
    out: Counter = Counter()
    for lam, k in c.coeffs.items():
        for mu, d in b.decomposition[lam].items():
            out[mu] += k * d
    return Character("L", out)


def to_delta_basis(c: Character, b: BlockData) -> Character:
    """Invert the unitriangular decomposition table over the integers."""
    if c.basis == "delta":
        return c
    remaining = Counter(c.coeffs)
    out: Counter = Counter()
    for lam in reversed(b.labels):  # descending: top coefficients first
        k = remaining[lam]
        if k:
            out[lam] += k
            for mu, d in b.decomposition[lam].items():
                remaining[mu] -= k * d
    if any(v for v in remaining.values()):
        raise BlockError("character is not an integer combination of standard characters")
    return Character("delta", out)


def prime_swap(label: str) -> str:
    table = {"3": "3'", "3'": "3", "fl": "fl'", "fl'": "fl", "s1": "s3", "s3": "s1"}
    return table.get(label, label)


def prime_swap_block(b: BlockData) -> BlockData:
    """The block with 3<->3', fl<->fl', s1<->s3 swapped (same label order)."""
    layered = {
        prime_swap(l): [Counter({prime_swap(m): c for m, c in layer.items()}) for layer in layers]
        for l, layers in b.layered.items()
    }
    covers = []
    for a in b.labels:
        for c in b.labels:
            if a != c and b.poset.leq(a, c):
                covers.append((prime_swap(a), prime_swap(c)))
    walls = {}
    for (l, s), (kind, partner) in b.walls.items():
        walls[(prime_swap(l), prime_swap(s))] = (kind, prime_swap(partner) if partner else None)
    return BlockData(b.labels, covers, layered, None, walls, b.generators)


def test_basis_conversion_examples(block):
    c = to_L_basis(standard_character("2"), block)
    assert c.coeffs == Counter({"2": 1, "1": 1})
    c = to_L_basis(standard_character("1"), block)
    assert c.coeffs == Counter({"1": 1})
    c = to_L_basis(standard_character("5"), block)
    assert c.coeffs == Counter({"5": 1, "4": 1, "fl": 1, "fl'": 1, "3": 1, "3'": 1, "2": 1})


def test_basis_round_trip_all_labels(block):
    for lam in block.labels:
        c = standard_character(lam)
        assert to_delta_basis(to_L_basis(c, block), block) == c
        s = ch.simple_character(lam)
        assert to_L_basis(to_delta_basis(s, block), block) == s


def test_wall_cross_recorded_values(block):
    got = ch.wall_cross("s2", ch.simple_character("3"), block)
    assert got.coeffs == Counter({"fl": 1, "3": 2, "2": 1})
    got = ch.wall_cross("s2", ch.simple_character("3'"), block)
    assert got.coeffs == Counter({"fl'": 1, "3'": 2, "2": 1})
    got = ch.wall_cross("s2", ch.simple_character("4"), block)
    assert got.coeffs == Counter({"5": 1, "4": 2, "1": 1})


def test_wall_cross_recorded_vanishings(block):
    for s, lab in [("s3", "1"), ("s3", "3'"), ("s1", "3"), ("s2", "fl"), ("s2", "fl'"), ("s2", "2")]:
        assert not ch.wall_cross(s, ch.simple_character(lab), block).coeffs


def test_wall_cross_unknown_wall_error(block):
    with pytest.raises(ch.InsufficientAlcoveData) as exc:
        ch.wall_cross("s0", ch.simple_character("3"), block)
    assert exc.value.label == "3" and exc.value.generator == "s0" and exc.value.kind == "unknown"


def test_wall_cross_exterior_delta_error(block):
    with pytest.raises(ch.InsufficientAlcoveData) as exc:
        ch.wall_cross("s2", standard_character("2"), block)
    assert exc.value.kind.startswith("exterior")


def test_wall_cross_delta_partner_equality(block):
    # crossing a wall from either side gives the same standard character
    for (lam, s), (kind, partner) in block.walls.items():
        if kind != "up":
            continue
        a = ch.wall_cross(s, standard_character(lam), block)
        b = ch.wall_cross(s, standard_character(partner), block)
        assert a == b


def test_wall_cross_additive(block):
    c1, c2 = Counter({"3": 1}), Counter({"4": 2})
    lhs = ch.wall_cross("s2", Character("L", c1 + c2), block)
    rhs = ch.wall_cross("s2", Character("L", c1), block).coeffs + ch.wall_cross("s2", Character("L", c2), block).coeffs
    assert lhs == Character("L", rhs)


def test_hom_dim_examples(block):
    assert ch.hom_dim({"1": 1}, {"1": 1}, block) == 1
    assert ch.hom_dim({"4": 1}, {"4": 1, "3": 1, "3'": 1, "2": 1}, block) == 1
    assert ch.hom_dim({"3": 1}, {"5": 1, "4": 1, "fl": 1, "fl'": 1, "3": 1, "3'": 1}, block) == 1
    with pytest.raises(ch.BlockError):
        ch.hom_dim({"4": -1}, {"4": 1}, block)


def test_projective_layers_examples(block):
    assert block and ch.projective_layers(block, "5") == [
        Counter({"5": 1}),
        Counter({"fl": 1, "2": 1, "4": 1, "fl'": 1}),
        Counter({"3": 1, "3'": 1}),
    ]
    assert ch.projective_layers(block, "fl") == [
        Counter({"fl": 1}),
        Counter({"3": 1, "5": 1}),
        Counter({"fl": 1, "2": 1, "4": 1, "fl'": 1}),
        Counter({"3": 1, "3'": 1}),
    ]
    assert ch.projective_layers(block, "1") == [
        Counter({"1": 1}),
        Counter({"2": 1, "4": 1}),
        Counter({"1": 2, "3": 1, "3'": 1}),
        Counter({"2": 1}),
    ]


def test_layers_from_placement_examples(block):
    got = layers_from_placement([("2", 0), ("3", 1)], block.layered)
    assert got == [Counter({"2": 1}), Counter({"3": 1, "1": 1}), Counter({"2": 1})]
    assert layers_from_placement([("1", 0)], block.layered) == [Counter({"1": 1})]
    t5 = layers_from_placement(ch.SL4_TILTING_PLACEMENTS["5"], block.layered)
    assert t5 == [
        Counter({"3": 1, "3'": 1}),
        Counter({"fl'": 1, "fl": 1, "2": 2, "4": 1}),
        Counter({"3'": 2, "3": 2, "5": 1, "1": 1}),
        Counter({"fl": 1, "2": 2, "4": 1, "fl'": 1}),
        Counter({"3": 1, "3'": 1}),
    ]


def test_layers_from_placement_rejects_negative_shift(block):
    with pytest.raises(ValueError, match="^head shifts must be non-negative$"):
        layers_from_placement([("2", -1)], block.layered)


def test_solve_placement_examples(block):
    t4 = layers_from_placement(ch.SL4_TILTING_PLACEMENTS["4"], block.layered)
    sols = ch.solve_placement(t4, {"4": 1, "3": 1, "3'": 1, "2": 1}, block)
    assert len(sols) == 1
    assert sorted(sols[0]) == sorted([("2", 0), ("3", 1), ("3'", 1), ("4", 2)])
    sols = ch.solve_placement([Counter({"1": 1})], {"1": 1}, block)
    assert sols == [[("1", 0)]]
    t2 = [Counter({"1": 1}), Counter({"2": 1}), Counter({"1": 1})]
    sols = ch.solve_placement(t2, {"2": 1, "1": 1}, block)
    assert len(sols) == 1 and sorted(sols[0]) == [("1", 0), ("2", 1)]


def test_bgg_symmetry_and_corruption(block):
    profiles = {mu: ch.projective_layers(block, mu) for mu in block.labels}
    assert bgg_symmetry_check(block.labels, profiles)["ok"]
    profiles["1"][1]["4"] -= 1
    report = bgg_symmetry_check(block.labels, profiles)
    assert not report["ok"]
    w = report["failures"][0]
    assert w["layer"] == 1 and set(w["pair"]) == {"1", "4"}


def test_projective_totals_brauer_humphreys(block):
    # summing the layers of P(mu) = sum over lam of [Delta(lam):L(mu)] * char Delta(lam)
    for mu in block.labels:
        total = sum(ch.projective_layers(block, mu), Counter())
        expected = Counter()
        for lam in block.labels:
            mult = block.decomposition[lam][mu]
            if mult:
                for nu, c in block.decomposition[lam].items():
                    expected[nu] += mult * c
        assert total == expected


def test_prime_swap_commutes(block):
    swapped = prime_swap_block(block)
    for lam in block.labels:
        # wall crossings commute with the symmetry
        for s in ("s1", "s2", "s3"):
            try:
                a = ch.wall_cross(s, ch.simple_character(lam), block)
            except ch.InsufficientAlcoveData:
                with pytest.raises(ch.InsufficientAlcoveData):
                    ch.wall_cross(prime_swap(s), ch.simple_character(prime_swap(lam)), swapped)
                continue
            b = ch.wall_cross(prime_swap(s), ch.simple_character(prime_swap(lam)), swapped)
            assert b.coeffs == Counter({prime_swap(l): c for l, c in a.coeffs.items()})
        # projective profiles commute with the symmetry
        got = ch.projective_layers(swapped, prime_swap(lam))
        want = [Counter({prime_swap(l): c for l, c in layer.items()}) for layer in ch.projective_layers(block, lam)]
        assert got == want


def test_block_validation_errors():
    with pytest.raises(ch.BlockError):
        ch.BlockData(["a"], [], {"a": [Counter({"a": 2})]})  # not unitriangular
    with pytest.raises(ch.BlockError):
        ch.BlockData(
            ["a", "b"],
            [("a", "b")],
            {"a": [Counter({"a": 1})], "b": [Counter({"b": 1}), Counter({"a": 1})]},
            decomposition={"a": Counter({"a": 1}), "b": Counter({"b": 1})},  # sums disagree
        )
    with pytest.raises(ch.BlockError):
        ch.BlockData(
            ["a", "b"],
            [("a", "b")],
            {"a": [Counter({"a": 1})], "b": [Counter({"b": 1}), Counter({"a": 1})]},
            walls={("a", "s0"): ("up", "b")},  # missing the matching down entry
        )


def test_golden_files_parse_and_match(block):
    golden = ch.parse_lay_text(ch.data_text("sl4.projectives.lay"), block.labels)
    assert len(golden) == 8
    for kind, label, prof in golden:
        assert kind == "proj"
        assert prof == ch.projective_layers(block, label)
    golden = ch.parse_lay_text(ch.data_text("sl4.tiltings.lay"), block.labels)
    assert len(golden) == 8
    for kind, label, prof in golden:
        assert kind == "tilt"
        assert prof == layers_from_placement(ch.SL4_TILTING_PLACEMENTS[label], block.layered)


def test_format_character_descending_order(block):
    c = ch.wall_cross("s2", ch.simple_character("3"), block)
    assert ch.format_character(c, block) == "fl + 2·3 + 2"
    assert ch.format_character(ch.Character("L", {}), block) == "0"
