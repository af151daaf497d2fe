import json
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

from tiltrig.coeffquiver import extract, layer_profile, lemma_prune, render
from tiltrig.modules import direct_sum, load_rep, radical_profile

# render(extract(M), fmt) for the modules of test_render_matches_the_recorded_output,
# compared byte for byte, so a change of node order, edge order or layout shows
GOLDENS = json.loads((Path(__file__).parent / "coeffquiver_goldens.json").read_text(encoding="utf-8"))


def long_edges(cq):
    """Edges jumping two or more radical layers (stretched arrows)."""
    nodes, edges = cq
    return [(src, dst) for src, dst in edges if nodes[dst][1] - nodes[src][1] >= 2]


def test_extract_simple(sl2):
    nodes, edges = extract(sl2.simple("1"))
    assert len(nodes) == 1 and edges == []


def test_extract_uniserial_path(sl2):
    nodes, edges = extract(sl2.projective("1"))
    assert len(nodes) == 3 and len(edges) == 2
    for src, dst in edges:
        assert nodes[dst][1] == nodes[src][1] + 1


def test_extract_direct_sum_isolated(sl2):
    M, _ = direct_sum([sl2.simple("1"), sl2.simple("2")])
    nodes, edges = extract(M)
    assert len(nodes) == 2 and edges == []


def test_layer_profile_matches_radical_series(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            for M in (sys.projective(lam), sys.tilting(lam)):
                nodes, _ = extract(M)
                got = [Counter(layer) for layer in layer_profile(nodes)]
                assert got == radical_profile(M)
                assert len(nodes) == sum(sum(radical_profile(M), Counter()).values())


def test_edges_strictly_deepen(ce3):
    cq = extract(ce3.tilting("3"))
    nodes, edges = cq
    assert all(nodes[dst][1] > nodes[src][1] for src, dst in edges)
    # the head-to-socle shortcut jumps two layers and is flagged
    longs = long_edges(cq)
    assert len(longs) == 1
    src, dst = longs[0]
    assert nodes[src][0] == "1" and nodes[dst][0] == "3"


def test_render_dot_wellformed(sl2, ce3, dot_is_wellformed):
    for M in (sl2.projective("1"), ce3.tilting("3"), sl2.simple("2")):
        text = render(extract(M), "dot")
        assert dot_is_wellformed(text)
        assert text.count("[label=") == len(extract(M)[0])


def test_render_empty_module(sl2, dot_is_wellformed):
    from tiltrig.modules import Representation

    zero = Representation(sl2.algebra, {}, {})
    cq = extract(zero)
    assert cq == ([], [])
    assert dot_is_wellformed(render(cq, "dot"))


def test_render_ascii(sl2):
    text = render(extract(sl2.projective("1")), "ascii", label_order=["1", "2"])
    assert text == "1 | 2 | 1"


LESS = lambda x, y: (x, y) in {("a", "c")}
EXT = {("a", "c"): True}


def test_lemma_prune_bare_pattern():
    cq = ([("a", 0), ("b", 1), ("c", 2)], [(0, 1), (1, 2)])
    # escape None: the configuration is impossible
    assert lemma_prune(cq, "a", "c", EXT, LESS) == [(0, 1, 2, None)]


def test_lemma_prune_duplicated_middle():
    cq = ([("a", 0), ("b", 1), ("b", 1), ("c", 2)], [(0, 1), (0, 2), (1, 3), (2, 3)])
    verdicts = lemma_prune(cq, "a", "c", EXT, LESS)
    assert verdicts and all(escape == "duplicated-middle" for *_, escape in verdicts)


def test_lemma_prune_second_head():
    cq = ([("a", 0), ("a", 0), ("b", 1), ("c", 2)], [(0, 2), (1, 2), (2, 3)])
    verdicts = lemma_prune(cq, "a", "c", EXT, LESS)
    assert verdicts and all(escape == "second-head" for *_, escape in verdicts)


def test_lemma_prune_middle_below_head_is_skipped():
    # a middle factor strictly below the head weight never triggers the rule
    less = lambda x, y: (x, y) in {("a", "c"), ("b", "a"), ("b", "c")}
    cq = ([("a", 0), ("b", 1), ("c", 2)], [(0, 1), (1, 2)])
    assert lemma_prune(cq, "a", "c", EXT, less) == []


def test_lemma_prune_preconditions():
    cq = ([("a", 0)], [])
    with pytest.raises(ValueError):
        lemma_prune(cq, "a", "c", {}, LESS)  # missing ext-table entry
    with pytest.raises(ValueError):
        lemma_prune(cq, "c", "a", EXT, LESS)  # mu not above lam


def test_render_matches_the_recorded_output(sl2, ce3, auslander):
    modules = {}
    for name, sys in (("sl2block", sl2), ("ce3", ce3), ("aus4_f3", auslander(4, 3))):
        for lam in sys.labels:
            if name != "aus4_f3":
                modules[f"{name} P({lam})"] = sys.projective(lam)
            modules[f"{name} T({lam})"] = sys.tilting(lam)
    modules["sl2_P1.rep"] = load_rep(str(resources.files("tiltrig").joinpath("data", "sl2_P1.rep")))
    got = {f"{name} {fmt}": render(extract(M), fmt) for name, M in modules.items() for fmt in ("dot", "ascii")}
    assert got == GOLDENS
