from collections import Counter

import pytest

from tiltrig.coeffquiver import (
    CQEdge,
    CQNode,
    CoefficientQuiver,
    extract,
    lemma_prune,
    render,
)
from tiltrig.modules import direct_sum, radical_profile


def long_edges(cq):
    """Edges jumping two or more radical layers (stretched arrows)."""
    by_id = {n.id: n for n in cq.nodes}
    return [e for e in cq.edges if by_id[e.dst].layer - by_id[e.src].layer >= 2]


def test_extract_simple(sl2):
    cq = extract(sl2.simple("1"))
    assert len(cq.nodes) == 1 and cq.edges == []


def test_extract_uniserial_path(sl2):
    cq = extract(sl2.projective("1"))
    assert len(cq.nodes) == 3 and len(cq.edges) == 2
    by_id = {n.id: n for n in cq.nodes}
    for e in cq.edges:
        assert by_id[e.dst].layer == by_id[e.src].layer + 1


def test_extract_direct_sum_isolated(sl2):
    M, _ = direct_sum([sl2.simple("1"), sl2.simple("2")])
    cq = extract(M)
    assert len(cq.nodes) == 2 and cq.edges == []


def test_layer_profile_matches_radical_series(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            for M in (sys.projective(lam), sys.tilting(lam)):
                cq = extract(M)
                got = [Counter(layer) for layer in cq.layer_profile()]
                assert got == radical_profile(M)
                assert len(cq.nodes) == sum(sum(radical_profile(M), Counter()).values())


def test_edges_strictly_deepen(ce3):
    cq = extract(ce3.tilting("3"))
    by_id = {n.id: n for n in cq.nodes}
    assert all(by_id[e.dst].layer > by_id[e.src].layer for e in cq.edges)
    # the head-to-socle shortcut jumps two layers and is flagged
    longs = long_edges(cq)
    assert len(longs) == 1
    e = longs[0]
    assert by_id[e.src].label == "1" and by_id[e.dst].label == "3"


def test_render_dot_wellformed(sl2, ce3, dot_is_wellformed):
    for M in (sl2.projective("1"), ce3.tilting("3"), sl2.simple("2")):
        text = render(extract(M), "dot")
        assert dot_is_wellformed(text)
        assert text.count("[label=") == len(extract(M).nodes)


def test_render_empty_module(sl2, dot_is_wellformed):
    from tiltrig.modules import Representation

    zero = Representation(sl2.algebra, {}, {})
    cq = extract(zero)
    assert cq.nodes == [] and cq.edges == []
    assert dot_is_wellformed(render(cq, "dot"))


def test_render_ascii(sl2):
    text = render(extract(sl2.projective("1")), "ascii", label_order=["1", "2"])
    assert text == "1 | 2 | 1"


LESS = lambda x, y: (x, y) in {("a", "c")}
EXT = {("a", "c"): True}


def test_lemma_prune_bare_pattern():
    cq = CoefficientQuiver(
        [CQNode(0, "a", 0), CQNode(1, "b", 1), CQNode(2, "c", 2)],
        [CQEdge(0, 1), CQEdge(1, 2)],
    )
    (v,) = lemma_prune(cq, "a", "c", EXT, LESS)
    assert v.verdict == "IMPOSSIBLE" and v.escape is None


def test_lemma_prune_duplicated_middle():
    cq = CoefficientQuiver(
        [CQNode(0, "a", 0), CQNode(1, "b", 1), CQNode(2, "b", 1), CQNode(3, "c", 2)],
        [CQEdge(0, 1), CQEdge(0, 2), CQEdge(1, 3), CQEdge(2, 3)],
    )
    verdicts = lemma_prune(cq, "a", "c", EXT, LESS)
    assert verdicts and all(v.verdict == "POSSIBLE" and v.escape == "duplicated-middle" for v in verdicts)


def test_lemma_prune_second_head():
    cq = CoefficientQuiver(
        [CQNode(0, "a", 0), CQNode(1, "a", 0), CQNode(2, "b", 1), CQNode(3, "c", 2)],
        [CQEdge(0, 2), CQEdge(1, 2), CQEdge(2, 3)],
    )
    verdicts = lemma_prune(cq, "a", "c", EXT, LESS)
    assert verdicts and all(v.verdict == "POSSIBLE" and v.escape == "second-head" for v in verdicts)


def test_lemma_prune_middle_below_head_is_skipped():
    # a middle factor strictly below the head weight never triggers the rule
    less = lambda x, y: (x, y) in {("a", "c"), ("b", "a"), ("b", "c")}
    cq = CoefficientQuiver(
        [CQNode(0, "a", 0), CQNode(1, "b", 1), CQNode(2, "c", 2)],
        [CQEdge(0, 1), CQEdge(1, 2)],
    )
    assert lemma_prune(cq, "a", "c", EXT, less) == []


def test_lemma_prune_preconditions():
    cq = CoefficientQuiver([CQNode(0, "a", 0)], [])
    with pytest.raises(ValueError):
        lemma_prune(cq, "a", "c", {}, LESS)  # missing ext-table entry
    with pytest.raises(ValueError):
        lemma_prune(cq, "c", "a", EXT, LESS)  # mu not above lam
