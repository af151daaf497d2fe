from collections import Counter

import pytest

from tiltrig import highest_weight
from tiltrig.characters import layers_from_placement, projective_layers
from tiltrig.highest_weight import FiltrationFailure, check_radical_respecting, find_delta_filtration
from tiltrig.modules import direct_sum, ext1, is_rigid, loewy_length, radical_profile
from tiltrig.rigidity import (
    MinimalPresentation,
    PositionedLifting,
    detect_stretched,
    filtered_ext1_delta,
    filtered_hom,
    positioned_lifting,
    rigidity_pipeline,
    stretched_subquotients_bruteforce,
)
from tiltrig.modules import hom_space, morphism_coords


def test_filtered_hom_examples(sl2):
    P1 = sl2.projective("1")
    assert filtered_hom(P1, P1, 0).dim == 2
    assert filtered_hom(P1, P1, 2).dim == 1
    # far-negative shift: every condition is vacuous
    assert filtered_hom(P1, P1, -loewy_length(P1)).dim == len(hom_space(P1, P1))


def test_filtered_hom_monotone(sl2):
    P1, P2 = sl2.projective("1"), sl2.projective("2")
    for M, N in ((P1, P1), (P1, P2), (P2, P1)):
        dims = [filtered_hom(M, N, r).dim for r in range(-3, 4)]
        assert dims == sorted(dims, reverse=True)


def test_filtered_hom_shift_coherence(sl2):
    # maps of shift r out of M are shift-0 maps out of M with layers relabelled:
    # check through the presentation machinery on the syzygy side instead,
    # where positions enter explicitly.
    lift = positioned_lifting(sl2, "1", sl2.tilting("2"))
    for s in range(-2, 3):
        assert lift.deep(s).contains_space(lift.deep(s + 1))


def test_minimal_presentation_positions(sl2, ce3):
    pres = MinimalPresentation(sl2, "1")
    assert [(g.label, g.depth) for g in pres.generators] == [("2", 1)]
    pres = MinimalPresentation(sl2, "2")
    assert pres.generators == [] and pres.syzygy.total_dim == 0
    pres = MinimalPresentation(ce3, "1")
    assert sorted((g.label, g.depth) for g in pres.generators) == [("2", 1), ("3", 1)]


def test_filtered_ext_far_negative_equals_ordinary(sl2, ce3):
    for sys in (sl2, ce3):
        for lam in sys.labels:
            for N in (sys.tilting(max(sys.labels)), sys.simple(lam)):
                ell = loewy_length(N) + 1
                res = filtered_ext1_delta(sys, lam, -ell, N)
                assert res.dim == ext1(sys.standard(lam), N).dim


def test_filtered_ext_vanishes_on_sl2_tilting(sl2):
    T2 = sl2.tilting("2")
    for lam in sl2.labels:
        for r in range(-3, 4):
            assert filtered_ext1_delta(sl2, lam, r, T2).dim == 0


def test_filtered_ext_nonzero_on_ce3(ce3):
    T3 = ce3.tilting("3")
    assert filtered_ext1_delta(ce3, "1", 1, T3).dim == 1
    assert filtered_ext1_delta(ce3, "1", 0, T3).dim == 0


def test_detect_semisimple_passes(sl2):
    M, _, _ = direct_sum([sl2.simple("1"), sl2.simple("2")])
    assert detect_stretched(sl2, M, "delta-L").ok
    assert detect_stretched(sl2, M, "L-nabla").ok


def test_detect_sl2_tilting_passes(sl2):
    T2 = sl2.tilting("2")
    assert detect_stretched(sl2, T2, "delta-L").ok
    assert detect_stretched(sl2, T2, "L-nabla").ok


def test_detect_ce3_fails_with_recheckable_witness(ce3):
    T3 = ce3.tilting("3")
    report = detect_stretched(ce3, T3, "delta-L")
    assert not report.ok
    fails = report.failures()
    assert [(e.label, e.layer) for e in fails] == [("1", 1)]
    wit = fails[0].witness
    # the witness is a nonzero syzygy hom that is 1-deep but not liftable,
    # rechecked on spaces built afresh rather than on the detector's memo
    lift = PositionedLifting(ce3, "1", T3)
    assert lift is not positioned_lifting(ce3, "1", T3)
    coords = morphism_coords(lift.hom_syz, wit)
    assert coords is not None and any(c for c in coords)
    assert lift.deep(1).contains(coords)
    assert not lift.boundary(1).contains(coords)


def test_theorem_path_builds_each_object_once(monkeypatch, auslander):
    sys = auslander(4, 3)
    presentations, filtrations = Counter(), []
    build_presentation = MinimalPresentation.__init__
    find = highest_weight.find_delta_filtration

    def counted_presentation(pres, sys_, lam):
        presentations[(id(sys_), lam)] += 1
        build_presentation(pres, sys_, lam)

    def counted_find(sys_, M):
        filtrations.append(M)
        return find(sys_, M)

    monkeypatch.setattr(MinimalPresentation, "__init__", counted_presentation)
    monkeypatch.setattr(highest_weight, "find_delta_filtration", counted_find)
    rigidity_pipeline(sys, "1", method="both")
    assert presentations == Counter({(id(sys), lam): 1 for lam in sys.labels})
    assert len(filtrations) == len(sys.labels)
    assert all(M is sys.projective(mu) for M, mu in zip(filtrations, sys.labels))


@pytest.mark.parametrize("system", ["sl2", "ce3", "aus3_f3", "aus4_f3", "aus3_q"])
def test_character_and_module_layer_formulas_agree(system, request, auslander):
    n_p = {"aus3_f3": (3, 3), "aus4_f3": (4, 3), "aus3_q": (3, 0)}
    sys = auslander(*n_p[system]) if system in n_p else request.getfixturevalue(system)
    block = sys.block()
    reciprocal = []
    for mu in sys.labels:
        actual = radical_profile(sys.projective(mu))
        placement = sys.projective_filtration(mu).placement()
        assert layers_from_placement(placement, block) == actual, mu
        reciprocal.append(projective_layers(block, mu) == actual)
    # reciprocity reads the placement of P(mu) off the Delta table alone only
    # when a duality swaps Delta and nabla; ce3 has none, and there it fails
    assert all(reciprocal) == (sys.algebra.duality_pairs is not None)


def test_enumerator_agrees_on_spot_fixtures(sl2_f2, ce3):
    T2 = sl2_f2.tilting("2")
    assert stretched_subquotients_bruteforce(sl2_f2, T2, "delta-L") == []
    wits = stretched_subquotients_bruteforce(ce3, ce3.tilting("3"), "delta-L")
    assert len(wits) == 1
    assert wits[0].label == "1" and wits[0].mu == "3"


def test_enumerator_rejects_rationals(sl2):
    with pytest.raises(Exception):
        stretched_subquotients_bruteforce(sl2, sl2.tilting("2"), "delta-L")


def test_pipeline_sl2(sl2):
    rep = rigidity_pipeline(sl2, "2")
    assert rep["hypothesis"]["ok"]
    assert rep["rigid_theorem"] is True
    assert rep["rigid_oracle"] is True
    assert rep["consistent"]
    assert rep["filteredExt_all_vanish"]
    rep = rigidity_pipeline(sl2, "1")
    assert rep["rigid_theorem"] is True and rep["rigid_oracle"] is True


def test_pipeline_ce3_theorem_silent(ce3):
    rep = rigidity_pipeline(ce3, "3")
    assert rep["hypothesis"]["ok"]
    assert rep["rigid_theorem"] == "n/a"  # stretched found: theorem says nothing
    assert rep["rigid_oracle"] is False
    assert rep["consistent"]
    assert not rep["filteredExt_all_vanish"]


def test_theorem_consistency_all_bundled(sl2, ce3):
    # detector pass on both sides ==> rigid, on every bundled QH algebra
    for sys in (sl2, ce3):
        for lam in sys.labels:
            T = sys.tilting(lam)
            both = detect_stretched(sys, T, "delta-L").ok and detect_stretched(sys, T, "L-nabla").ok
            if both:
                assert is_rigid(T)[0], (sys.algebra.name, lam)


def test_converse_on_bgg_inputs(sl2):
    # rigid + radical-respecting standard filtration ==> detector passes
    for lam in sl2.labels:
        T = sl2.tilting(lam)
        filt = find_delta_filtration(sl2, T)
        assert not isinstance(filt, FiltrationFailure)
        ok, _, _ = check_radical_respecting(sl2, T, filt)
        if is_rigid(T)[0] and ok:
            assert detect_stretched(sl2, T, "delta-L").ok
            assert detect_stretched(sl2, T, "L-nabla").ok


def test_filtered_ext_bridge(sl2, ce3):
    # detector pass on the standard side + radical-respecting filtration
    # ==> filtered Ext vanishes at every weight and shift in range
    for sys in (sl2, ce3):
        for lam in sys.labels:
            T = sys.tilting(lam)
            filt = find_delta_filtration(sys, T)
            if isinstance(filt, FiltrationFailure):
                continue
            respecting, _, _ = check_radical_respecting(sys, T, filt)
            if not (respecting and detect_stretched(sys, T, "delta-L").ok):
                continue
            ell = loewy_length(T)
            for mu in sys.labels:
                for r in range(-ell, ell + 1):
                    assert filtered_ext1_delta(sys, mu, r, T).dim == 0
