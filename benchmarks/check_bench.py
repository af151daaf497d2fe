"""The benchmark's own tests: family references, the output gate, determinism.

Run from the root of a checkout:  python3 -m pytest -q benchmarks/check_bench.py
(the file name keeps it out of the repository's default test collection,
because the determinism check runs every workload traced, twice).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from family import auslander_alg, auslander_dim, projective_injective_profile  # noqa: E402
from tiltrig.highest_weight import StandardSystem  # noqa: E402
from tiltrig.modules import radical_profile  # noqa: E402
from tiltrig.quiver import parse_alg_text  # noqa: E402


# metrics that count work: identical across traced runs with the same seed
EXACT_SUFFIXES = (".calls", ".cells", ".rref_cells", ".unknowns", ".entries", ".builds", ".repeat_frac")


def _system(n: int, p: int) -> StandardSystem:
    return StandardSystem(parse_alg_text(auslander_alg(n, p), name=f"aus{n}_{p}"))


def _profile(M) -> list:
    return [{k: v for k, v in layer.items() if v} for layer in radical_profile(M)]


# -- family references ---------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5])
def test_family_dimension_and_top_tilting_f3(n):
    sys_ = _system(n, 3)
    assert sys_.algebra.dim == auslander_dim(n) == n * (n + 1) * (2 * n + 1) // 6
    T = sys_.tilting("1")
    assert T.total_dim == n * (n + 1) // 2
    assert T.dims == {str(i): i for i in range(1, n + 1)}
    assert _profile(T) == projective_injective_profile(n) == _profile(sys_.projective(str(n)))


@pytest.mark.parametrize("n", [3, 4])
def test_family_q_matches_f3(n):
    q, f3 = _system(n, 0), _system(n, 3)
    assert q.algebra.dim == f3.algebra.dim == auslander_dim(n)
    weights = q.labels if n == 3 else ["1"]
    for lam in weights:
        assert _profile(q.tilting(lam)) == _profile(f3.tilting(lam))
    for lam in q.labels:
        assert _profile(q.projective(lam)) == _profile(f3.projective(lam))
    assert _profile(q.tilting("1")) == projective_injective_profile(n)


def test_generated_input_dimensions_in_goldens():
    """Every generated input's dimension, as the gated reports record it."""
    goldens = run.load_goldens()
    seen = set()
    for workload in run.WORKLOADS:
        for name in run.inputs_of(workload):
            n, _ = run.INPUTS[name]
            check = goldens.get(f"algebra check {run.alg(name)}")
            if check is not None:
                assert json.loads(check)["dimension"] == auslander_dim(n)
            seen.add(name)
    assert seen == set(run.INPUTS)


# -- output gate ------------------------------------------------------------------------

CHEAP_JOBS = [(("sl4", "tiltings"), 0), (("rigidity", "check", run.CE3, "--weight", "3"), 1)]


def _fail_frac(jobs, goldens, seed=0) -> float:
    result = run.run_pass(jobs, goldens, seed)
    return len(result["failures"]) / result["attempted"]


def test_gate_passes_recorded_outputs_for_any_seed():
    goldens = run.load_goldens()
    assert _fail_frac(CHEAP_JOBS, goldens, seed=7) == 0


def test_gate_catches_corrupted_golden():
    goldens = dict(run.load_goldens())
    key = run.job_id(CHEAP_JOBS[0][0])
    goldens[key] = goldens[key].replace('"2": 1', '"2": 2', 1)
    assert _fail_frac(CHEAP_JOBS, goldens) > 0


def test_gate_catches_flipped_exit_code():
    goldens = run.load_goldens()
    args, code = CHEAP_JOBS[1]
    assert _fail_frac([CHEAP_JOBS[0], (args, 1 - code)], goldens) > 0


def test_gate_catches_traceback():
    assert run.gate(0, "", 0, b"", b"Traceback (most recent call last):\n") is not None


def test_seed_field_is_the_only_ignored_difference():
    assert run.normalise_report(b'{"seed": 17, "weight": "2"}') == b'{"seed": 0, "weight": "2"}'
    assert run.normalise_report(b'{"weight": "17"}') == b'{"weight": "17"}'


# -- determinism of the traced counts -------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    goldens = run.setup(workload)
    counts = []
    for _ in range(2):
        result = run.run_pass(run.WORKLOADS[workload], goldens, seed=3, traced=True)
        assert result["failures"] == []
        layers = run.layer_metrics(result["span_files"])
        counts.append({k: v for k, v in layers.items() if k.endswith(EXACT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert len(counts[0]) == sum(1 for name in run.PER_LAYER if name.endswith(EXACT_SUFFIXES))
