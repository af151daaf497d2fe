"""Smoke test of the trace harness the benchmark's `--trace 1` runs on.

It wraps library functions by name, so a rename in the library that the
harness still names shows here.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, argv):
    """Run the CLI under the trace harness: the process and its span names."""
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/traced.py", "--spans-out", str(spans_out), "--", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "Traceback" not in proc.stderr
    return proc, {span[2] for span in json.loads(spans_out.read_text(encoding="utf-8"))["spans"]}


def test_traced_rigidity_check_records_spans(tmp_path):
    argv = ["--format", "json", "rigidity", "check", "src/tiltrig/data/ce3.alg", "--weight", "3"]
    proc, names = _traced(tmp_path, argv)
    # ce3's T(3) is not rigid, so the verdict is false
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["rigid_oracle"] is False
    # the benchmark's per-layer modules.radical_series and
    # highest_weight.find_delta_filtration metrics are read off these spans
    spans = {"rigidity.MinimalPresentation", "modules.ext1", "modules.radical_series", "highest_weight.find_delta_filtration"}
    assert spans <= names


def test_traced_selftest_records_bruteforce_spans(tmp_path):
    # the benchmark's per-layer time of the brute-force oracle is read off these spans
    proc, names = _traced(tmp_path, ["selftest"])
    assert proc.returncode == 0, proc.stderr
    assert "rigidity.stretched_subquotients_bruteforce" in names


def test_traced_tilting_build_records_profile_spans(tmp_path):
    # cli imports radical_profile and format_profile when the command runs,
    # so this checks that the harness still wraps the names it reads then
    argv = ["--format", "json", "tilting", "build", "src/tiltrig/data/sl2block.alg", "--weight", "2"]
    proc, names = _traced(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    assert {"modules.radical_profile", "quiver.format_profile"} <= names


# PER_LAYER names that no library function carries: modules.decompose was
# deleted with its sampled certificate, and traced.py counts Mat entries and
# FinDimAlgebra.reduce calls without a span
NOT_SPANNED = {"modules.decompose.calls", "modules.decompose.self_s", "linalg.Mat.entries", "quiver.reduce.calls"}


def test_every_per_layer_metric_names_a_library_function():
    # a rename in the library leaves the benchmark's metric of the old name at 0
    tree = ast.parse((ROOT / "benchmarks" / "run.py").read_text(encoding="utf-8"))
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PER_LAYER"]
    ]
    assert NOT_SPANNED <= set(names)
    assert not hasattr(importlib.import_module("tiltrig.modules"), "decompose")
    for metric in names:
        parts = metric.split(".")
        if len(parts) != 3 or metric in NOT_SPANNED:
            continue  # module-level metrics such as linalg.self_s name no function
        module = importlib.import_module(f"tiltrig.{parts[0]}")
        obj = getattr(module, parts[1], None)
        assert obj is not None, metric
        # a function's span is named for the module that defines it; a class's
        # span wraps its constructor, under the module the harness names
        assert inspect.isclass(obj) or obj.__module__ == module.__name__, metric
