"""Smoke test of the trace harness the benchmark's `--trace 1` runs on.

It wraps library functions by name, so a rename in the library that the
harness still names shows here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_rigidity_check_records_spans(tmp_path):
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["--format", "json", "rigidity", "check", "src/tiltrig/data/ce3.alg", "--weight", "3"]
    proc = subprocess.run(
        [sys.executable, "benchmarks/traced.py", "--spans-out", str(spans_out), "--", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    # ce3's T(3) is not rigid, so the verdict is false
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["rigid_oracle"] is False
    names = {span[2] for span in json.loads(spans_out.read_text(encoding="utf-8"))["spans"]}
    assert {"rigidity.MinimalPresentation", "modules.ext1"} <= names
