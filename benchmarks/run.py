"""tiltrig benchmark: CLI workloads timed end to end, one process per job.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload ringel-q --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --record-goldens

Each job runs as its own `python3 -m tiltrig.cli` process with `src` on the
path, so no in-process cache survives from one job to the next and interpreter
start-up and import count as part of the job.  Jobs run one at a time from
this process: a closed loop with one client.  `--seed` is passed as the CLI
`--seed` of every job; it may change how long a job takes, never its report.

Every job is gated: its exit code must equal the expected one, its stderr
must hold no traceback, and its `--format json` report must equal, byte for
byte, the golden recorded in `goldens.json` (the `seed` field is ignored).

With `--trace 0` the last line of stdout holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics from `traced.py` spans, plus
`trace.overhead_frac`.  Everything the benchmark writes goes to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from family import auslander_alg  # noqa: E402
from traced import MODULES, NOTE as TRACE_NOTE  # noqa: E402

ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDENS = BENCH / "goldens.json"
JOB_TIMEOUT_S = 120
SETUPS_PER_PASS = 3

SL2 = "src/tiltrig/data/sl2block.alg"
CE3 = "src/tiltrig/data/ce3.alg"
SL2_P1 = "src/tiltrig/data/sl2_P1.rep"

# generated inputs: name -> (n, p) of the Auslander algebra of K[x]/(x^n) over F_p (Q for p = 0)
INPUTS = {"aus3_q": (3, 0), "aus4_q": (4, 0), "aus4_f3": (4, 3), "aus5_f3": (5, 3), "aus6_f3": (6, 3)}


INPUT_DIR = ".bench_work/inputs"


def alg(name: str) -> str:
    return f"{INPUT_DIR}/{name}.alg"


# workload -> list of (CLI arguments after the global options, expected exit code)
WORKLOADS = {
    # Fraction arithmetic and the sampled decompose certificate dominate.
    "ringel-q": [
        (("tilting", "build", alg("aus3_q"), "--weight", "1"), 0),
        (("tilting", "build", alg("aus3_q"), "--weight", "2"), 0),
        (("tilting", "build", alg("aus3_q"), "--weight", "3"), 0),
        (("tilting", "build", alg("aus4_q"), "--weight", "1"), 0),
        (("rigidity", "check", SL2, "--weight", "2"), 0),
    ],
    # The filtered-Ext sweep and detect_stretched rebuild presentations and hom spaces.
    "theorem-f3": [
        (("rigidity", "check", alg("aus4_f3"), "--weight", "1", "--method", "theorem"), 0),
        (("rigidity", "check", alg("aus4_f3"), "--weight", "1", "--method", "direct"), 0),
        (("rigidity", "check", alg("aus5_f3"), "--weight", "1", "--method", "theorem"), 0),
        (("rigidity", "check", alg("aus5_f3"), "--weight", "1", "--method", "direct"), 0),
        (("rigidity", "check", alg("aus5_f3"), "--weight", "3", "--method", "theorem"), 0),
    ],
    # A few wide F_p eliminations inside build_algebra; no rigidity, no decompose.
    "build-f3": [
        (("algebra", "check", alg("aus6_f3")), 0),
        (("qh", "verify", alg("aus5_f3")), 0),
    ],
    # Tiny inputs: characters, coeffquiver and the brute-force enumerator; ce3 is non-rigid.
    "selftest": [
        (("selftest",), 0),
        (("sl4", "projectives"), 0),
        (("sl4", "tiltings"), 0),
        (("qh", "verify", SL2), 0),
        (("rigidity", "check", CE3, "--weight", "3"), 1),
        (("render", SL2_P1), 0),
    ],
}

END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics reported by a traced run, in BENCHMARK.json order
PER_LAYER = [
    "linalg.self_s", "linalg.rref.calls", "linalg.rref.cells", "linalg.rref.self_s",
    "linalg.kernel_basis.calls", "linalg.solve.calls", "linalg.Subspace.calls", "linalg.Mat.entries",
    "quiver.self_s", "quiver.build_algebra.calls", "quiver.build_algebra.self_s",
    "quiver.build_algebra.rref_cells", "quiver.reduce.calls",
    "modules.decompose.calls", "modules.decompose.self_s", "modules.ext1.calls", "modules.ext1.self_s",
    "highest_weight.ringel_tilting.self_s", "highest_weight.universal_extension.calls",
    "modules.hom_space.calls", "modules.hom_space.self_s", "modules.hom_space.unknowns",
    "modules.hom_space.repeat_frac",
    "rigidity.MinimalPresentation.builds", "rigidity.MinimalPresentation.self_s",
    "rigidity.filtered_ext1_delta.calls", "rigidity.filtered_ext1_delta.self_s",
    "rigidity.detect_stretched.calls", "rigidity.detect_stretched.self_s", "rigidity.self_s",
    "modules.radical_series.calls", "modules.radical_series.self_s",
    "modules.socle_series.calls", "modules.socle_series.self_s",
    "modules.is_rigid.self_s", "modules.self_s",
    "highest_weight.find_delta_filtration.self_s", "highest_weight.check_quasihereditary.self_s",
    "highest_weight.check_bgg.self_s", "highest_weight.self_s",
    "characters.self_s", "characters.solve_placement.calls", "characters.solve_placement.self_s",
    "characters.projective_layers.calls", "coeffquiver.self_s", "coeffquiver.extract.calls",
    "rigidity.stretched_subquotients_bruteforce.self_s", "acceptance.self_s",
    "cli.self_s", "trace.overhead_frac",
]


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, goldens or inputs)."""


def job_id(args) -> str:
    return " ".join(args)


def cli_argv(args, seed: int, spans_out: Path = None) -> list:
    head = [sys.executable, "-m", "tiltrig.cli"]
    if spans_out is not None:
        head = [sys.executable, str(BENCH / "traced.py"), "--spans-out", str(spans_out), "--"]
    return head + ["--format", "json", "--seed", str(seed)] + list(args)


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


_SEED_FIELD = re.compile(rb'"seed": -?\d+')


def normalise_report(stdout: bytes) -> bytes:
    """The report with its `seed` field set to 0, the only byte allowed to differ."""
    return _SEED_FIELD.sub(b'"seed": 0', stdout)


def write_inputs(names) -> None:
    inputs = ROOT / INPUT_DIR
    inputs.mkdir(parents=True, exist_ok=True)
    for name in names:
        n, p = INPUTS[name]
        (inputs / f"{name}.alg").write_text(auslander_alg(n, p), encoding="utf-8")


def inputs_of(workload: str) -> list:
    return sorted(name for name in INPUTS if any(alg(name) in args for args, _ in WORKLOADS[workload]))


def load_goldens() -> dict:
    if not GOLDENS.is_file():
        raise BenchError(f"missing {GOLDENS.relative_to(ROOT)}")
    with open(GOLDENS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload: str) -> dict:
    """Write the workload's inputs, load the goldens, start one interpreter that imports the CLI.

    The import also byte-compiles `tiltrig` in a fresh checkout, so the first
    timed job does not pay for it.
    """
    if not (ROOT / "src" / "tiltrig" / "cli.py").is_file():
        raise BenchError("no tiltrig sources under src/; run from the root of a checkout")
    write_inputs(inputs_of(workload))
    goldens = load_goldens()
    probe = subprocess.run(
        [sys.executable, "-c", "import tiltrig.cli"], cwd=ROOT, env=job_env(), capture_output=True, timeout=JOB_TIMEOUT_S
    )
    if probe.returncode != 0:
        raise BenchError("cannot import tiltrig.cli: " + probe.stderr.decode(errors="replace").strip()[-300:])
    return goldens


def run_job(argv, env) -> tuple:
    """Run one job; return (seconds, exit code, peak RSS in MB, stdout, stderr)."""
    out_path, err_path = WORK / "job.out", WORK / "job.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_bytes(), err_path.read_bytes()


def gate(expected_exit: int, golden, code: int, stdout: bytes, stderr: bytes):
    """Why a job failed, or None when its exit code, stderr and report are as expected."""
    if b"Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    if code != expected_exit:
        return f"exit code {code}, expected {expected_exit}"
    if golden is None:
        return "no golden report"
    if normalise_report(stdout) != golden.encode("utf-8"):
        return "report differs from golden"
    return None


def run_pass(jobs, goldens: dict, seed: int, traced: bool = False) -> dict:
    """One pass over a job list, each job in a fresh process, one at a time.

    `wall_s` is the sum of the job times.  With `traced`, each job also runs
    under `traced.py` right after its untraced run, so that both runs of a job
    see the same machine load; their sum is `traced_wall_s`.
    """
    env = job_env()
    times, traced_times, rss, failures, span_files = [], [], [], [], []
    for i, (args, expected_exit) in enumerate(jobs):
        for spans_out in [None, WORK / "spans" / f"job{i}.json"] if traced else [None]:
            if spans_out is not None:
                spans_out.parent.mkdir(parents=True, exist_ok=True)
                spans_out.unlink(missing_ok=True)
            elapsed, code, peak, stdout, stderr = run_job(cli_argv(args, seed, spans_out), env)
            reason = gate(expected_exit, goldens.get(job_id(args)), code, stdout, stderr)
            if spans_out is None:
                times.append(elapsed)
                rss.append(peak)
            else:
                traced_times.append(elapsed)
                if spans_out.is_file():
                    span_files.append(spans_out)
                else:
                    reason = reason or "no spans written"
            if reason is not None:
                failures.append(f"{job_id(args)}: {reason}")
    return {
        "wall_s": sum(times),
        "slowest_job_s": max(times),
        "peak_rss_mb": max(rss),
        "traced_wall_s": sum(traced_times),
        "attempted": len(times) + len(traced_times),
        "failures": failures,
        "span_files": span_files,
    }


# -- spans -> per-layer metrics ------------------------------------------------------


def layer_metrics(span_files) -> dict:
    """Per-layer counts and self times summed over the jobs of one traced pass."""
    acc = defaultdict(float)
    hom_repeats = 0
    for path in span_files:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        child_ns = defaultdict(int)
        parent_of, name_of = {}, {}
        for sid, parent, name, start, end, _ in spans:
            child_ns[parent] += end - start
            parent_of[sid], name_of[sid] = parent, name
        for sid, parent, name, start, end, info in spans:
            self_s = (end - start - child_ns[sid]) / 1e9
            acc[name.split(".", 1)[0] + ".self_s"] += self_s
            acc[name + ".self_s"] += self_s
            acc[name + ".calls"] += 1
            if name == "linalg.rref":
                acc["linalg.rref.cells"] += info
                if _has_ancestor(parent, "quiver.build_algebra", parent_of, name_of):
                    acc["quiver.build_algebra.rref_cells"] += info
            elif name == "modules.hom_space":
                acc["modules.hom_space.unknowns"] += info[0]
                hom_repeats += info[1]
        for key, value in data["counters"].items():
            acc[key] += value
    calls = acc["modules.hom_space.calls"]
    acc["modules.hom_space.repeat_frac"] = hom_repeats / calls if calls else 0.0
    acc["rigidity.MinimalPresentation.builds"] = acc["rigidity.MinimalPresentation.calls"]
    metrics = {}
    for name in PER_LAYER[:-1]:
        value = acc.get(name, 0.0)
        metrics[name] = int(value) if per_layer_unit(name) == "count" else value
    return metrics


def _has_ancestor(sid: int, name: str, parent_of: dict, name_of: dict) -> bool:
    while sid:
        if name_of[sid] == name:
            return True
        sid = parent_of[sid]
    return False


# -- measurement -------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run passes for about `seconds` (at least one pass).

    Another pass starts while the run would overshoot `seconds` by at most
    half a pass.  Set-up is repeated before every pass, so that its median
    samples the whole run rather than its first second.
    """
    jobs = WORKLOADS[workload]
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            setup_start = time.perf_counter()
            goldens = setup(workload)
            setups.append(time.perf_counter() - setup_start)
        passes.append(run_pass(jobs, goldens, seed, traced=trace))
        if trace:
            passes[-1]["layers"] = layer_metrics(passes[-1]["span_files"])
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            break

    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "passes": len(passes),
        "setup_s": statistics.median(setups),
    }
    for key in ("wall_s", "slowest_job_s", "peak_rss_mb"):
        result[key] = statistics.median(p[key] for p in passes)
    if trace:
        layers = [p["layers"] for p in passes]
        result["layers"] = {name: statistics.median_low(l[name] for l in layers) for name in layers[0]}
        result["layers"]["trace.overhead_frac"] = statistics.median(p["traced_wall_s"] / p["wall_s"] for p in passes) - 1
    return result


def report(workload: str, result: dict, trace: bool) -> dict:
    failed = len(result["failures"])
    attempted = result["attempted"]
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    print(f"workload {workload}: {result['passes']} pass(es)")
    print(f"  fail_frac = {failed / attempted:.6g} frac ({failed} of {attempted} jobs failed)")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} = {result[name]:.6g} {unit}")
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": per_layer_unit(name)} for name in PER_LAYER}
        by_module = {m: result["layers"][m + ".self_s"] for m in MODULES}
        total = sum(by_module.values()) or 1.0
        shares = ", ".join(f"{m} {v / total:.1%}" for m, v in sorted(by_module.items(), key=lambda kv: -kv[1]))
        print(f"  self-time share by module: {shares}")
        print(f"  note: {TRACE_NOTE}")
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_goldens() -> None:
    """Rewrite goldens.json from the current code at seed 0 (use only when outputs may change)."""
    goldens = {}
    for workload, jobs in WORKLOADS.items():
        write_inputs(inputs_of(workload))
        for args, expected_exit in jobs:
            _, code, _, stdout, stderr = run_job(cli_argv(args, 0), job_env())
            if code != expected_exit or b"Traceback" in stderr:
                raise BenchError(f"{job_id(args)}: exit {code}, expected {expected_exit}")
            goldens[job_id(args)] = normalise_report(stdout).decode("utf-8")
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tiltrig CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true", help="rewrite goldens.json at seed 0")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        WORK.mkdir(exist_ok=True)
        if args.record_goldens:
            record_goldens()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
