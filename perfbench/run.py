"""xsdc benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs one workload from perfbench/workloads.py (or each in turn for ``all``)
from the checkout root.  Every training run is a fresh process
(perfbench/worker.py) with XSDC_THREADS=1 and every BLAS thread cap at 1,
and runs one at a time.  Runs repeat, all on the same seed, until the next
one would end after S seconds, with at least MIN_RUNS of them.

With --trace 0 it reports the end-to-end metrics over the runs: the mean
train_s and step time, the tail step time, and the median setup_s and peak
RSS.  Means, because the host switches between a fast and a slow state for
seconds at a time, and the median of such a mix jumps between the two (see
README.md).  The median step time is printed too.  With --trace 1 it
alternates untraced and traced runs and reports the per-layer metrics of
the traced runs (medians) plus trace.overhead_s, the traced minus the
untraced mean train_s.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A run
fails when it raises, fails an output check, or produces other results than
the first run of the same seed.  Every run's record, the spans of traced
runs included, is kept under perfbench/out/.  The runner refuses to run
(non-zero exit, no result) when src/xsdc is missing, when a child's thread
caps are not all 1, or when a child imported xsdc from elsewhere.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import THREAD_CAPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_RUNS = 3
# one invocation must end within this many seconds
DEADLINE_S = 170.0
# candidate tail percentiles; the tail is the highest one with at least
# TAIL_BEYOND steps beyond it in MIN_RUNS runs
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 75)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("step_ms_mean", "ms"),
    ("step_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


class Refused(Exception):
    """The benchmark cannot produce a trustworthy result here."""


def percentile(values, q):
    """Linearly interpolated percentile, numpy's default rule."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(steps_per_run):
    for q in TAIL_LADDER:
        if MIN_RUNS * steps_per_run * (1 - q / 100.0) >= TAIL_BEYOND:
            return q
    return 50


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_CAPS})
    env["PYTHONPATH"] = str(SRC)
    return env


def code_identity():
    """Git commit when the checkout is a repository, and a source digest."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "xsdc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def run_child(workload, seed, trace, out_dir, index, timeout):
    result_path = out_dir / f"run-{index:02d}-trace{trace}.json"
    workdir = out_dir / f"work-{index:02d}"
    workdir.mkdir()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--out", str(result_path), "--workdir", str(workdir),
    ]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = f"timed out after {timeout:.0f} s"
    wall = time.perf_counter() - started
    shutil.rmtree(workdir, ignore_errors=True)
    if not result_path.is_file():
        return {"trace": trace, "failures": [f"no result: {stderr[-2000:]}"]}, wall
    record = json.loads(result_path.read_text())
    caps = record["env"]["thread_caps"]
    if any(caps.get(name) != "1" for name in THREAD_CAPS):
        raise Refused(f"child thread caps are not all 1: {caps}")
    if Path(record["env"]["xsdc_file"]).resolve().parent != (SRC / "xsdc").resolve():
        raise Refused(f"child imported xsdc from {record['env']['xsdc_file']}")
    return record, wall


def run_workload(workload, seed, seconds, trace):
    """All runs of one workload; returns (run records, their directory)."""
    out_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    # untraced runs only, or untraced/traced pairs
    cycle = (0, 1) if trace else (0,)
    min_runs = len(cycle) if trace else MIN_RUNS
    started = time.perf_counter()
    records, walls = [], []
    while True:
        for t in cycle:
            remaining = DEADLINE_S - (time.perf_counter() - started)
            record, wall = run_child(workload, seed, t, out_dir, len(records), remaining)
            records.append(record)
            walls.append(wall)
        elapsed = time.perf_counter() - started
        next_cycle = len(cycle) * statistics.median(walls)
        if len(records) >= min_runs and elapsed + next_cycle > seconds:
            break
        if elapsed + next_cycle > DEADLINE_S:
            break
    check_agreement(records)
    return records, out_dir


def check_agreement(records):
    """Same seed, same program: every run must reproduce the first result."""
    reference = next((r["digest"] for r in records if "digest" in r), None)
    for record in records:
        if "digest" in record and record["digest"] != reference:
            record["failures"].append("result differs from the first run of this seed")


def end_to_end(records, spec):
    steps = [s for r in records for s in r["step_ms"]]
    q = tail_percentile(spec["train"]["main_iters"])
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "train_s": statistics.mean(r["train_s"] for r in records),
        "step_ms_mean": statistics.mean(steps),
        "step_ms_tail": percentile(steps, q),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    units = dict(END_TO_END)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return metrics, q, statistics.median(steps)


def per_layer(records):
    plain = [r for r in records if r["trace"] == 0]
    traced = [r for r in records if r["trace"] == 1]
    names = traced[0]["layers"]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in names
    }
    metrics["trace.overhead_s"] = statistics.mean(
        r["train_s"] for r in traced
    ) - statistics.mean(r["train_s"] for r in plain)
    return {
        k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(metrics.items())
    }


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_violation_max"):
        return "1"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def report(workload, seed, trace, records, out_dir, identity):
    spec = WORKLOADS[workload]
    ok = [r for r in records if not r["failures"]]
    failed = len(records) - len(ok)
    for index, record in enumerate(records):
        for failure in record["failures"]:
            print(f"{workload} run {index} (trace {record['trace']}) FAILED: {failure}")
    env = next((r["env"] for r in records if "env" in r), {})
    env = dict(env, seed=seed, workload=workload, **identity)
    print("env " + json.dumps(env, sort_keys=True))
    summary = {"env": env, "attempted": len(records), "failed": failed}
    if trace:
        both = {r["trace"] for r in ok} == {0, 1}
        metrics = per_layer(ok) if both else None
    else:
        metrics = None
        if ok:
            metrics, q, p50 = end_to_end(ok, spec)
            print(f"{workload}: step_ms_tail is p{q:g} of {len(ok)} runs x "
                  f"{spec['train']['main_iters']} steps; step_ms_p50 {p50:.6g} ms")
            summary["step_ms_p50"] = p50
    print(f"{workload}: {len(records)} runs, failed_frac {failed / len(records):.3f} ratio")
    if ok:
        print(f"{workload}: test_accuracy {ok[0]['test_accuracy']:.4f} ratio "
              f"(floor {spec['accuracy_floor']})")
    if metrics is None:
        summary["error"] = "no successful run to measure"
    else:
        for name, m in metrics.items():
            print(f"{workload}  {name:40s} {m['value']:14.6g} {m['unit']}")
        summary["metrics"] = metrics
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))
    return len(records), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "xsdc" / "__init__.py").is_file():
        print(f"error: no xsdc sources under {SRC}", file=sys.stderr)
        return 2
    identity = code_identity()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined = {}
    try:
        for name in names:
            records, out_dir = run_workload(name, args.seed, args.seconds, args.trace)
            n, f, metrics = report(name, args.seed, args.trace, records, out_dir, identity)
            attempted += n
            failed += f
            if metrics is None:
                print(f"error: {name}: no successful run", file=sys.stderr)
                return 1
            prefix = f"{name}." if args.workload == "all" else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
    except Refused as err:
        print(f"error: refusing to benchmark: {err}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
