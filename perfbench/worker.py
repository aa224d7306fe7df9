"""One benchmark training run, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --out RESULT.json --workdir DIR

The runner (run.py) starts this with PYTHONPATH pointing at the checkout's
``src`` and every BLAS thread cap set to 1.  The process clock starts on the
first line below, before numpy or xsdc is imported, so ``setup_s`` covers
the imports, the dataset, the constraint pairs, the TrainConfig validation
and, on the command-line workload, the config parsing.

The result is one JSON file: timings, the main-loop step durations, test
accuracy, peak RSS, a digest of the final landmarks and metrics records,
the environment, the output checks that failed, and, on a traced run, every
span and the per-layer metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import xsdc  # noqa: E402
import xsdc.cli  # noqa: E402
from tracer import CLI_JOB, Tracer, layer_metrics, self_times, subtree  # noqa: E402
from workloads import (  # noqa: E402
    CLI_ARTIFACTS,
    PIN_VIOLATION_BOUND,
    THREAD_CAPS,
    WORKLOADS,
)

_ULR_KEYS = ("lam", "learning_rate", "alpha", "rho")


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
        "xsdc_file": xsdc.__file__,
    }


def cross_cluster_pairs(ds):
    """All must-not-link pairs between unlabeled train rows of classes 0/1."""
    train_rows = ds.split_indices("train")
    unlabeled = train_rows[ds.labels[train_rows] < 0]
    zero = unlabeled[ds.true_labels[unlabeled] == 0]
    one = unlabeled[ds.true_labels[unlabeled] == 1]
    return [(int(i), int(j), 0.0) for i in zero for j in one]


class StepClock:
    """Metrics listener that timestamps every record it is fed."""

    def __init__(self):
        self.stamps = []

    def __call__(self, record):
        self.stamps.append((time.perf_counter(), record["split"]))

    def step_ms(self):
        """Main-loop steps: intervals between records that end in a batch."""
        return [
            1e3 * (t1 - t0)
            for (t0, _), (t1, split) in zip(self.stamps, self.stamps[1:])
            if split == "batch"
        ]


def digest(landmarks, records):
    h = hashlib.sha256(np.ascontiguousarray(landmarks).tobytes())
    h.update(json.dumps(records, sort_keys=True).encode())
    return h.hexdigest()


def run_library(spec, seed, tracer, workdir):
    ds = xsdc.data.make_blobs(seed=seed, **spec["data"])
    train_kw = {k: v for k, v in spec["train"].items() if k not in _ULR_KEYS}
    ulr_kw = {k: v for k, v in spec["train"].items() if k in _ULR_KEYS}
    config = xsdc.TrainConfig(
        seed=seed,
        constraints=cross_cluster_pairs(ds) if spec["pairs"] else [],
        ulr=xsdc.UlrConfig(**ulr_kw),
        **train_kw,
    )
    clock = StepClock()
    start = time.perf_counter()
    state, metrics = xsdc.train(ds, config, mode=spec["mode"], listener=clock)
    end = time.perf_counter()
    labeled = np.asarray(metrics.final_labels) >= 0
    return dict(
        start=start, end=end, clock=clock, state=state, metrics=metrics,
        test_accuracy=metrics.test_accuracy, labeled_rows_frac=float(labeled.mean()),
        failures=[], root_name="trainer.train",
    )


def run_cli(spec, seed, tracer, workdir):
    workdir = Path(workdir)
    out_dir = workdir / "out"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps({
        "format_version": 1,
        "mode": spec["mode"],
        "output_dir": str(out_dir),
        "dataset": dict(type="blobs", seed=seed, **spec["data"]),
        "train": dict(seed=seed, **spec["train"]),
    }))

    clock = StepClock()
    job = {}
    inner = xsdc.cli.train

    def train_with_clock(dataset, config, mode="semi", listener=None):
        # the clock runs in front of the CLI's own progress listener
        job["start"] = time.perf_counter()
        if tracer is not None:
            job["span"] = tracer.begin(CLI_JOB)

        def chained(record):
            clock(record)
            listener(record)

        job["state"], job["metrics"] = inner(dataset, config, mode=mode, listener=chained)
        job["n"] = dataset.n
        return job["state"], job["metrics"]

    stderr = io.StringIO()
    xsdc.cli.train = train_with_clock
    try:
        with contextlib.redirect_stderr(stderr):
            code = xsdc.cli.main(["train", "--config", str(config_path)])
        end = time.perf_counter()
    finally:
        xsdc.cli.train = inner
        if "span" in job:
            tracer.end(job["span"])

    events = [json.loads(line) for line in stderr.getvalue().splitlines()]
    failures = []
    if code != 0:
        failures.append(f"xsdc train exited {code}: {events[-1:]}")
    missing = [name for name in CLI_ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        failures.append(f"missing artifacts {missing}")
    if failures:
        raise RuntimeError("; ".join(failures))
    with open(out_dir / "labels.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != job["n"]:
        failures.append(f"labels.csv has {len(rows)} rows for {job['n']} dataset rows")
    summary = json.loads((out_dir / "summary.json").read_text())
    accuracy = summary["test_accuracy"]
    return dict(
        start=job["start"], end=end, clock=clock, state=job["state"],
        metrics=job["metrics"],
        test_accuracy=float("nan") if accuracy is None else accuracy,
        labeled_rows_frac=sum(int(r["predicted_label"]) >= 0 for r in rows) / len(rows),
        failures=failures, root_name=CLI_JOB, events=len(events),
        artifact_bytes=sum(p.stat().st_size for p in out_dir.iterdir()),
    )


RUNNERS = {"library": run_library, "cli": run_cli}


def output_failures(spec, job):
    """The output checks a run must pass, as messages for the ones it fails."""
    failures = list(job["failures"])
    metrics = job["metrics"]
    bad = [
        r for r in metrics.records
        if r["split"] in ("init", "batch") and not math.isfinite(r["objective"])
    ]
    if bad:
        failures.append(f"{len(bad)} non-finite objective records")
    steps = len(job["clock"].step_ms())
    if steps != spec["train"]["main_iters"]:
        failures.append(f"{steps} main-loop steps, expected {spec['train']['main_iters']}")
    if not job["test_accuracy"] >= spec["accuracy_floor"]:
        failures.append(
            f"test_accuracy {job['test_accuracy']:.4f} below {spec['accuracy_floor']}"
        )
    if spec["pairs"]:
        worst = max((v for _, v in metrics.constraint_violations), default=None)
        if worst is None:
            failures.append("no constrained pair was ever batched")
        elif worst > PIN_VIOLATION_BOUND:
            failures.append(f"worst pin violation {worst:.3e} > {PIN_VIOLATION_BOUND}")
    return failures


def run_workload(name, seed, trace, workdir, spec=None, process_start=None):
    """One training job; returns the JSON-ready result of the run.

    spec overrides the named workload's definition (the self-test runs
    shrunken copies); process_start defaults to this module's import.
    """
    spec = WORKLOADS[name] if spec is None else spec
    process_start = PROCESS_START if process_start is None else process_start
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        job = RUNNERS[spec["kind"]](spec, seed, tracer, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics = job["metrics"]
    result = dict(
        setup_s=job["start"] - process_start,
        train_s=job["end"] - job["start"],
        step_ms=job["clock"].step_ms(),
        test_accuracy=job["test_accuracy"],
        digest=digest(job["state"].layer.landmarks, metrics.records),
        failures=output_failures(spec, job),
    )
    if tracer is not None:
        spans = tracer.spans
        root = max(i for i, span in enumerate(spans) if span[0] == job["root_name"])
        layers = layer_metrics(spans, root)
        layers["trainer.steps"] = sum(r["split"] == "batch" for r in metrics.records)
        layers["trainer.labeled_rows_frac"] = job["labeled_rows_frac"]
        layers["cli.events"] = job.get("events", 0)
        layers["cli.artifact_bytes"] = job.get("artifact_bytes", 0)
        own = self_times(spans)
        result.update(
            layers=layers,
            self_time_sum_s=sum(own[i] for i in subtree(spans, root)),
            spans=spans,
            binding_calls=dict(tracer.calls),
        )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    record = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        env=environment(),
    )
    try:
        record.update(run_workload(args.workload, args.seed, args.trace, args.workdir))
    except Exception as err:  # the run counts as failed; run.py reports it
        record["failures"] = [f"raised {type(err).__name__}: {err}"]
        record["traceback"] = traceback.format_exc()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tmp = f"{args.out}.tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
