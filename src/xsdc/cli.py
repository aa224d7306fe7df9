"""Command-line front end.

Subcommands: train, balance, cluster, sweep, gradcheck, smoothness.  Runs
are batch jobs: progress goes to standard error as JSON lines, machine
artifacts (metrics CSV, checkpoints, label files, reports) go to disk, and
files are written atomically (temp then rename).  Exit codes are a stable
contract: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numeric failure.
"""

import argparse
import csv
import itertools
import json
import os
import sys

import numpy as np

from .balancing import BalancingProblem, balance_doubling
from .checks import run_gradcheck, smoothness_report
from .data import (
    assign_splits,
    imbalance,
    load_csv,
    load_libsvm,
    make_blobs,
    standardize,
    whole_number,
)
from .errors import AbortedRun, BalancingDivergence, ParseError, TrainingDiverged
from .labeling import hungarian_match, spectral_cluster
from .trainer import TrainConfig, sweep, train

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_VERSION = 1
_TOP_LEVEL_KEYS = {"format_version", "mode", "dataset", "output_dir", "train"}


def _emit(event, **payload):
    print(json.dumps(dict(event=event, **payload)), file=sys.stderr, flush=True)


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv_rows(path, rows):
    """Stream rows (any iterable) into path.tmp, then move it into place."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )
    os.replace(tmp, path)


def _jsonable(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_run_config(args):
    doc = _read_json(args.config)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if doc.get("format_version") != CONFIG_VERSION:
        raise ValueError(
            f"config format_version must be {CONFIG_VERSION}, "
            f"got {doc.get('format_version')!r}"
        )
    mode = doc.get("mode", "semi")
    train_doc = doc.get("train", {})
    if getattr(args, "seed_override", None) is not None:
        train_doc = {**train_doc, "seed": args.seed_override}
    config = TrainConfig.from_dict(train_doc)
    out_dir = getattr(args, "out_dir", None) or doc.get("output_dir")
    if not out_dir:
        raise ValueError("no output directory (config output_dir or --out-dir)")
    os.makedirs(out_dir, exist_ok=True)
    dataset = _load_dataset(doc.get("dataset"))
    return doc, mode, config, dataset, out_dir


def _load_dataset(spec):
    """The dataset of a config's dataset block.  The loader of "type" takes
    the other keys as keyword arguments, as assign_splits and imbalance take
    the "split" and "imbalance" blocks; an unknown key raises TypeError."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("dataset spec must be an object with a 'type' key")
    # built per call, so a wrapper set on this module's make_blobs is called
    loaders = {"blobs": make_blobs, "csv": load_csv, "libsvm": load_libsvm}
    spec = dict(spec)
    kind = spec.pop("type")
    post_split = spec.pop("split", None)
    post_standardize = spec.pop("standardize", False)
    post_imbalance = spec.pop("imbalance", None)
    if kind not in loaders:
        raise ValueError(f"unknown dataset type {kind!r}")
    if not isinstance(post_standardize, bool):
        raise ValueError(f"standardize must be true or false, got {post_standardize!r}")
    ds = loaders[kind](**spec)
    if post_split is not None:
        ds = assign_splits(ds, **post_split)
    if post_standardize:
        ds = standardize(ds)
    if post_imbalance is not None:
        ds = imbalance(ds, **post_imbalance)
    return ds


def cmd_train(args):
    doc, mode, config, dataset, out_dir = _load_run_config(args)
    _emit("start", command="train", mode=mode, dataset=dataset.name,
          n=dataset.n, d=dataset.d, k=dataset.k, seed=config.seed)
    state, metrics = train(
        dataset, config, mode=mode,
        listener=lambda rec: _emit("metric", **{k: _jsonable(v) for k, v in rec.items()}),
    )
    _write_csv_rows(os.path.join(out_dir, "metrics.csv"), metrics.to_rows())
    _atomic_write(os.path.join(out_dir, "checkpoint.json"), state.best_checkpoint)
    label_rows = itertools.chain(
        [("row_index", "predicted_label", "source")],
        (
            (i, int(metrics.final_labels[i]), metrics.final_sources[i])
            for i in range(dataset.n)
        ),
    )
    _write_csv_rows(os.path.join(out_dir, "labels.csv"), label_rows)
    worst_constraint = (
        max(v for _, v in metrics.constraint_violations)
        if metrics.constraint_violations
        else None
    )
    summary = {
        "format_version": CONFIG_VERSION,
        "mode": mode,
        "seed": config.seed,
        "dataset": dataset.name,
        "iterations": state.iteration,
        "best_val_accuracy": _jsonable(metrics.best_val_accuracy),
        "best_iteration": metrics.best_iteration,
        "test_accuracy": _jsonable(metrics.test_accuracy),
        "report_is_trajectory_max": metrics.report_is_trajectory_max,
        "val_trajectory": [
            [it, _jsonable(acc)] for it, acc in metrics.val_trajectory
        ],
        "constraint_violation_max": _jsonable(worst_constraint)
        if worst_constraint is not None
        else None,
        "config": config.to_dict(),
    }
    _atomic_write(
        os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2)
    )
    _emit("summary", **{
        k: summary[k]
        for k in ("mode", "best_val_accuracy", "best_iteration", "test_accuracy")
    })
    return EXIT_OK


def _read_matrix(path):
    A = np.loadtxt(path, delimiter=",", ndmin=2)
    return A


def _read_constraints(path):
    """Constraint triples i,j,value as read.

    BalancingProblem pins each entry's mirror and rejects conflicting
    values, naming the later triple: i,j,a and later j,i,b as (j, i).
    """
    triples = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 3:
                raise ParseError("expected i,j,value", line=lineno)
            try:
                triples.append((int(cells[0]), int(cells[1]), float(cells[2])))
            except ValueError:
                raise ParseError(f"bad triple {line!r}", line=lineno) from None
    return triples


def cmd_balance(args):
    A = _read_matrix(args.matrix)
    known = _read_constraints(args.constraints) if args.constraints else []
    problem = BalancingProblem(
        A,
        known,
        args.n_min,
        args.n_max,
        mu=args.mu,
        iters=args.iters,
        num_clusters=args.k,
    )
    result = balance_doubling(problem)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv_rows(
        os.path.join(args.out_dir, "balanced.csv"),
        (row.tolist() for row in result.M),
    )
    report = {
        "n": A.shape[0],
        "mu": result.mu,
        "rounds": result.rounds,
        "converged": result.converged,
        "marginal_violation": result.marginal_violation,
        "known_violation": result.known_violation,
        "dual_trajectory": result.dual_trajectory,
    }
    _atomic_write(
        os.path.join(args.out_dir, "balance_report.json"),
        json.dumps(report, indent=2),
    )
    _emit("summary", command="balance",
          marginal_violation=result.marginal_violation, mu=result.mu)
    return EXIT_OK


def cmd_cluster(args):
    M = _read_matrix(args.matrix)
    assign = spectral_cluster(M, args.k, seed=args.seed)
    report = {"n": int(M.shape[0]), "k": int(args.k), "seed": int(args.seed)}
    if args.truth:
        truth = np.loadtxt(args.truth, delimiter=",", ndmin=1)
        if not np.all(np.isfinite(truth) & (truth == np.round(truth))):
            raise ValueError("truth labels must be integers")
        truth = truth.astype(np.int64)
        if truth.shape != (M.shape[0],):
            raise ValueError("truth labels must match matrix rows")
        mask = truth >= 0
        if not mask.any():
            raise ValueError("truth file has no labeled rows")
        mapping, accuracy = hungarian_match(
            assign.labels[mask], truth[mask], args.k
        )
        report["matched_accuracy"] = accuracy
        report["label_mapping"] = [int(c) for c in mapping]
    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv_rows(
        os.path.join(args.out_dir, "cluster_labels.csv"),
        itertools.chain(
            [("row_index", "label")],
            ((i, int(lab)) for i, lab in enumerate(assign.labels)),
        ),
    )
    _atomic_write(
        os.path.join(args.out_dir, "cluster_report.json"),
        json.dumps(report, indent=2),
    )
    _emit("summary", command="cluster",
          matched_accuracy=report.get("matched_accuracy"))
    return EXIT_OK


def cmd_sweep(args):
    doc, mode, config, dataset, out_dir = _load_run_config(args)
    grids = _read_json(args.grids)
    _emit("start", command="sweep", mode=mode, dataset=dataset.name,
          stages=sorted(grids))
    best, rows = sweep(dataset, grids, config, mode=mode)
    _write_csv_rows(
        os.path.join(out_dir, "sweep.csv"),
        [("parameter", "value", "val_accuracy")] + list(rows),
    )
    best_doc = {
        "format_version": CONFIG_VERSION,
        "mode": mode,
        "dataset": doc["dataset"],
        "output_dir": doc.get("output_dir", out_dir),
        "train": best.to_dict(),
    }
    _atomic_write(
        os.path.join(out_dir, "best_config.json"), json.dumps(best_doc, indent=2)
    )
    _emit("summary", command="sweep", stages=len(set(r[0] for r in rows)))
    return EXIT_OK


def cmd_gradcheck(args):
    sizes = tuple(int(s) for s in args.sizes.split(","))
    if len(sizes) != 3:
        raise ValueError(f"sizes must be n,d,p; got {args.sizes!r}")
    failures = []
    for trial in range(whole_number("repeats", args.repeats, 1)):
        results = run_gradcheck(
            seed=args.seed + trial,
            sizes=sizes,
            fault="sign_flip" if args.inject_sign_flip else None,
        )
        for res in results:
            line = (
                f"seed={args.seed + trial} {res.suite}: max_rel_error="
                f"{res.max_rel_error:.3e} tolerance={res.tolerance:g} "
                f"{'PASS' if res.passed else 'FAIL'}"
            )
            if not res.passed:
                line += f" worst_coordinate={res.worst_coordinate}"
                failures.append(res)
            print(line)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_smoothness(args):
    report = smoothness_report(
        B=args.B, n=args.n, n_max=args.n_max, lam=args.lam,
        samples=args.samples, seed=args.seed,
    )
    b = report.bounds
    print(f"forward_gradient_bound  {b.forward_gradient_bound:.6g}  "
          f"empirical {report.empirical_forward_gradient:.6g}")
    print(f"reverse_gradient_bound  {b.reverse_gradient_bound:.6g}  "
          f"empirical {report.empirical_reverse_gradient:.6g}")
    print(f"forward_smoothness      {b.forward_smoothness:.6g}  "
          f"empirical {report.empirical_forward_curvature:.6g}")
    print(f"reverse_smoothness      {b.reverse_smoothness:.6g}  "
          f"empirical {report.empirical_reverse_curvature:.6g}")
    print(f"gradient_crossover      {b.gradient_crossover:.6g}")
    print(f"smoothness_crossover    {b.smoothness_crossover:.6g}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="xsdc",
        description="Joint kernel feature and cluster-label learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed-override", type=int, default=None)
    p_train.add_argument("--out-dir", default=None)
    p_train.set_defaults(func=cmd_train)

    p_bal = sub.add_parser("balance", help="balance one matrix from CSV")
    p_bal.add_argument("--matrix", required=True)
    p_bal.add_argument("--constraints", default=None)
    p_bal.add_argument("--n-min", type=float, required=True)
    p_bal.add_argument("--n-max", type=float, required=True)
    p_bal.add_argument("--mu", type=float, default=None)
    p_bal.add_argument("--iters", type=int, default=10,
                       help="cap on the balancing rounds; they stop earlier "
                       "at a fixed point, every row sum within 1e-9*n_max "
                       "of its row projected onto [n_min, n_max]")
    p_bal.add_argument("--k", type=int, default=None,
                       help="cluster count for the default prior")
    p_bal.add_argument("--out-dir", required=True)
    p_bal.set_defaults(func=cmd_balance)

    p_clu = sub.add_parser("cluster", help="spectral clustering of a matrix")
    p_clu.add_argument("--matrix", required=True)
    p_clu.add_argument("--k", type=int, required=True)
    p_clu.add_argument("--seed", type=int, default=0)
    p_clu.add_argument("--truth", default=None,
                       help="optional CSV of true labels, -1 for unknown")
    p_clu.add_argument("--out-dir", required=True)
    p_clu.set_defaults(func=cmd_cluster)

    p_swp = sub.add_parser("sweep", help="sequential hyperparameter sweep")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--grids", required=True)
    p_swp.add_argument("--seed-override", type=int, default=None)
    p_swp.add_argument("--out-dir", default=None)
    p_swp.set_defaults(func=cmd_sweep)

    p_grd = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p_grd.add_argument("--seed", type=int, default=0)
    p_grd.add_argument("--sizes", default="8,3,4", help="n,d,p")
    p_grd.add_argument("--repeats", type=int, default=1)
    p_grd.add_argument("--inject-sign-flip", action="store_true",
                       help="fault-injection self test; must fail")
    p_grd.set_defaults(func=cmd_gradcheck)

    p_smo = sub.add_parser("smoothness", help="gradient bound verification")
    p_smo.add_argument("--B", type=float, required=True)
    p_smo.add_argument("--n", type=int, required=True)
    p_smo.add_argument("--n-max", type=int, required=True)
    p_smo.add_argument("--lam", type=float, required=True)
    p_smo.add_argument("--samples", type=int, default=1000)
    p_smo.add_argument("--seed", type=int, default=0)
    p_smo.set_defaults(func=cmd_smoothness)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDiverged, AbortedRun, BalancingDivergence) as err:
        _emit("error", error=type(err).__name__, message=str(err),
              exit_code=EXIT_NUMERIC)
        return EXIT_NUMERIC
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as err:
        _emit("error", error=type(err).__name__, message=str(err),
              exit_code=EXIT_CONFIG)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
