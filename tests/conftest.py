"""Fixtures shared by the test modules."""

import copy
import importlib.util
from pathlib import Path

import numpy as np
import pytest


def _write_csv(path, X, labels=None):
    """Inverse of xsdc.data.load_csv with a trailing label column; floats
    are written with 17 significant digits, a label below 0 as an empty cell."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w") as fh:
        for i in range(X.shape[0]):
            cells = [f"{v:.17g}" for v in X[i]]
            if labels is not None:
                cells.append("" if labels[i] < 0 else str(int(labels[i])))
            fh.write(",".join(cells) + "\n")


@pytest.fixture
def write_csv():
    return _write_csv


def with_mirrors(pins):
    """An upper pin list (rows, cols, values), each pair once with i <= j,
    with the mirror (j, i) of every off-diagonal pair added, in row-major
    order: the entries of M that the list pins."""
    rows, cols, values = pins
    off = rows != cols
    rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], np.concatenate([values, values[off]])[order]


def _load_workloads():
    """The benchmark's workload specs, read from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _cross_cluster_pairs(ds):
    """The pairs workload's must-not-link pairs, as perfbench/worker.py draws them."""
    train_rows = ds.split_indices("train")
    unlabeled = train_rows[ds.labels[train_rows] < 0]
    zero = unlabeled[ds.true_labels[unlabeled] == 0]
    one = unlabeled[ds.true_labels[unlabeled] == 1]
    return [(int(i), int(j), 0.0) for i in zero for j in one]


# seed0_runs keeps every this many-th main-loop balancing problem: 10, 75
# and 25 of the three workloads, about 40 MiB
BALANCE_STRIDE = 4


@pytest.fixture(scope="session")
def seed0_runs():
    """The whitening, pin and balancing inputs of the seed-0 benchmark runs.

    Each of the three workloads trains once through the library, the
    command-line one included.  Returns {workload: dict(whiten=[(K, epsilon,
    dS or None)], known=[(batch_labels, pairs, values)], problems=[...])}:
    every landmark Gram matrix that forward whitened, with the cotangent
    backward fed back when there was one, the arguments of every
    _batch_known call, and every BALANCE_STRIDE-th main-loop
    BalancingProblem, with a copy of its A (the trainer reuses the buffer).
    """
    import xsdc.features
    import xsdc.trainer
    from xsdc import TrainConfig, UlrConfig, make_blobs, train

    runs = {}
    for name, spec in _load_workloads().items():
        whiten, known, problems, seen = [], [], [], [0]

        def recorded_inv_sqrt(K, epsilon, inner=xsdc.features.inv_sqrt):
            entry = [np.array(K), epsilon, None]
            whiten.append(entry)
            S, cache = inner(K, epsilon)
            return S, (cache, entry)

        def recorded_vjp(cache, dS, inner=xsdc.features.inv_sqrt_vjp):
            cache, entry = cache
            entry[2] = np.array(dS)
            return inner(cache, dS)

        def recorded_batch_known(*args, inner=xsdc.trainer._batch_known):
            known.append(tuple(np.array(a) for a in args))
            return inner(*args)

        def recorded_balance(problem, out=None, inner=xsdc.trainer.balance_doubling,
                             b=spec["train"]["batch_size"]):
            if problem.size == b:
                if seen[0] % BALANCE_STRIDE == 0:
                    kept = copy.copy(problem)
                    kept.A = problem.A.copy()
                    problems.append(kept)
                seen[0] += 1
            return inner(problem, out=out)

        ds = make_blobs(seed=0, **spec["data"])
        ulr_keys = ("lam", "learning_rate", "alpha", "rho")
        config = TrainConfig(
            seed=0,
            constraints=_cross_cluster_pairs(ds) if spec["pairs"] else [],
            ulr=UlrConfig(**{k: v for k, v in spec["train"].items() if k in ulr_keys}),
            **{k: v for k, v in spec["train"].items() if k not in ulr_keys},
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xsdc.features, "inv_sqrt", recorded_inv_sqrt)
            mp.setattr(xsdc.features, "inv_sqrt_vjp", recorded_vjp)
            mp.setattr(xsdc.trainer, "_batch_known", recorded_batch_known)
            mp.setattr(xsdc.trainer, "balance_doubling", recorded_balance)
            train(ds, config, mode=spec["mode"])
        runs[name] = dict(
            whiten=[tuple(entry) for entry in whiten], known=known, problems=problems
        )
    return runs
