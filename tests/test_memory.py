"""Peak memory of one training step's kernels, in (n, n) float64 arrays,
and the page faults of a whole run.

tracemalloc sees every numpy data buffer, so the traced peak of a call is
the most its arrays hold at once, returned value included (BLAS work space
is not counted).  At b = 1024 rows an (n, n) array is 8 MiB, and every
(n, p) array together stays far below a tenth of that.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import xsdc
from xsdc.balancing import BalancingProblem, balance_doubling
from xsdc.data import Dataset
from xsdc.features import NystromLayer, forward
from xsdc.linalg import ridge_kernel
from xsdc.trainer import (
    _NO_CONSTRAINTS,
    RunMetrics,
    TrainConfig,
    TrainState,
    _batch_known,
    _step,
)
from xsdc.ulr import UlrConfig, ulr_step

B, P, D = 1024, 8, 10
LAM = 0.1


def _peak_arrays(call):
    """Traced peak of call() in (B, B) float64 arrays."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / (B * B * 8)
    finally:
        tracemalloc.stop()


def _batch():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(B, D))
    layer = NystromLayer(landmarks=rng.normal(size=(D, P)), sigma=2.0)
    return layer, X, forward(layer, X, normalize=True)


def test_ridge_kernel_peak():
    # one (n, n) buffer, the returned A; the O(n^3) solve held four
    _, _, feats = _batch()
    assert _peak_arrays(lambda: ridge_kernel(feats.phi, LAM)) <= 2.1


def test_ulr_step_given_kernel_builds_no_square_array():
    layer, X, feats = _batch()
    A = ridge_kernel(feats.phi, LAM)
    labels = np.random.default_rng(1).integers(0, 4, size=B)
    M = 0.9 * (labels[:, None] == labels[None, :]) + 0.01
    config = UlrConfig(lam=LAM)
    peak = _peak_arrays(lambda: ulr_step(layer, X, M, config, batch=feats, A=A))
    assert peak < 0.2


def _pinned_batch():
    """A batch kernel and its pins: the diagonal and a labeled block."""
    _, _, feats = _batch()
    rng = np.random.default_rng(2)
    labels = np.where(rng.random(B) < 0.1, rng.integers(0, 4, size=B), -1)
    known = _batch_known(labels, np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    return ridge_kernel(feats.phi, LAM), known


def test_problem_keeps_no_square_pin_state():
    # the pin list and the (n, n) bool finiteness check of A, 0.125
    A, known = _pinned_batch()
    peak = _peak_arrays(lambda: BalancingProblem(A, known, 200.0, 312.0, iters=5))
    assert peak <= 0.25


def test_balance_forms_M_in_the_kernel_buffer():
    # the free kernel, which becomes M in place; its finiteness is checked
    # through its max, with no (n, n) bool array
    A, known = _pinned_batch()

    def call():
        problem = BalancingProblem(A, known, 200.0, 312.0, iters=5, num_clusters=4)
        return balance_doubling(problem)

    assert _peak_arrays(call) <= 1.5


def _semi_step(buffers=(None, None)):
    """A call that runs one main-loop step on a semi batch, and its state."""
    layer, X, _ = _batch()
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 4, size=B)
    labels = np.where(rng.random(B) < 0.1, truth, -1)
    dataset = Dataset("memory", X, labels, 4, np.full(B, "train"), truth)
    config = TrainConfig(ulr=UlrConfig(lam=LAM))
    state = TrainState(layer=layer, config=config, mode="semi", rng=rng)
    rows = np.arange(B)

    def call():
        _step(state, dataset, rows, labels, _NO_CONSTRAINTS, config.ulr, RunMetrics(), "batch",
              buffers)

    return call, state


def test_whole_main_loop_step_peak():
    # forward, kernel, pins, balance and the landmark step of one semi batch
    # at once; 2.25 measured when this bound was set
    call, state = _semi_step()
    assert _peak_arrays(call) <= 2.5
    assert state.iteration == 1


def test_main_loop_step_given_its_buffers_builds_no_square_float_array():
    # with A's and M's buffers handed in, as train hands them to every
    # main-loop step, the (n, n) bool finiteness check of A (0.125) and the
    # pins are what is left
    call, state = _semi_step((np.empty((B, B)), np.empty((B, B))))
    call()
    assert _peak_arrays(call) < 0.5
    assert state.iteration == 2


# One in-process seed-0 run of the pairs-n300-b128 benchmark workload, the
# minor page faults of its training call printed.  With "grow" an 8 MB array
# is allocated and freed first: glibc then keeps freed blocks of up to 8 MB
# on the heap instead of returning them to the system.
_PAIRS_RUN = """
import importlib.util, resource, sys
import numpy as np
from xsdc import TrainConfig, UlrConfig, make_blobs, train

spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
spec = workloads.WORKLOADS["pairs-n300-b128"]
ds = make_blobs(seed=0, **spec["data"])
train_rows = ds.split_indices("train")
unlabeled = train_rows[ds.labels[train_rows] < 0]
zero = unlabeled[ds.true_labels[unlabeled] == 0]
one = unlabeled[ds.true_labels[unlabeled] == 1]
ulr_keys = ("lam", "learning_rate", "alpha", "rho")
config = TrainConfig(
    seed=0,
    constraints=[(int(i), int(j), 0.0) for i in zero for j in one],
    ulr=UlrConfig(**{k: v for k, v in spec["train"].items() if k in ulr_keys}),
    **{k: v for k, v in spec["train"].items() if k not in ulr_keys},
)
if sys.argv[2] == "grow":
    grown = np.ones(1 << 20)
    del grown
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(ds, config, mode=spec["mode"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc's heap trimming is Linux behaviour")
def test_pairs_run_faults_do_not_follow_the_heap_history():
    # A step that allocated and freed its (n, n) arrays let glibc trim the
    # heap after each b = 128 step and fault it back in on the next: about
    # 47,000 faults against 730 with the heap grown first, from every start.
    # Where the heap starts depends on the process's environment, so the
    # fresh run starts from five sizes of an unused variable.  From some
    # starts glibc still trims after the pin temporaries of a step (about
    # 30,000 faults, 2 to 4 of 15 starts under pytest), so the best start is
    # held to the bound: a step that allocates its (n, n) arrays again fails
    # it from every start.
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    threads = ("XSDC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    env = {**os.environ, **dict.fromkeys(threads, "1"),
           "PYTHONPATH": os.path.dirname(os.path.dirname(xsdc.__file__))}

    def faults(heap, pad):
        out = subprocess.run(
            [sys.executable, "-c", _PAIRS_RUN, str(workloads), heap],
            env={**env, "XSDC_TEST_PAD": "x" * pad},
            capture_output=True, text=True, check=True, timeout=300,
        )
        return int(out.stdout)

    fresh = [faults("fresh", pad) for pad in (0, 300, 600, 900, 1200)]
    grown = faults("grow", 0)
    assert min(fresh) <= 2 * grown, (fresh, grown)
