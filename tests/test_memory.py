"""Peak memory of one training step's kernels, in (n, n) float64 arrays.

tracemalloc sees every numpy data buffer, so the traced peak of a call is
the most its arrays hold at once, returned value included (BLAS work space
is not counted).  At b = 1024 rows an (n, n) array is 8 MiB, and every
(n, p) array together stays far below a tenth of that.
"""

import tracemalloc

import numpy as np

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


def test_whole_main_loop_step_peak():
    # forward, kernel, pins, balance and the landmark step of one semi batch
    # at once; 2.25 measured when this bound was set
    layer, X, _ = _batch()
    rng = np.random.default_rng(3)
    truth = rng.integers(0, 4, size=B)
    labels = np.where(rng.random(B) < 0.1, truth, -1)
    dataset = Dataset("memory", X, labels, 4, np.full(B, "train"), truth)
    config = TrainConfig(ulr=UlrConfig(lam=LAM))
    state = TrainState(layer=layer, config=config, mode="semi", rng=rng)
    rows = np.arange(B)

    def call():
        _step(state, dataset, rows, labels, _NO_CONSTRAINTS, config.ulr, RunMetrics(), "batch")

    assert _peak_arrays(call) <= 2.5
    assert state.iteration == 1
