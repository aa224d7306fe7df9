"""Peak memory of one training step's kernels, in (n, n) float64 arrays.

tracemalloc sees every numpy data buffer, so the traced peak of a call is
the most its arrays hold at once, returned value included (BLAS work space
is not counted).  At b = 1024 rows an (n, n) array is 8 MiB, and every
(n, p) array together stays far below a tenth of that.
"""

import tracemalloc

import numpy as np

from xsdc.features import NystromLayer, forward
from xsdc.linalg import ridge_kernel
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
