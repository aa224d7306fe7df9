"""Joint learning of kernel features and cluster/class labels.

The package trains a Nystrom-style feature map so that the ridge fit of a
balanced label-agreement matrix is as good as possible, alternating a
closed-form reversal of the final layer with entropic matrix balancing.
Works from fully labeled data down to no labels at all, including pairwise
must-link / cannot-link constraints.
"""

import os

# BLAS thread caps must land before numpy is first imported anywhere in the
# process, so this block stays at the top of the package root.
_threads = os.environ.get("XSDC_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(_var, _threads)
del os

from .balancing import (
    BalancingProblem,
    EquivalenceMatrix,
    balance,
    balance_doubling,
    brute_force_assign,
    default_mu,
    sinkhorn_jacobian,
)
from .checks import run_gradcheck, smoothness_report
from .data import (
    Dataset,
    assign_splits,
    imbalance,
    load_csv,
    load_libsvm,
    make_blobs,
    standardize,
)
from .errors import (
    AbortedRun,
    BalancingDivergence,
    ParseError,
    TrainingDiverged,
)
from .features import (
    NystromLayer,
    forward,
    init_landmarks,
    median_bandwidth,
    rbf_kernel,
)
from .labeling import (
    LabelAssignment,
    fit_final_classifier,
    hungarian_match,
    nn_propagate,
    predict_classes,
    spectral_cluster,
)
from .linalg import RidgeSolution, ridge_kernel, ridge_solve
from .trainer import (
    RunMetrics,
    TrainConfig,
    TrainState,
    checkpoint_json,
    evaluate,
    load_checkpoint,
    supervised_init,
    sweep,
    train,
)
from .ulr import (
    LipschitzEstimates,
    UlrConfig,
    forward_objective,
    grad_phi,
    lipschitz_bounds,
    reverse_objective,
    ulr_step,
)

__version__ = "0.1.0"

__all__ = [
    "AbortedRun",
    "BalancingDivergence",
    "BalancingProblem",
    "Dataset",
    "EquivalenceMatrix",
    "LabelAssignment",
    "LipschitzEstimates",
    "NystromLayer",
    "ParseError",
    "RidgeSolution",
    "RunMetrics",
    "TrainConfig",
    "TrainState",
    "TrainingDiverged",
    "UlrConfig",
    "assign_splits",
    "balance",
    "balance_doubling",
    "brute_force_assign",
    "checkpoint_json",
    "default_mu",
    "evaluate",
    "fit_final_classifier",
    "forward",
    "forward_objective",
    "grad_phi",
    "hungarian_match",
    "imbalance",
    "init_landmarks",
    "lipschitz_bounds",
    "load_checkpoint",
    "load_csv",
    "load_libsvm",
    "make_blobs",
    "median_bandwidth",
    "nn_propagate",
    "predict_classes",
    "rbf_kernel",
    "reverse_objective",
    "ridge_kernel",
    "ridge_solve",
    "run_gradcheck",
    "sinkhorn_jacobian",
    "smoothness_report",
    "spectral_cluster",
    "standardize",
    "supervised_init",
    "sweep",
    "train",
    "ulr_step",
]
