"""Reduced training objective after eliminating the last linear layer.

Minimizing the ridge weights and bias in closed form leaves an objective in
the features alone:

    F(phi) = lam * tr(M A(phi)),    A(phi) = ridge_kernel(phi, lam),

where M is a label-agreement (equivalence) matrix.  This module provides the
objective, its analytic gradients, the regularizer, a single gradient step on
the landmarks, the reverse (projection residual) objective used for
comparison, and the closed-form Lipschitz/smoothness bounds of both
objectives.  One helper gives the objective and its gradient to all three
callers; given A, it builds no other (n, n) array.  The fit is read off the
dense A, the gradient off the ridge factor of linalg (phi_c, R), so the only
(n, n) pass of the gradient is one product of M with an (n, D) array.
"""

import numpy as np
from dataclasses import dataclass

from .data import finite_number
from .errors import TrainingDiverged
from .features import backward, forward
from .linalg import _ridge_factor, ridge_kernel

__all__ = [
    "UlrConfig",
    "UlrStepResult",
    "LipschitzEstimates",
    "forward_objective",
    "grad_phi",
    "regularizer",
    "ulr_step",
    "reverse_objective",
    "reverse_objective_grad",
    "lipschitz_bounds",
]


@dataclass
class UlrConfig:
    """Hyperparameters of the reduced objective and its gradient step, each
    stored as a finite Python float: lam above 0, the others at 0 or above."""

    lam: float = 1e-3
    alpha: float = 0.0625
    rho: float = 0.0625
    learning_rate: float = 0.03125

    def __post_init__(self):
        for name in ("lam", "alpha", "rho", "learning_rate"):
            value = finite_number(name, getattr(self, name), 0, strict=name == "lam")
            setattr(self, name, value)


def _check_pair(phi, M):
    phi = np.asarray(phi, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    n = phi.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"M must be {n} x {n}, got {M.shape}")
    return phi, M


def _objective(phi, M, lam, A=None, grad=True):
    """(lam <M, A>, its gradient -2 lam A M A phi_c or None), A = A(phi).

    The gradient is that of a symmetric M, taken through the ridge factor
    (phi_c, R) rather than through products with the dense A: with
    W = phi_c R, A phi_c = phi_c G^{-1} = W R^T, and for y = M A phi_c,
    A y = (y_c - W (W^T y_c)) / (n lam).  So it costs one (n, n) product,
    M with an (n, D) array.  A phi = A phi_c is exactly zero for constant
    features."""
    if A is None:
        A = ridge_kernel(phi, lam)
    fit = lam * float(np.vdot(M, A))
    if not grad:
        return fit, None
    phi_c, R = _ridge_factor(phi, lam)
    W = phi_c @ R
    y = M @ (W @ R.T)
    y -= np.add.reduce(y, axis=0) / y.shape[0]  # y.mean(axis=0), without its overhead
    y -= W @ (W.T @ y)
    return fit, (-2.0 / phi.shape[0]) * y


def forward_objective(phi, M, lam):
    """lam * tr(M A(phi)) for an agreement matrix M.

    With M = Y Y^T this equals the attained minimum of the ridge problem
    with targets Y (see ridge_solve), which is what makes the quantity a
    drop-in training objective for the features.
    """
    phi, M = _check_pair(phi, M)
    return _objective(phi, M, lam, grad=False)[0]


def grad_phi(phi, M, lam):
    """Analytic gradient of forward_objective with respect to phi.

    An asymmetric M contributes only through its symmetric part, matching
    the fact that tr(M A) depends only on that part.
    """
    phi, M = _check_pair(phi, M)
    return _objective(phi, 0.5 * (M + M.T), lam)[1]


def regularizer(landmarks, phi, alpha, rho):
    """Value and gradients of alpha ||V||_F^2 - rho ||P phi||_F^2.

    P is the row-centering projector.  Returns (value, grad wrt phi,
    grad wrt landmarks).
    """
    landmarks = np.asarray(landmarks, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    phi_c = phi - phi.mean(axis=0)
    value = float(alpha * np.sum(landmarks**2) - rho * np.sum(phi_c**2))
    return value, -2.0 * rho * phi_c, 2.0 * alpha * landmarks


@dataclass
class UlrStepResult:
    layer: object
    objective: float
    fit_term: float
    grad_landmarks: np.ndarray


def ulr_step(layer, X, M, config, batch=None, A=None):
    """One fixed-rate gradient step on the landmarks.

    Evaluates the total objective lam tr(M A(phi)) + alpha ||V||^2
    - rho ||P phi||^2 at the current landmarks, chains the feature
    cotangent through the exact backward pass, and takes a plain descent
    step.  Returns the updated layer together with the pre-step objective.

    Parameters
    ----------
    layer : NystromLayer
    X : (n, d) batch rows
    M : (n, n) symmetric agreement matrix, as balance and Y Y^T give; the
        gradient step assumes the symmetry and does not check it
    config : UlrConfig
    batch : optional FeatureBatch from forward(layer, X); recomputed here
        when not supplied.
    A : optional ridge_kernel(batch.phi, config.lam) the caller already
        built (for balancing); computed here when not supplied.  Needs batch.
    """
    if A is not None and batch is None:
        raise ValueError("A is only accepted together with the batch it came from")
    if batch is None:
        batch = forward(layer, X, normalize=True)
    phi, M = _check_pair(batch.phi, M)
    with np.errstate(invalid="ignore", over="ignore"):
        fit, d_phi = _objective(phi, M, config.lam, A)
        reg_value, reg_d_phi, reg_d_V = regularizer(
            layer.landmarks, phi, config.alpha, config.rho
        )
        d_V = backward(batch, d_phi + reg_d_phi) + reg_d_V
    if not np.all(np.isfinite(d_V)):
        raise TrainingDiverged("non-finite landmark gradient")
    new_layer = layer.with_landmarks(
        layer.landmarks - config.learning_rate * d_V
    )
    return UlrStepResult(
        layer=new_layer,
        objective=fit + reg_value,
        fit_term=fit,
        grad_landmarks=d_V,
    )


def _check_assignments(phi, Y):
    phi = np.asarray(phi, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != phi.shape[0]:
        raise ValueError("Y must be n x k matching phi rows")
    if not np.all((Y == 0) | (Y == 1)) or not np.all(Y.sum(axis=1) == 1):
        raise ValueError("Y must be one-hot with one label per row")
    if np.any(Y.sum(axis=0) == 0):
        raise ValueError("Y has an empty cluster")
    return phi, Y


def reverse_objective(phi, Y):
    """Residual of projecting the features onto the label indicators.

    (1/n) tr[(I - P_Y) phi phi^T] where P_Y projects onto the column span
    of the one-hot matrix Y.  Zero exactly when every feature column is a
    combination of cluster indicators.
    """
    phi, Y = _check_assignments(phi, Y)
    n = phi.shape[0]
    proj = Y @ np.linalg.solve(Y.T @ Y, Y.T @ phi)
    return float((np.sum(phi * phi) - np.sum(phi * proj)) / n)


def reverse_objective_grad(phi, Y):
    """(2/n) (I - P_Y) phi."""
    phi, Y = _check_assignments(phi, Y)
    n = phi.shape[0]
    proj = Y @ np.linalg.solve(Y.T @ Y, Y.T @ phi)
    return (2.0 / n) * (phi - proj)


@dataclass
class LipschitzEstimates:
    """Closed-form gradient and smoothness bounds of the two objectives.

    B is a spectral-norm bound on the features, n the batch size, n_max the
    largest admissible cluster size.  The crossover values are the ridge
    strengths above which the forward objective is no steeper (respectively
    no less smooth) than the reverse one.
    """

    forward_gradient_bound: float
    reverse_gradient_bound: float
    forward_smoothness: float
    reverse_smoothness: float
    gradient_crossover: float
    smoothness_crossover: float


def lipschitz_bounds(B, n, n_max, lam):
    B = float(B)
    n = int(n)
    n_max = float(n_max)
    lam = float(lam)
    if B <= 0 or n < 1 or not 1 <= n_max <= n or lam <= 0:
        raise ValueError(
            f"need B > 0, n >= 1, 1 <= n_max <= n, lam > 0; "
            f"got B={B}, n={n}, n_max={n_max}, lam={lam}"
        )
    L_f = 2.0 * n_max * B / (lam * n * n)
    L_r = 2.0 * B / n
    ell_f = 8.0 * B * B * n_max / (n**3 * lam * lam) + 2.0 * n_max / (n * n * lam)
    ell_r = 2.0 / n
    grad_cross = n_max / n
    smooth_cross = n_max / (2.0 * n) + np.sqrt(n_max**2 + 16.0 * B * B * n_max) / (
        2.0 * n
    )
    return LipschitzEstimates(
        forward_gradient_bound=L_f,
        reverse_gradient_bound=L_r,
        forward_smoothness=ell_f,
        reverse_smoothness=ell_r,
        gradient_crossover=grad_cross,
        smoothness_crossover=smooth_cross,
    )
