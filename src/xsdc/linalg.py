"""Dense linear algebra kernels shared by the rest of the package.

Everything operates on float64 numpy arrays with observations in rows.  The
row-centering projector is never materialized; each consumer applies it by
subtracting the column means, which is O(n d) instead of O(n^2).
"""

import numpy as np
from dataclasses import dataclass

from .data import finite_number


def _as_matrix(X, name):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got ndim={X.ndim}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {X.shape}")
    return X


@dataclass
class RidgeSolution:
    """Closed-form multi-output ridge fit.

    Attributes
    ----------
    weights : (D, k) array
    intercept : (k,) array
    objective_value : float
        Attained minimum of the centered ridge objective.
    lam : float
        Regularization strength the fit was computed with.
    """

    weights: np.ndarray
    intercept: np.ndarray
    objective_value: float
    lam: float

    def predict(self, phi):
        """Affine scores phi @ weights + intercept for feature rows phi."""
        phi = _as_matrix(phi, "phi")
        if phi.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"feature dimension {phi.shape[1]} does not match "
                f"weights {self.weights.shape[0]}"
            )
        return phi @ self.weights + self.intercept


def _ridge_factor(phi, lam):
    """phi_c and R = L^{-T}, L L^T = G = phi_c^T phi_c + n lam I, so R R^T = G^{-1}.
    numpy's LAPACK: scipy's links a second OpenBLAS whose threads contend with
    numpy's (an 8 x 8 triangular solve after a numpy product took 4 ms)."""
    phi_c = phi - phi.mean(axis=0)
    G = phi_c.T @ phi_c + phi.shape[0] * lam * np.eye(phi.shape[1])
    return phi_c, np.linalg.inv(np.linalg.cholesky(G)).T


def ridge_solve(phi, Y, lam):
    """Solve the bias-included multi-output ridge problem in closed form.

    Minimizes (1/n) ||Y - phi W - 1 b^T||_F^2 + lam ||W||_F^2 over W and b.
    Eliminating b centers both phi and Y, so

        W = (phi_c^T phi_c + n lam I)^{-1} phi_c^T Y_c,
        b = mean(Y) - W^T mean(phi).

    Parameters
    ----------
    phi : (n, D) array of feature rows
    Y : (n, k) array of targets
    lam : positive ridge strength

    Returns
    -------
    RidgeSolution
    """
    phi = _as_matrix(phi, "phi")
    Y = _as_matrix(Y, "Y")
    lam = finite_number("lam", lam, 0, strict=True)
    n = phi.shape[0]
    if Y.shape[0] != n:
        raise ValueError(f"phi has {n} rows but Y has {Y.shape[0]}")
    phi_c, R = _ridge_factor(phi, lam)
    Y_c = Y - Y.mean(axis=0)
    W = R @ (R.T @ (phi_c.T @ Y_c))
    b = Y.mean(axis=0) - W.T @ phi.mean(axis=0)
    resid = Y_c - phi_c @ W
    objective = float(np.sum(resid * resid) / n + lam * np.sum(W * W))
    return RidgeSolution(weights=W, intercept=b, objective_value=objective, lam=lam)


def ridge_kernel(phi, lam):
    """Kernel-like coupling matrix of the bias-eliminated ridge problem.

    Returns A = P (P phi phi^T P + n lam I)^{-1} P where P is the
    row-centering projector.  Pairing A with a label-agreement matrix M gives
    the attained ridge objective: lam * tr(M A) equals the minimum of the
    ridge problem with targets whose Gram matrix is M.

    By the Woodbury identity A = (P - phi_c G^{-1} phi_c^T) / (n lam) =
    (P - W W^T) / (n lam), W = phi_c R (see _ridge_factor): O(n^2 D) for
    (n, D) features, not an O(n^3) solve, in the one (n, n) buffer of W W^T,
    which numpy computes exactly symmetric.  A is positive semidefinite with
    spectral norm at most 1 / (n lam).
    """
    phi = _as_matrix(phi, "phi")
    lam = finite_number("lam", lam, 0, strict=True)
    n = phi.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows to center, got {n}")
    phi_c, R = _ridge_factor(phi, lam)
    W = phi_c @ R
    A = W @ W.T
    A *= -1.0
    A[np.diag_indices(n)] += 1.0
    A -= 1.0 / n
    A /= n * lam
    return A


def newton_inv_sqrt_cached(K, epsilon, iters):
    """Inverse square root of K + epsilon I by coupled Newton iterations,
    with the per-iteration states.

    The input is shifted, symmetrized, and scaled by its trace so the
    iteration contracts; the fixed iteration count makes the map a fixed
    composition of matrix products, which is what the feature-map backward
    pass differentiates through.  K is a (p, p) symmetric positive
    semidefinite array, epsilon a finite shift >= 0 and iters >= 1, as
    NystromLayer stores them; nothing here checks them again.

    Returns (S, cache): S (K + epsilon I) S is close to the identity, and the
    cache is consumed by ``newton_inv_sqrt_vjp`` to run the exact
    reverse-mode sweep of the unrolled iteration.
    """
    K = np.asarray(K, dtype=np.float64)
    p = K.shape[0]
    T = 0.5 * (K + K.T) + epsilon * np.eye(p)
    nu = float(np.trace(T))
    if nu <= 0:
        raise ValueError(f"trace of shifted matrix must be positive, got {nu}")
    Y = T / nu
    Z = np.eye(p)
    Ys, Zs, Ws = [], [], []
    for _ in range(iters):
        W = 0.5 * (Z @ Y)
        Ys.append(Y)
        Zs.append(Z)
        Ws.append(W)
        Y = 1.5 * Y - Y @ W
        Z = 1.5 * Z - W @ Z
    S = Z / np.sqrt(nu)
    cache = (T, nu, Ys, Zs, Ws, Z)
    return S, cache


def newton_inv_sqrt_vjp(cache, dS):
    """Reverse-mode sweep of the unrolled coupled Newton iteration.

    Given the cotangent dS of the output, returns the cotangent of the input
    matrix K (the epsilon shift and the trace normalization are part of the
    differentiated graph).
    """
    T, nu, Ys, Zs, Ws, Z_final = cache
    dS = np.asarray(dS, dtype=np.float64)
    sqrt_nu = np.sqrt(nu)
    dZ = dS / sqrt_nu
    dnu = -0.5 * float(np.sum(dS * Z_final)) / (nu * sqrt_nu)
    dY = np.zeros_like(dZ)
    for Y0, Z0, W in zip(reversed(Ys), reversed(Zs), reversed(Ws)):
        dY0 = 1.5 * dY - dY @ W.T
        dW = -(Y0.T @ dY) - dZ @ Z0.T
        dZ0 = 1.5 * dZ - W.T @ dZ
        dZ0 += 0.5 * dW @ Y0.T
        dY0 += 0.5 * Z0.T @ dW
        dY, dZ = dY0, dZ0
    dT = dY / nu
    dnu += -float(np.sum(dY * T)) / (nu * nu)
    dT = dT + dnu * np.eye(T.shape[0])
    return 0.5 * (dT + dT.T)
