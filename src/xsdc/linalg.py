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


def out_buffer(out, shape, source):
    """The array a result of the given shape is written into.

    None gives a new C-ordered float64 array.  Otherwise out must be a
    C-contiguous float64 array of that shape sharing no memory with source,
    the array the result is computed from, else ValueError; out is returned.
    """
    if out is None:
        return np.empty(shape)
    if not (
        isinstance(out, np.ndarray) and out.dtype == np.float64
        and out.shape == tuple(shape) and out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {tuple(shape)}")
    if np.shares_memory(out, source):
        raise ValueError("out must not share memory with the input it is computed from")
    return out


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


def ridge_kernel(phi, lam, out=None):
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

    out, when given, is that buffer: a C-contiguous float64 (n, n) array
    not sharing memory with phi (see out_buffer), and A is out.
    """
    phi = _as_matrix(phi, "phi")
    lam = finite_number("lam", lam, 0, strict=True)
    n = phi.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 rows to center, got {n}")
    phi_c, R = _ridge_factor(phi, lam)
    W = phi_c @ R
    A = np.matmul(W, W.T, out=out_buffer(out, (n, n), phi))
    A *= -1.0
    A[np.diag_indices(n)] += 1.0
    A -= 1.0 / n
    A /= n * lam
    return A


def inv_sqrt(K, epsilon):
    """Inverse square root of K + epsilon I from one symmetric eigendecomposition.

    K is a (p, p) symmetric positive semidefinite array and epsilon a finite
    shift >= 0, as NystromLayer stores them.  K is symmetrized, so the
    result depends on the symmetric part of K alone.  With T = sym(K) +
    epsilon I = U diag(w) U^T, S = U diag(w^(-1/2)) U^T.  Raises ValueError
    naming the smallest eigenvalue of T when it is not positive, or not
    above p eps w_max, the roundoff of eigh: a singular T, such as the Gram
    matrix of two equal landmarks with epsilon 0, comes out of eigh with a
    smallest eigenvalue of either sign below that.

    Returns (S, cache); ``inv_sqrt_vjp`` consumes the cache.
    """
    K = np.asarray(K, dtype=np.float64)
    T = 0.5 * (K + K.T) + epsilon * np.eye(K.shape[0])
    w, U = np.linalg.eigh(T)
    if not w[0] > K.shape[0] * np.finfo(np.float64).eps * w[-1]:
        raise ValueError(
            f"K + epsilon I must be positive definite, smallest eigenvalue "
            f"{w[0]:.3e} (largest {w[-1]:.3e})"
        )
    root = np.sqrt(w)
    return (U / root) @ U.T, (U, root)


def inv_sqrt_vjp(cache, dS):
    """Cotangent of K for the cotangent dS of S = inv_sqrt(K, epsilon)[0].

    Daleckii-Krein: dT = U (F o (U^T dS U)) U^T with F_ij = -1 / (r_i r_j
    (r_i + r_j)), r = w^(1/2), the divided difference of x^(-1/2).  F has no
    eigenvalue gap in a denominator, so repeated eigenvalues are safe.  The
    result is symmetrized, as K enters through its symmetric part.
    """
    U, root = cache
    F = -1.0 / (np.multiply.outer(root, root) * np.add.outer(root, root))
    dT = U @ (F * (U.T @ np.asarray(dS, dtype=np.float64) @ U)) @ U.T
    return 0.5 * (dT + dT.T)
