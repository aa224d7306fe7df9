"""Self-verification suites: finite-difference gradients, bound checks.

These back the command-line `gradcheck` and `smoothness` commands.  Every
analytic gradient in the package is compared against central differences of
the value it claims to differentiate; the closed-form gradient and curvature
bounds are stress-tested by random sampling inside the stated feasible set
(spectral norm of the features at most B, no cluster larger than n_max).
"""

import numpy as np
from dataclasses import dataclass

from .data import whole_number
from .features import backward, forward, init_landmarks
from .ulr import (
    forward_objective,
    grad_phi,
    lipschitz_bounds,
    regularizer,
    reverse_objective_grad,
    ulr_step,
    UlrConfig,
)

GRADCHECK_TOLERANCES = {
    "objective_gradient": 1e-6,
    "regularizer": 1e-6,
    "feature_backward": 1e-4,
    "ulr_step": 1e-4,
}


@dataclass
class GradcheckResult:
    suite: str
    max_rel_error: float
    tolerance: float
    passed: bool
    worst_coordinate: tuple


def _fd_gradient(f, x, h):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bump = np.zeros_like(x)
        bump[idx] = h
        g[idx] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return g


def _compare(suite, analytic, numeric):
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    err = np.abs(analytic - numeric) / scale
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    tol = GRADCHECK_TOLERANCES[suite]
    value = float(err[worst])
    return GradcheckResult(
        suite=suite,
        max_rel_error=value,
        tolerance=tol,
        passed=value <= tol,
        worst_coordinate=tuple(int(i) for i in worst),
    )


def run_gradcheck(seed=0, sizes=(8, 3, 4), fault=None):
    """All four gradient suites at the given seed; returns GradcheckResults.

    sizes is (batch rows, input dimension, landmark count).  fault="sign_flip"
    negates one analytic gradient, a harness self-test that must fail.
    """
    if fault not in (None, "sign_flip"):
        raise ValueError(f"unknown fault {fault!r}")
    n, d, p = (int(s) for s in sizes)
    if n < 3 or d < 1 or p < 1:
        raise ValueError(f"sizes too small: {sizes}")
    rng = np.random.default_rng(seed)
    results = []

    phi = rng.normal(size=(n, d + 1))
    M = rng.normal(size=(n, n))
    M = 0.5 * (M + M.T)
    lam = float(10.0 ** rng.uniform(-2, 0))
    analytic = grad_phi(phi, M, lam)
    numeric = _fd_gradient(lambda q: forward_objective(q, M, lam), phi, 1e-6)
    results.append(_compare("objective_gradient", analytic, numeric))

    V = rng.normal(size=(d, p))
    alpha, rho = 0.3, 0.2
    _, d_phi_reg, d_V_reg = regularizer(V, phi, alpha, rho)
    fd_phi = _fd_gradient(lambda q: regularizer(V, q, alpha, rho)[0], phi, 1e-6)
    fd_V = _fd_gradient(lambda W: regularizer(W, phi, alpha, rho)[0], V, 1e-6)
    stacked_analytic = np.concatenate([d_phi_reg.ravel(), d_V_reg.ravel()])
    stacked_numeric = np.concatenate([fd_phi.ravel(), fd_V.ravel()])
    results.append(_compare("regularizer", stacked_analytic, stacked_numeric))

    X = rng.normal(size=(n, d))
    layer = init_landmarks(X, p, seed=seed)
    cotangent = rng.normal(size=(n, p))

    def feature_loss(V_flat):
        probe = layer.with_landmarks(V_flat)
        return float(np.sum(cotangent * forward(probe, X).phi))

    batch = forward(layer, X)
    analytic = backward(batch, cotangent)
    numeric = _fd_gradient(feature_loss, layer.landmarks, 1e-5)
    results.append(_compare("feature_backward", analytic, numeric))

    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    Y = np.zeros((n, 2))
    Y[np.arange(n), labels] = 1.0
    M_lab = Y @ Y.T
    config = UlrConfig(lam=lam, alpha=alpha, rho=rho, learning_rate=0.0)

    def total_objective(V_flat):
        probe = layer.with_landmarks(V_flat)
        q = forward(probe, X).phi
        fit = forward_objective(q, M_lab, lam)
        return fit + regularizer(V_flat, q, alpha, rho)[0]

    analytic = ulr_step(layer, X, M_lab, config).grad_landmarks
    if fault == "sign_flip":
        analytic = -analytic
    numeric = _fd_gradient(total_objective, layer.landmarks, 1e-5)
    results.append(_compare("ulr_step", analytic, numeric))
    return results


@dataclass
class SmoothnessReport:
    """Closed-form bounds next to sampled maxima inside the feasible set."""

    B: float
    n: int
    n_max: int
    lam: float
    samples: int
    bounds: object  # LipschitzEstimates
    empirical_forward_gradient: float
    empirical_reverse_gradient: float
    empirical_forward_curvature: float
    empirical_reverse_curvature: float

    @property
    def gradient_ok(self):
        return (
            self.empirical_forward_gradient
            <= self.bounds.forward_gradient_bound + 1e-10
            and self.empirical_reverse_gradient
            <= self.bounds.reverse_gradient_bound + 1e-10
        )

    @property
    def curvature_ok(self):
        return (
            self.empirical_forward_curvature
            <= self.bounds.forward_smoothness + 1e-10
            and self.empirical_reverse_curvature
            <= self.bounds.reverse_smoothness + 1e-10
        )

    @property
    def passed(self):
        return self.gradient_ok and self.curvature_ok


def _sample_labels(rng, n, n_max, k):
    for _ in range(100):
        labels = rng.integers(0, k, size=n)
        counts = np.bincount(labels, minlength=k)
        if counts.max() <= n_max and counts.min() >= 1:
            return labels
    # deterministic fallback: round-robin respects both constraints
    return np.arange(n) % k


def _ball_point(rng, n, dim, B):
    phi = rng.normal(size=(n, dim))
    return phi * (B * rng.uniform(0.2, 1.0) / np.linalg.norm(phi, 2))


def smoothness_report(B, n, n_max, lam, samples=1000, seed=0):
    """Compare the gradient and curvature bounds with sampled maxima.

    Draws feature matrices of spectral norm at most B and cluster labelings
    with every cluster non-empty and none larger than n_max, then records
    the largest gradient norms and gradient-difference ratios seen.  The
    bounds are theorems, so `passed` failing indicates a broken gradient.
    """
    est = lipschitz_bounds(B, n, n_max, lam)
    samples = whole_number("samples", samples, 1)
    n = int(n)
    n_max_i = int(n_max)
    k = max(2, -(-n // n_max_i))  # smallest cluster count n_max allows
    rng = np.random.default_rng(seed)
    dim = min(n - 1, 6)
    g_fwd = g_rev = c_fwd = c_rev = 0.0
    for _ in range(samples):
        labels = _sample_labels(rng, n, n_max_i, k)
        Y = np.zeros((n, k))
        Y[np.arange(n), labels] = 1.0
        M = Y @ Y.T
        phi_a = _ball_point(rng, n, dim, B)
        phi_b = _ball_point(rng, n, dim, B)
        ga_f = grad_phi(phi_a, M, lam)
        gb_f = grad_phi(phi_b, M, lam)
        ga_r = reverse_objective_grad(phi_a, Y)
        gb_r = reverse_objective_grad(phi_b, Y)
        g_fwd = max(g_fwd, np.linalg.norm(ga_f, 2), np.linalg.norm(gb_f, 2))
        g_rev = max(g_rev, np.linalg.norm(ga_r, 2), np.linalg.norm(gb_r, 2))
        gap = np.linalg.norm(phi_a - phi_b, 2)
        if gap > 1e-12:
            c_fwd = max(c_fwd, np.linalg.norm(ga_f - gb_f, 2) / gap)
            c_rev = max(c_rev, np.linalg.norm(ga_r - gb_r, 2) / gap)
    return SmoothnessReport(
        B=float(B),
        n=n,
        n_max=n_max_i,
        lam=float(lam),
        samples=samples,
        bounds=est,
        empirical_forward_gradient=float(g_fwd),
        empirical_reverse_gradient=float(g_rev),
        empirical_forward_curvature=float(c_fwd),
        empirical_reverse_curvature=float(c_rev),
    )
