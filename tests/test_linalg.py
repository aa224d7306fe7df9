"""Core linear algebra: ridge closed form, coupling matrix,
inverse square root."""

import numpy as np
import pytest

from xsdc.linalg import (
    newton_inv_sqrt_cached,
    newton_inv_sqrt_vjp,
    ridge_kernel,
    ridge_solve,
)


def centering_projector(n):
    return np.eye(n) - np.ones((n, n)) / n


def newton_inv_sqrt(K, epsilon=1e-3, iters=20):
    """The program's Newton kernel behind the checks of a general input:
    K square and symmetric within 1e-10, K + epsilon I positive
    semidefinite within -1e-10, epsilon >= 0 and iters >= 1."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"matrix must be square, got shape {K.shape}")
    asym = float(np.max(np.abs(K - K.T)))
    if asym > 1e-10:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-10")
    epsilon = float(epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    iters = int(iters)
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (K + K.T) + epsilon * np.eye(K.shape[0])).min())
    if min_eig < -1e-10:
        raise ValueError(f"matrix must be positive semidefinite, min eigenvalue {min_eig:.3e}")
    S, _ = newton_inv_sqrt_cached(K, epsilon, iters)
    return S


class TestRidgeSolve:
    def test_normal_equations_oracle(self):
        # independent route: build the centered normal equations explicitly
        rng = np.random.default_rng(3)
        n, D, k = 12, 5, 3
        phi = rng.normal(size=(n, D))
        Y = rng.normal(size=(n, k))
        lam = 0.3
        P = centering_projector(n)
        phi_c = P @ phi
        Y_c = P @ Y
        W_expect = np.linalg.solve(phi_c.T @ phi_c + n * lam * np.eye(D), phi_c.T @ Y_c)
        sol = ridge_solve(phi, Y, lam)
        assert np.allclose(sol.weights, W_expect, atol=1e-10)
        b_expect = Y.mean(axis=0) - W_expect.T @ phi.mean(axis=0)
        assert np.allclose(sol.intercept, b_expect, atol=1e-10)

    def test_objective_is_attained_minimum(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(10, 4))
        Y = rng.normal(size=(10, 2))
        lam = 0.05
        sol = ridge_solve(phi, Y, lam)

        def objective(W, b):
            resid = Y - phi @ W - b
            return np.sum(resid**2) / 10 + lam * np.sum(W**2)

        f_star = objective(sol.weights, sol.intercept)
        assert abs(sol.objective_value - f_star) <= 1e-10 * max(1.0, abs(f_star))
        # perturbing the solution can only increase the objective
        rng2 = np.random.default_rng(5)
        for _ in range(10):
            dW = 1e-3 * rng2.normal(size=sol.weights.shape)
            db = 1e-3 * rng2.normal(size=sol.intercept.shape)
            assert objective(sol.weights + dW, sol.intercept + db) >= f_star

    def test_stationarity(self):
        rng = np.random.default_rng(6)
        n = 9
        phi = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 2))
        lam = 0.7
        sol = ridge_solve(phi, Y, lam)
        resid = Y - phi @ sol.weights - sol.intercept
        grad_W = -2.0 / n * phi.T @ resid + 2 * lam * sol.weights
        grad_b = -2.0 / n * resid.sum(axis=0)
        assert np.max(np.abs(grad_W)) <= 1e-10
        assert np.max(np.abs(grad_b)) <= 1e-10

    def test_zero_targets(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(8, 3))
        sol = ridge_solve(phi, np.zeros((8, 2)), 1.0)
        assert np.allclose(sol.weights, 0.0)
        assert np.allclose(sol.intercept, 0.0)
        assert sol.objective_value == 0.0

    def test_invalid_inputs(self):
        phi = np.ones((4, 2))
        Y = np.ones((4, 1))
        with pytest.raises(ValueError):
            ridge_solve(phi, Y, 0.0)
        with pytest.raises(ValueError):
            ridge_solve(phi, Y, -1.0)
        with pytest.raises(ValueError):
            ridge_solve(phi, np.ones((3, 1)), 1.0)
        with pytest.raises(ValueError):
            ridge_solve(np.zeros((0, 2)), np.zeros((0, 1)), 1.0)


class TestRidgeKernel:
    def test_duality_identity(self):
        # lam * tr(Y Y^T A) must reproduce the attained ridge minimum
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(3, 30))
            D = int(rng.integers(1, 8))
            k = int(rng.integers(1, 4))
            phi = rng.normal(size=(n, D))
            Y = rng.normal(size=(n, k))
            lam = float(10.0 ** rng.uniform(-3, 1))
            A = ridge_kernel(phi, lam)
            dual = lam * np.trace(Y @ Y.T @ A)
            primal = ridge_solve(phi, Y, lam).objective_value
            assert abs(dual - primal) <= 1e-8 * max(1.0, abs(primal))

    def test_explicit_inverse_oracle(self):
        rng = np.random.default_rng(9)
        n = 10
        phi = rng.normal(size=(n, 4))
        lam = 0.2
        P = centering_projector(n)
        A_expect = P @ np.linalg.inv(P @ phi @ phi.T @ P + n * lam * np.eye(n)) @ P
        assert np.allclose(ridge_kernel(phi, lam), A_expect, atol=1e-10)

    def test_zero_features_closed_form(self):
        n, lam = 6, 0.5
        A = ridge_kernel(np.zeros((n, 3)), lam)
        assert np.allclose(A, centering_projector(n) / (n * lam), atol=1e-12)

    def test_spectral_bound_and_psd(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 25))
            phi = rng.normal(size=(n, 5)) * rng.uniform(0.1, 10)
            lam = float(10.0 ** rng.uniform(-3, 1))
            A = ridge_kernel(phi, lam)
            eigs = np.linalg.eigvalsh(A)
            assert eigs.max() <= 1.0 / (n * lam) + 1e-10
            assert eigs.min() >= -1e-10
            assert np.max(np.abs(A - A.T)) == 0.0

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            ridge_kernel(np.ones((1, 3)), 1.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0, True, np.True_])
    def test_lam_must_be_finite_and_positive(self, lam):
        # lam = True used to run as lam = 1; ridge_solve shares the check
        rng = np.random.default_rng(10)
        phi, Y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
        fits = (lambda lam: ridge_kernel(phi, lam), lambda lam: ridge_solve(phi, Y, lam).weights)
        for fit in fits:
            with pytest.raises(ValueError, match="^lam must be a finite number above 0"):
                fit(lam)
            expected = fit(2.0)
            for same in (2, np.float64(2.0), np.int64(2)):
                assert fit(same).tobytes() == expected.tobytes()


class TestNewtonInvSqrt:
    def test_identity(self):
        S = newton_inv_sqrt(np.eye(4), epsilon=0.0)
        assert np.allclose(S, np.eye(4), atol=1e-12)

    def test_diagonal_example(self):
        S = newton_inv_sqrt(np.diag([3.0, 8.0]), epsilon=1.0)
        assert np.allclose(S, np.diag([0.5, 1.0 / 3.0]), atol=1e-9)

    def test_eigendecomposition_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = int(rng.integers(2, 12))
            B = rng.normal(size=(p, p))
            K = B @ B.T
            eps = 1e-3
            evals, evecs = np.linalg.eigh(K + eps * np.eye(p))
            S_expect = evecs @ np.diag(evals**-0.5) @ evecs.T
            S = newton_inv_sqrt(K, epsilon=eps, iters=30)
            assert np.max(np.abs(S - S_expect)) <= 1e-8 * max(1.0, np.max(np.abs(S_expect)))

    def test_residual_tolerance(self):
        rng = np.random.default_rng(12)
        p = 8
        B = rng.normal(size=(p, p))
        K = B @ B.T
        S = newton_inv_sqrt(K, epsilon=1e-3)
        T = K + 1e-3 * np.eye(p)
        resid = np.linalg.norm(S @ T @ S - np.eye(p)) / np.sqrt(p)
        assert resid <= 1e-6

    def test_commutes_with_input(self):
        rng = np.random.default_rng(13)
        p = 6
        B = rng.normal(size=(p, p))
        K = B @ B.T
        S = newton_inv_sqrt(K, epsilon=1e-3)
        T = K + 1e-3 * np.eye(p)
        assert np.max(np.abs(S @ T - T @ S)) <= 1e-8

    def test_asymmetric_rejected(self):
        K = np.eye(3)
        K[0, 1] = 1e-6
        with pytest.raises(ValueError):
            newton_inv_sqrt(K)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            newton_inv_sqrt(np.diag([1.0, -0.5]), epsilon=0.0)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        p = 4
        B = rng.normal(size=(p, p))
        K = B @ B.T + 0.5 * np.eye(p)
        C = rng.normal(size=(p, p))  # fixed cotangent defining L = <C, S>
        _, cache = newton_inv_sqrt_cached(K, 1e-3, 25)
        dK = newton_inv_sqrt_vjp(cache, C)
        h = 1e-6
        fd = np.zeros_like(K)
        for a in range(p):
            for b in range(p):
                E = np.zeros_like(K)
                E[a, b] = h
                # symmetric perturbation, matching the symmetrized gradient
                E = 0.5 * (E + E.T)
                Sp, _ = newton_inv_sqrt_cached(K + E, 1e-3, 25)
                Sm, _ = newton_inv_sqrt_cached(K - E, 1e-3, 25)
                fd[a, b] = np.sum(C * (Sp - Sm)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(dK - fd) / denom) <= 1e-5
