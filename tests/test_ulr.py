"""Reduced objective: value, gradients, step, reverse objective, bounds."""

import numpy as np
import pytest

from xsdc.errors import TrainingDiverged
from xsdc.features import NystromLayer, forward
from xsdc.linalg import ridge_kernel, ridge_solve
from xsdc.ulr import (
    UlrConfig,
    forward_objective,
    grad_phi,
    lipschitz_bounds,
    regularizer,
    reverse_objective,
    reverse_objective_grad,
    ulr_step,
)


def one_hot(labels, k):
    Y = np.zeros((len(labels), k))
    Y[np.arange(len(labels)), labels] = 1.0
    return Y


def centering_projector(n):
    return np.eye(n) - np.ones((n, n)) / n


class TestForwardObjective:
    def test_duality_with_ridge(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(4, 25))
            D = int(rng.integers(1, 6))
            k = int(rng.integers(2, 5))
            phi = rng.normal(size=(n, D))
            labels = rng.integers(0, k, size=n)
            Y = one_hot(labels, k)
            lam = float(10.0 ** rng.uniform(-3, 0.5))
            val = forward_objective(phi, Y @ Y.T, lam)
            primal = ridge_solve(phi, Y, lam).objective_value
            assert abs(val - primal) <= 1e-8 * max(1.0, abs(primal))

    def test_zero_agreement(self):
        rng = np.random.default_rng(1)
        phi = rng.normal(size=(6, 3))
        assert forward_objective(phi, np.zeros((6, 6)), 0.1) == 0.0

    def test_zero_features_closed_form(self):
        rng = np.random.default_rng(2)
        n = 7
        M = rng.uniform(size=(n, n))
        M = 0.5 * (M + M.T)
        val = forward_objective(np.zeros((n, 2)), M, 0.3)
        expect = np.trace(M @ centering_projector(n)) / n
        assert abs(val - expect) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            forward_objective(np.ones((4, 2)), np.ones((3, 3)), 0.1)


def fd_phi_gradient(f, phi, h):
    fd = np.zeros_like(phi)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            p = phi.copy()
            p[i, j] += h
            m = phi.copy()
            m[i, j] -= h
            fd[i, j] = (f(p) - f(m)) / (2 * h)
    return fd


class TestGradPhi:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n, D, k = 7, 3, 2
            phi = rng.normal(size=(n, D))
            Y = one_hot(rng.integers(0, k, size=n), k)
            M = Y @ Y.T
            lam = 0.2
            g = grad_phi(phi, M, lam)
            fd = fd_phi_gradient(lambda p: forward_objective(p, M, lam), phi, 1e-6)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(g - fd) / denom) <= 1e-6

    def test_asymmetric_M_uses_symmetric_part(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(6, 2))
        M = rng.uniform(size=(6, 6))
        g_asym = grad_phi(phi, M, 0.5)
        g_sym = grad_phi(phi, 0.5 * (M + M.T), 0.5)
        assert np.allclose(g_asym, g_sym, atol=1e-14)

    def test_gradient_norm_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, D, k = 10, 4, 3
            phi = rng.normal(size=(n, D))
            labels = rng.integers(0, k, size=n)
            Y = one_hot(labels, k)
            lam = float(10.0 ** rng.uniform(-2, 0.5))
            g = grad_phi(phi, Y @ Y.T, lam)
            B = np.linalg.norm(phi, 2)
            n_max = int(np.bincount(labels, minlength=k).max())
            bound = lipschitz_bounds(B, n, n_max, lam).forward_gradient_bound
            assert np.linalg.norm(g, 2) <= bound + 1e-10


class TestRegularizer:
    def test_value(self):
        V = np.array([[1.0, 2.0], [0.0, -1.0]])
        phi = np.array([[1.0, 0.0], [3.0, 0.0]])
        value, _, _ = regularizer(V, phi, alpha=0.5, rho=0.25)
        # ||V||^2 = 6; centered phi = [[-1,0],[1,0]] with norm^2 = 2
        assert abs(value - (0.5 * 6 - 0.25 * 2)) <= 1e-12

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(6)
        V = rng.normal(size=(3, 4))
        phi = rng.normal(size=(6, 4))
        alpha, rho = 0.3, 0.7
        _, d_phi, d_V = regularizer(V, phi, alpha, rho)
        fd_phi = fd_phi_gradient(
            lambda p: regularizer(V, p, alpha, rho)[0], phi, 1e-6
        )
        assert np.max(np.abs(d_phi - fd_phi)) <= 1e-8
        fd_V = fd_phi_gradient(
            lambda v: regularizer(v, phi, alpha, rho)[0], V, 1e-6
        )
        assert np.max(np.abs(d_V - fd_V)) <= 1e-8


def random_instance(seed, n=8, d=3, p=4, k=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    layer = NystromLayer(landmarks=rng.normal(size=(d, p)), sigma=1.5)
    Y = one_hot(rng.integers(0, k, size=n), k)
    return X, layer, Y @ Y.T


def total_objective(layer, X, M, config):
    fb = forward(layer, X, normalize=True)
    fit = forward_objective(fb.phi, M, config.lam)
    reg, _, _ = regularizer(layer.landmarks, fb.phi, config.alpha, config.rho)
    return fit + reg


class TestUlrStep:
    def test_zero_rate_leaves_landmarks(self):
        X, layer, M = random_instance(7)
        cfg = UlrConfig(lam=0.1, alpha=0.01, rho=0.01, learning_rate=0.0)
        out = ulr_step(layer, X, M, cfg)
        assert np.array_equal(out.layer.landmarks, layer.landmarks)

    def test_objective_reported_at_current_point(self):
        X, layer, M = random_instance(8)
        cfg = UlrConfig(lam=0.1, alpha=0.01, rho=0.01, learning_rate=0.05)
        out = ulr_step(layer, X, M, cfg)
        assert abs(out.objective - total_objective(layer, X, M, cfg)) <= 1e-12

    def test_small_step_decreases_objective(self):
        X, layer, M = random_instance(9)
        cfg = UlrConfig(lam=0.05, alpha=0.01, rho=0.01, learning_rate=1e-4)
        out = ulr_step(layer, X, M, cfg)
        after = total_objective(out.layer, X, M, cfg)
        assert after < out.objective

    def test_gradient_matches_finite_differences(self):
        X, layer, M = random_instance(10, n=6, d=2, p=3)
        cfg = UlrConfig(lam=0.1, alpha=0.02, rho=0.03, learning_rate=0.1)
        out = ulr_step(layer, X, M, cfg)
        V = layer.landmarks
        h = 1e-5
        fd = np.zeros_like(V)
        for a in range(V.shape[0]):
            for b in range(V.shape[1]):
                for sgn in (1.0, -1.0):
                    Vp = V.copy()
                    Vp[a, b] += sgn * h
                    val = total_objective(layer.with_landmarks(Vp), X, M, cfg)
                    fd[a, b] += sgn * val / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(out.grad_landmarks - fd) / denom) <= 1e-4

    def test_given_kernel_matches_recomputed_bitwise(self):
        X, layer, M = random_instance(12, n=10)
        cfg = UlrConfig(lam=0.1, alpha=0.01, rho=0.02, learning_rate=0.05)
        feats = forward(layer, X, normalize=True)
        given = ulr_step(
            layer, X, M, cfg, batch=feats, A=ridge_kernel(feats.phi, cfg.lam)
        )
        plain = ulr_step(layer, X, M, cfg)
        assert np.array_equal(given.layer.landmarks, plain.layer.landmarks)
        assert given.objective == plain.objective
        assert given.fit_term == plain.fit_term
        assert np.array_equal(given.grad_landmarks, plain.grad_landmarks)

    def test_kernel_without_batch_rejected(self):
        X, layer, M = random_instance(13)
        cfg = UlrConfig(lam=0.1)
        phi = forward(layer, X, normalize=True).phi
        with pytest.raises(ValueError, match="batch"):
            ulr_step(layer, X, M, cfg, A=ridge_kernel(phi, cfg.lam))

    def test_non_finite_gradient_raises(self):
        X, layer, _ = random_instance(11)
        M = np.full((8, 8), np.inf)
        cfg = UlrConfig(lam=0.1, learning_rate=0.1)
        with pytest.raises(TrainingDiverged):
            ulr_step(layer, X, M, cfg)


class TestReverseObjective:
    def test_zero_on_indicator_span(self):
        labels = np.array([0, 0, 1, 1, 1])
        Y = one_hot(labels, 2)
        phi = Y @ np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0]])
        assert abs(reverse_objective(phi, Y)) <= 1e-12

    def test_value_oracle(self):
        rng = np.random.default_rng(12)
        n, k = 9, 3
        labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        Y = one_hot(labels, k)
        phi = rng.normal(size=(n, 4))
        P = Y @ np.linalg.inv(Y.T @ Y) @ Y.T
        expect = np.trace((np.eye(n) - P) @ phi @ phi.T) / n
        assert abs(reverse_objective(phi, Y) - expect) <= 1e-12

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        labels = np.array([0, 1, 0, 1, 1, 0])
        Y = one_hot(labels, 2)
        phi = rng.normal(size=(6, 3))
        g = reverse_objective_grad(phi, Y)
        fd = fd_phi_gradient(lambda p: reverse_objective(p, Y), phi, 1e-6)
        assert np.max(np.abs(g - fd)) <= 1e-8

    def test_grad_norm_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            labels = rng.integers(0, 2, size=8)
            labels[:2] = [0, 1]  # keep both clusters non-empty
            Y = one_hot(labels, 2)
            phi = rng.normal(size=(8, 3))
            B = np.linalg.norm(phi, 2)
            g = reverse_objective_grad(phi, Y)
            assert np.linalg.norm(g, 2) <= 2.0 * B / 8 + 1e-12

    def test_empty_cluster_rejected(self):
        Y = one_hot(np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            reverse_objective(np.ones((4, 2)), Y)


class TestLipschitzBounds:
    def test_closed_forms(self):
        B, n, n_max, lam = 3.0, 20, 6, 0.25
        est = lipschitz_bounds(B, n, n_max, lam)
        assert est.forward_gradient_bound == 2 * n_max * B / (lam * n**2)
        assert est.reverse_gradient_bound == 2 * B / n
        assert est.forward_smoothness == 8 * B**2 * n_max / (n**3 * lam**2) + 2 * n_max / (
            n**2 * lam
        )
        assert est.reverse_smoothness == 2 / n
        assert est.gradient_crossover == n_max / n

    def test_gradient_crossover_equality(self):
        B, n, n_max = 2.5, 16, 5
        lam = n_max / n
        est = lipschitz_bounds(B, n, n_max, lam)
        assert abs(est.forward_gradient_bound - est.reverse_gradient_bound) <= 1e-10

    def test_smoothness_crossover_equality(self):
        B, n, n_max = 1.8, 12, 4
        est = lipschitz_bounds(B, n, n_max, 1.0)
        lam_star = est.smoothness_crossover
        # independent root: solve n^2 lam^2 - n n_max lam - 4 B^2 n_max = 0
        roots = np.roots([n**2, -n * n_max, -4 * B**2 * n_max])
        lam_root = float(np.max(roots))
        assert abs(lam_star - lam_root) <= 1e-10 * max(1.0, lam_root)
        at_star = lipschitz_bounds(B, n, n_max, lam_star)
        assert abs(at_star.forward_smoothness - at_star.reverse_smoothness) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            lipschitz_bounds(0.0, 10, 2, 0.1)
        with pytest.raises(ValueError):
            lipschitz_bounds(1.0, 10, 11, 0.1)
        with pytest.raises(ValueError):
            lipschitz_bounds(1.0, 10, 2, 0.0)
