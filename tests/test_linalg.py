"""Core linear algebra: ridge closed form, coupling matrix,
inverse square root."""

import numpy as np
import pytest

from xsdc.linalg import inv_sqrt, inv_sqrt_vjp, ridge_kernel, ridge_solve


def centering_projector(n):
    return np.eye(n) - np.ones((n, n)) / n


def newton_inv_sqrt_cached(K, epsilon, iters):
    """Oracle: the coupled Newton iteration that inv_sqrt replaced, with its
    per-iteration states, as the package ran it with iters = 20.  The input is
    symmetrized, shifted and scaled by its trace so the iteration contracts."""
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
    """Oracle: the reverse-mode sweep of the unrolled Newton iteration, the
    trace normalization included; returns the symmetrized cotangent of K."""
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


def checked_inv_sqrt(K, epsilon=1e-3):
    """inv_sqrt behind the checks of a general input: K square and symmetric
    within 1e-10 and epsilon >= 0 (inv_sqrt itself rejects a K + epsilon I
    that is not positive definite)."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"matrix must be square, got shape {K.shape}")
    asym = float(np.max(np.abs(K - K.T)))
    if asym > 1e-10:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-10")
    epsilon = float(epsilon)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    S, _ = inv_sqrt(K, epsilon)
    return S


def max_rel(a, b):
    """max |a - b| relative to max |b|."""
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def finite_difference_vjp(K, epsilon, C, h=1e-6):
    """Central differences of <C, inv_sqrt(K, epsilon)> under symmetric
    perturbations of K, matching the symmetrized cotangent."""
    p = K.shape[0]
    fd = np.zeros_like(K)
    for a in range(p):
        for b in range(p):
            E = np.zeros_like(K)
            E[a, b] = h
            E = 0.5 * (E + E.T)
            Sp, _ = inv_sqrt(K + E, epsilon)
            Sm, _ = inv_sqrt(K - E, epsilon)
            fd[a, b] = np.sum(C * (Sp - Sm)) / (2 * h)
    return fd


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

    # a plain gemm W W^T is not exactly symmetric at (513, 7); the strip
    # mirror must make A so at every shape
    @pytest.mark.parametrize(
        "n, p",
        [
            pytest.param(128, 8, id="128"),
            pytest.param(200, 16, id="200-16"),
            pytest.param(512, 8, id="512"),
            pytest.param(513, 7, id="513-7"),
        ],
    )
    def test_out_is_bitwise_the_allocating_call(self, n, p):
        rng = np.random.default_rng(n)
        phi = rng.normal(size=(n, p))
        out = np.full((n, n), np.nan)
        A = ridge_kernel(phi, 0.1, out=out)
        assert A is out
        assert A.tobytes() == ridge_kernel(phi, 0.1).tobytes()
        assert A.tobytes() == np.ascontiguousarray(A.T).tobytes()

    @pytest.mark.parametrize("bad", ["shape", "dtype", "not C-contiguous", "list", "shares phi"])
    def test_rejected_out_raises(self, bad):
        n = 6
        base = np.random.default_rng(12).normal(size=(n, n))
        phi = base[:, :3]
        out = {
            "shape": np.empty((n, n + 1)),
            "dtype": np.empty((n, n), dtype=np.float32),
            "not C-contiguous": np.empty((n, n), order="F"),
            "list": np.zeros((n, n)).tolist(),
            "shares phi": base,
        }[bad]
        with pytest.raises(ValueError, match="^out must"):
            ridge_kernel(phi, 0.1, out=out)

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
    """Properties of inv_sqrt, the closed form that replaced the Newton iteration."""

    def test_identity(self):
        S = checked_inv_sqrt(np.eye(4), epsilon=0.0)
        assert np.allclose(S, np.eye(4), atol=1e-12)

    def test_diagonal_example(self):
        S = checked_inv_sqrt(np.diag([3.0, 8.0]), epsilon=1.0)
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
            S = checked_inv_sqrt(K, epsilon=eps)
            assert np.max(np.abs(S - S_expect)) <= 1e-8 * max(1.0, np.max(np.abs(S_expect)))

    def test_residual_tolerance(self):
        rng = np.random.default_rng(12)
        p = 8
        B = rng.normal(size=(p, p))
        K = B @ B.T
        S = checked_inv_sqrt(K, epsilon=1e-3)
        T = K + 1e-3 * np.eye(p)
        resid = np.linalg.norm(S @ T @ S - np.eye(p)) / np.sqrt(p)
        assert resid <= 1e-6

    def test_commutes_with_input(self):
        rng = np.random.default_rng(13)
        p = 6
        B = rng.normal(size=(p, p))
        K = B @ B.T
        S = checked_inv_sqrt(K, epsilon=1e-3)
        T = K + 1e-3 * np.eye(p)
        assert np.max(np.abs(S @ T - T @ S)) <= 1e-8

    def test_asymmetric_rejected(self):
        K = np.eye(3)
        K[0, 1] = 1e-6
        with pytest.raises(ValueError):
            checked_inv_sqrt(K)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match=r"smallest eigenvalue -5\.000e-01"):
            inv_sqrt(np.diag([1.0, -0.5]), 0.0)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        p = 4
        B = rng.normal(size=(p, p))
        K = B @ B.T + 0.5 * np.eye(p)
        C = rng.normal(size=(p, p))  # fixed cotangent defining L = <C, S>
        _, cache = inv_sqrt(K, 1e-3)
        dK = inv_sqrt_vjp(cache, C)
        fd = finite_difference_vjp(K, 1e-3, C)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(dK - fd) / denom) <= 1e-5


class TestClosedFormMatchesNewton:
    """inv_sqrt and inv_sqrt_vjp against the Newton oracle they replaced.

    Tolerances are max-abs differences relative to the oracle's max-abs
    entry.  The Newton error grows with the condition number of
    K + epsilon I, so each test states the conditioning and iteration count
    it holds for.
    """

    @pytest.mark.parametrize(
        "workload", ["semi-n20k-b512", "pairs-n300-b128", "unsup-cli-n20k-b256"]
    )
    def test_seed0_landmark_grams(self, seed0_runs, workload):
        # every whitening of the seed-0 benchmark run, against the 20
        # iterations the package ran; cond(K + epsilon I) stays below 1e4
        whiten = seed0_runs[workload]["whiten"]
        assert any(dS is not None for _, _, dS in whiten)
        for K, epsilon, dS in whiten:
            S, cache = inv_sqrt(K, epsilon)
            S_newton, newton_cache = newton_inv_sqrt_cached(K, epsilon, 20)
            assert max_rel(S, S_newton) <= 1e-12
            if dS is not None:
                dK_newton = newton_inv_sqrt_vjp(newton_cache, dS)
                assert max_rel(inv_sqrt_vjp(cache, dS), dK_newton) <= 1e-11

    def test_random_spd(self):
        # p in [2, 16], condition number 1 to 1e4 (8,836 at most here); the
        # trace-scaled smallest eigenvalue, 5.4e-5 at least here, grows about
        # 2.25-fold per Newton step before the quadratic phase, so 40 steps
        # leave the oracle converged with margin (20 agree to 2.4e-13)
        rng = np.random.default_rng(15)
        for _ in range(40):
            p = int(rng.integers(2, 17))
            Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            w = np.logspace(0, rng.uniform(0, 4), p)
            K = (Q * w) @ Q.T
            K = 0.5 * (K + K.T)
            C = rng.normal(size=(p, p))
            S, cache = inv_sqrt(K, 0.0)
            S_newton, newton_cache = newton_inv_sqrt_cached(K, 0.0, 40)
            assert max_rel(S, S_newton) <= 1e-11
            dK_newton = newton_inv_sqrt_vjp(newton_cache, C)
            assert max_rel(inv_sqrt_vjp(cache, C), dK_newton) <= 1e-10

    @pytest.mark.parametrize("name", ["identity", "diag-2-2-5", "rank-1-update"])
    def test_repeated_eigenvalues(self, name):
        # a formula that divides by eigenvalue gaps gives NaN on these
        rng = np.random.default_rng(16)
        v = rng.normal(size=4)
        K = {
            "identity": np.eye(4),
            "diag-2-2-5": np.diag([2.0, 2.0, 5.0]),
            "rank-1-update": np.eye(4) + np.outer(v, v),
        }[name]
        p = K.shape[0]
        C = rng.normal(size=(p, p))
        S, cache = inv_sqrt(K, 1e-3)
        dK = inv_sqrt_vjp(cache, C)
        assert np.all(np.isfinite(dK))
        S_newton, newton_cache = newton_inv_sqrt_cached(K, 1e-3, 40)
        assert max_rel(S, S_newton) <= 1e-12
        assert max_rel(dK, newton_inv_sqrt_vjp(newton_cache, C)) <= 1e-11
        fd = finite_difference_vjp(K, 1e-3, C)
        assert max_rel(dK, fd) <= 1e-7

    def test_singular_gram_rejected(self):
        # two equal landmarks and epsilon = 0: eigh returns a smallest
        # eigenvalue of either sign at roundoff level; both are rejected
        rng = np.random.default_rng(17)
        for _ in range(50):
            V = rng.normal(size=(int(rng.integers(2, 20)), 3))
            V[1] = V[0]
            sq = np.sum((V[:, None] - V[None]) ** 2, axis=2)
            with pytest.raises(ValueError, match="smallest eigenvalue"):
                inv_sqrt(np.exp(-sq / 2.0), 0.0)
