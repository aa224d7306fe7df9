"""Feature map: kernel, bandwidth heuristic, landmark init, forward/backward."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import xsdc.features
from xsdc.features import (
    NystromLayer,
    backward,
    forward,
    init_landmarks,
    median_bandwidth,
    rbf_kernel,
    sqeuclidean,
)


class TestRbfKernel:
    def test_loop_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 3))
        B = rng.normal(size=(4, 3))
        sigma = 1.7
        K = rbf_kernel(A, B, sigma)
        for i in range(5):
            for j in range(4):
                d2 = np.sum((A[i] - B[j]) ** 2)
                assert abs(K[i, j] - np.exp(-d2 / (2 * sigma**2))) <= 1e-12

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 2))
        K = rbf_kernel(A, A, 0.5)
        assert np.allclose(np.diag(K), 1.0, atol=1e-12)
        assert K.min() >= 0.0 and K.max() <= 1.0

    def test_known_value(self):
        sigma = 2.0
        A = np.array([[0.0]])
        B = np.array([[2.0 * np.sqrt(2.0)]])  # distance sigma * sqrt(2)
        assert abs(rbf_kernel(A, B, sigma)[0, 0] - np.exp(-1.0)) <= 1e-12

    def test_invalid(self):
        with pytest.raises(ValueError):
            rbf_kernel(np.ones((2, 3)), np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError):
            rbf_kernel(np.ones((2, 3)), np.ones((2, 3)), 0.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0, -1.0, True, np.True_])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        # sigma = inf used to give an all-ones kernel
        rng = np.random.default_rng(2)
        A, B = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        with pytest.raises(ValueError, match="^sigma must be a finite number above 0"):
            rbf_kernel(A, B, sigma)
        expected = rbf_kernel(A, B, 2.0)
        for same in (2, np.float64(2.0), np.int64(2)):
            assert rbf_kernel(A, B, same).tobytes() == expected.tobytes()


class TestSqeuclidean:
    @pytest.mark.parametrize("p", range(1, 18))
    def test_cdist_oracle(self, p, monkeypatch):
        # a small chunk splits A into several chunks, one of them partial
        monkeypatch.setattr(xsdc.features, "_DIST_CHUNK", 7 * p * 5)
        rng = np.random.default_rng(p)
        for a, b in [(0, 3), (1, 1), (23, 5), (40, 1)]:
            A = rng.normal(size=(a, p)) * 10.0 ** rng.uniform(-4, 4, size=p)
            B = np.vstack([rng.normal(size=(b, p)), A[:1]])
            got = sqeuclidean(A, B)
            assert np.array_equal(got, cdist(A, B, "sqeuclidean"))
            assert np.array_equal(np.sqrt(got), cdist(A, B))


class TestMedianBandwidth:
    def test_pdist_oracle(self):
        # odd and even pair counts; rounded rows tie many distances, rows
        # moved by a few ulps put distances within rounding of each other,
        # offset rows lie far from the origin
        rng = np.random.default_rng(3)
        for case in range(200):
            m = int(rng.integers(2, 70))
            d = int(rng.integers(1, 18))
            X = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-3, 3)
            if case % 4 == 1:
                X = np.round(X / X.std())
            if case % 4 == 2:
                X = rng.integers(1, 3, size=(m, d)) + rng.integers(-2, 3, size=(m, d)) * 2.0**-50
            if case % 4 == 3:
                X = rng.integers(0, 3, size=(m, d)) + 1e6
            expected = float(np.median(pdist(X)))
            if expected > 0:
                assert median_bandwidth(X) == expected
        X = rng.normal(size=(1200, 10))
        assert median_bandwidth(X) == float(np.median(pdist(X[:1000])))

    def test_pdist_oracle_median_pairs_within_the_bound(self):
        # vertices of a regular simplex moved by a few ulps, half of them
        # duplicated or not, and points of a 0.1 grid: the pairs at and
        # around the two median ranks lie within the error bound of each
        # other, across blocks of rows; m runs over every residue mod 4, so
        # the pair count N = m (m - 1) / 2 is odd and even
        rng = np.random.default_rng(11)
        parities = set()
        for case in range(120):
            m = int(rng.integers(2, 150))
            if case % 3 == 0:
                X = np.eye(m) * (1.0 + rng.integers(-3, 4, size=(m, 1)) * 2.0**-50)
                X = X * 10.0 ** rng.uniform(-3, 3)
            elif case % 3 == 1:
                X = np.eye(m) + rng.integers(-3, 4, size=(m, m)) * 2.0**-52
                X[m // 2:] = X[:m - m // 2]
            else:
                X = np.round(rng.normal(size=(m, int(rng.integers(1, 6)))), 1)
            expected = float(np.median(pdist(X)))
            if expected > 0:
                parities.add(m * (m - 1) // 2 % 2)
                assert median_bandwidth(X) == expected
        assert parities == {0, 1}

    def test_non_finite_rows_rejected(self):
        X = np.random.default_rng(5).normal(size=(10, 3))
        for bad in (np.nan, np.inf):
            X[4, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                median_bandwidth(X)

    def test_three_points_on_line(self):
        X = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 3, 2 -> median 2
        assert median_bandwidth(X) == 2.0

    def test_even_pair_count_midpoint(self):
        X = np.array([[0.0], [1.0], [2.0], [4.0]])
        # distances 1,2,4,1,3,2 sorted 1,1,2,2,3,4 -> median 2
        assert median_bandwidth(X) == 2.0

    def test_identical_rows_rejected(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.ones((5, 2)))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.ones((1, 2)))


class TestInitLandmarks:
    def test_full_draw_is_permutation(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 2))
        layer = init_landmarks(X, 8, seed=0)
        got = sorted(map(tuple, layer.landmarks.T))
        want = sorted(map(tuple, X))
        assert got == want

    def test_rows_come_from_data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        layer = init_landmarks(X, 5, seed=1)
        assert layer.landmarks.shape == (3, 5)
        rows = set(map(tuple, X))
        for lm in layer.landmarks.T:
            assert tuple(lm) in rows

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        a = init_landmarks(X, 6, seed=7)
        b = init_landmarks(X, 6, seed=7)
        assert np.array_equal(a.landmarks, b.landmarks)
        assert a.sigma == b.sigma

    def test_bounds(self):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError):
            init_landmarks(X, 0)
        with pytest.raises(ValueError):
            init_landmarks(X, 7)

    @pytest.mark.parametrize(
        "num_landmarks, seed",
        [(2.5, 0), (np.inf, 0), (True, 0), (2, True), (2, np.True_), (2, 1.5), (2, -1)],
    )
    def test_counts_must_be_whole(self, num_landmarks, seed):
        # num_landmarks = 2.5 used to draw 2 landmarks, and seed=True ran as seed 1
        X = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(ValueError, match="must be a whole number"):
            init_landmarks(X, num_landmarks, seed=seed)
        expected = init_landmarks(X, 3, seed=7)
        for same_p, same_seed in [(np.int64(3), np.int64(7)), (3.0, 7.0)]:
            got = init_landmarks(X, same_p, seed=same_seed)
            assert got.landmarks.tobytes() == expected.landmarks.tobytes()
            assert got.sigma == expected.sigma


def small_layer(seed=0, d=3, p=4, sigma=1.2):
    rng = np.random.default_rng(seed)
    return NystromLayer(landmarks=rng.normal(size=(d, p)), sigma=sigma)


class TestNystromLayer:
    def test_stores_python_numbers(self):
        layer = NystromLayer(np.ones((2, 3)), sigma=np.float64(1.5), epsilon=0)
        assert (type(layer.sigma), layer.sigma) == (float, 1.5)
        assert (type(layer.epsilon), layer.epsilon) == (float, 0.0)
        assert layer.with_landmarks(np.zeros((2, 3))).epsilon == 0.0

    @pytest.mark.parametrize("name, value", [
        ("sigma", 0.0), ("sigma", -1.0), ("sigma", np.nan), ("sigma", np.inf),
        ("sigma", "wide"), ("epsilon", -1e-3), ("epsilon", np.nan),
        ("epsilon", np.inf), ("epsilon", None),
    ])
    def test_invalid_float_rejected(self, name, value):
        # epsilon = nan or inf used to pass and give NaN features
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            NystromLayer(np.ones((2, 3)), **{"sigma": 1.0, name: value})


class TestForward:
    def test_gram_approximation(self):
        # phi_raw phi_raw^T must reproduce the Nystrom-approximate kernel
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 3))
        layer = small_layer(seed=7)
        fb = forward(layer, X, normalize=False)
        Vr = layer.landmarks.T
        Kx = rbf_kernel(X, Vr, layer.sigma)
        Kvv = rbf_kernel(Vr, Vr, layer.sigma)
        target = Kx @ np.linalg.inv(Kvv + layer.epsilon * np.eye(4)) @ Kx.T
        err = np.linalg.norm(fb.phi @ fb.phi.T - target)
        assert err <= 1e-6

    def test_normalization_invariants(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 3))
        fb = forward(small_layer(seed=9), X, normalize=True)
        mean_sq = float(np.mean(np.sum(fb.phi**2, axis=1)))
        assert abs(mean_sq - 1.0) <= 1e-8
        assert np.max(np.abs(fb.phi.mean(axis=0))) <= 1e-10

    def test_single_row_normalize_rejected(self):
        X = np.ones((1, 3))
        with pytest.raises(ValueError):
            forward(small_layer(), X, normalize=True)
        fb = forward(small_layer(), X, normalize=False)
        assert fb.phi.shape == (1, 4)

    def test_identical_rows_scale_undefined(self):
        X = np.ones((5, 3))
        with pytest.raises(ValueError, match="scale undefined"):
            forward(small_layer(), X, normalize=True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_layer(d=3), np.ones((4, 2)))

    def test_equal_landmarks_without_shift_rejected(self):
        # the landmark Gram matrix is singular; the Newton iteration used to
        # scale its null direction by 1.5 per step and return finite features
        layer = small_layer()
        V = layer.landmarks.copy()
        V[:, 1] = V[:, 0]
        X = np.random.default_rng(8).normal(size=(6, 3))
        with pytest.raises(ValueError, match="smallest eigenvalue"):
            forward(NystromLayer(V, sigma=layer.sigma, epsilon=0.0), X)
        assert np.all(np.isfinite(forward(NystromLayer(V, sigma=layer.sigma), X).phi))


def fd_landmark_gradient(layer, X, C, normalize, h=1e-5):
    V = layer.landmarks
    fd = np.zeros_like(V)
    for a in range(V.shape[0]):
        for b in range(V.shape[1]):
            for sgn in (1.0, -1.0):
                Vp = V.copy()
                Vp[a, b] += sgn * h
                val = np.sum(C * forward(layer.with_landmarks(Vp), X, normalize).phi)
                fd[a, b] += sgn * val / (2 * h)
    return fd


class TestBackward:
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_finite_differences(self, normalize):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(7, 3))
        layer = small_layer(seed=11)
        fb = forward(layer, X, normalize=normalize)
        C = rng.normal(size=fb.phi.shape)
        grad = backward(fb, C)
        fd = fd_landmark_gradient(layer, X, C, normalize)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-4

    def test_many_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(6, 2))
            layer = small_layer(seed=200 + seed, d=2, p=3, sigma=0.9)
            fb = forward(layer, X, normalize=True)
            C = rng.normal(size=fb.phi.shape)
            grad = backward(fb, C)
            fd = fd_landmark_gradient(layer, X, C, True)
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(grad - fd) / denom) <= 1e-4

    def test_far_landmark_gets_negligible_gradient(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(8, 2))
        V = rng.normal(size=(2, 3))
        V[:, 2] = 1e3  # kernel values vanish for this column
        layer = NystromLayer(landmarks=V, sigma=1.0)
        fb = forward(layer, X, normalize=False)
        grad = backward(fb, np.ones_like(fb.phi))
        assert np.max(np.abs(grad[:, 2])) <= 1e-10

    def test_bad_cotangent_shape(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(5, 3))
        fb = forward(small_layer(seed=16), X)
        with pytest.raises(ValueError):
            backward(fb, np.ones((5, 5)))
