import itertools
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import xsdc.features
import xsdc.labeling
from xsdc.labeling import (
    KMEANS_ITERS,
    KMEANS_RESTARTS,
    _PROPAGATE_BLOCK,
    LabelAssignment,
    fit_final_classifier,
    hungarian_match,
    nn_propagate,
    predict_classes,
    spectral_cluster,
)
from xsdc.features import sqeuclidean
from xsdc.linalg import ridge_solve


# ---------------------------------------------------------------- propagation

def test_propagate_single_label_floods():
    X = np.random.default_rng(0).normal(size=(7, 3))
    out = nn_propagate(X, labeled_idx=[2], labels_S=[5])
    assert out.source == "nearest_neighbor"
    assert np.array_equal(out.labels, np.full(7, 5))


def test_propagate_keeps_labeled_rows():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 4))
    idx = np.array([0, 3, 11, 19])
    lab = np.array([2, 0, 1, 2])
    out = nn_propagate(X, idx, lab)
    assert np.array_equal(out.labels[idx], lab)


def test_propagate_matches_loop_oracle():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 5))
    idx = np.array([4, 9, 17, 25])
    lab = np.array([0, 1, 2, 1])
    out = nn_propagate(X, idx, lab)
    for i in range(30):
        if i in idx:
            continue
        d = [np.linalg.norm(X[i] - X[j]) for j in idx]
        assert out.labels[i] == lab[int(np.argmin(d))]


def test_propagate_distance_tie_prefers_lowest_index():
    # rows 0 and 2 are equidistant from row 1; index 0 must win
    X = np.array([[0.0], [1.0], [2.0]])
    out = nn_propagate(X, labeled_idx=[2, 0], labels_S=[7, 3])
    assert out.labels[1] == 3


def test_propagate_blocks_match_unblocked():
    # integer grid points: many exactly equal distances, across three blocks
    rng = np.random.default_rng(3)
    n = 2 * _PROPAGATE_BLOCK + 300
    X = rng.integers(0, 3, size=(n, 2)).astype(float)
    idx = rng.choice(n, size=40, replace=False)
    lab = rng.integers(0, 4, size=40)
    order = np.argsort(idx, kind="stable")
    unlabeled = np.setdiff1d(np.arange(n), idx)
    d = cdist(X[unlabeled], X[idx[order]])
    expected = np.full(n, -1)
    expected[idx] = lab
    expected[unlabeled] = lab[order][np.argmin(d, axis=1)]
    assert np.array_equal(nn_propagate(X, idx, lab).labels, expected)


def _cdist_propagate(X, idx, lab):
    """nn_propagate written with scipy's cdist, the oracle it must equal."""
    order = np.argsort(idx, kind="stable")
    unlabeled = np.setdiff1d(np.arange(X.shape[0]), idx)
    expected = np.full(X.shape[0], -1)
    expected[idx] = lab
    if unlabeled.size:
        d = cdist(X[unlabeled], X[idx[order]])
        expected[unlabeled] = lab[order][np.argmin(d, axis=1)]
    return expected


@pytest.mark.parametrize("p", [1, 5, 8, 16, 17])
def test_propagate_matches_cdist_oracle(p):
    # grid points make equidistant labeled rows, grid points moved by a few
    # ulps distances within rounding of each other; copies make duplicates
    rng = np.random.default_rng(p)
    for case in range(60):
        n = int(rng.integers(2, 90))
        X = rng.integers(0, 3, size=(n, p)).astype(float)
        if case % 4 == 1:
            X += rng.integers(-2, 3, size=(n, p)) * 2.0**-50
        if case % 4 >= 2:
            X = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3)
        m = int(rng.integers(1, n + 1))
        idx = rng.choice(n, size=m, replace=False)
        if case % 4 == 2 and m >= 2:
            X[idx[1]] = X[idx[0]]
        lab = rng.integers(0, 4, size=m)
        expected = _cdist_propagate(X, idx, lab)
        assert np.array_equal(nn_propagate(X, idx, lab).labels, expected)


def _float32_nearest(X, C):
    """Per row of X, the row of C with the least score in the float32
    arithmetic of nn_propagate's screen."""
    X32 = np.hstack([X, np.ones((len(X), 1))]).astype(np.float32)
    C32 = np.vstack([-2.0 * C.T, np.einsum("ij,ij->i", C, C)]).astype(np.float32)
    return np.argmin(X32 @ C32, axis=1)


def _twin_draw(rng, d, m, n_queries, scale):
    """m labeled rows in near pairs and queries around them, as (X, idx).

    Each second twin is the first moved by 2^-40 to 2^-20 of its size, or
    not at all, so the two distances of a query differ by less than the
    float32 screen's bound: their float32 scores tie or swap order."""
    base = rng.normal(size=((m + 1) // 2, d)) * scale
    shift = rng.integers(-8, 9, size=base.shape) * 2.0 ** -rng.integers(20, 41, size=(len(base), 1))
    twins = base * (1.0 + shift * (rng.random((len(base), 1)) < 0.8))
    labeled = np.vstack([base, twins])[:m]
    queries = labeled[rng.integers(0, m, size=n_queries)] + rng.normal(size=(n_queries, d)) * scale
    X = np.vstack([labeled, queries])
    perm = rng.permutation(len(X))
    return X[perm], np.argsort(perm)[:m]


@pytest.mark.parametrize("d", [1, 3, 10, 17])
def test_propagate_float32_screen_matches_cdist_oracle(d):
    # near-twin labeled rows put the two least distances of most queries
    # within the float32 bound of each other; the draws must include rows
    # whose float32 scores pick another row than cdist, which the exact
    # re-decision then corrects
    rng = np.random.default_rng(100 + d)
    float32_wrong = 0
    for case in range(30):
        m = 600 if case == 0 else int(rng.integers(2, 60))
        n_queries = 1300 if case == 0 else int(rng.integers(1, 80))
        X, idx = _twin_draw(rng, d, m, n_queries, 10.0 ** rng.uniform(-2, 2))
        lab = rng.integers(0, 6, size=m)
        expected = _cdist_propagate(X, idx, lab)
        assert np.array_equal(nn_propagate(X, idx, lab).labels, expected)
        unlabeled = np.setdiff1d(np.arange(len(X)), idx)
        order = np.sort(idx)
        truth = np.argmin(cdist(X[unlabeled], X[order]), axis=1)
        float32_wrong += np.count_nonzero(_float32_nearest(X[unlabeled], X[order]) != truth)
    assert float32_wrong > 0


@pytest.mark.parametrize("scale", [1e20, 1e-20, 1e-40])
def test_propagate_outside_float32_range_matches_cdist_oracle(scale, monkeypatch):
    # one column of magnitude 1e20 overflows float32 in the scores, one of
    # 1e-20 or 1e-40 underflows its products or its entries; every row takes
    # the exact path, whether all rows hold that column or only the
    # unlabeled ones
    exact_rows = []
    monkeypatch.setattr(xsdc.labeling, "sqeuclidean",
                        lambda A, B: exact_rows.append(len(A)) or sqeuclidean(A, B))
    rng = np.random.default_rng(7)
    for case in range(20):
        d = int(rng.integers(1, 18))
        X, idx = _twin_draw(rng, d, int(rng.integers(2, 40)), 50, 1.0)
        rows = np.setdiff1d(np.arange(len(X)), idx) if case % 2 else slice(None)
        col = rng.integers(d)
        X[rows, col] = scale * (1.0 + np.abs(X[rows, col]))
        lab = rng.integers(0, 4, size=idx.size)
        assert np.array_equal(nn_propagate(X, idx, lab).labels, _cdist_propagate(X, idx, lab))
    assert sum(exact_rows) == 20 * 50


def test_propagate_screen_decides_most_rows(monkeypatch):
    # apart from near ties the float32 scores decide: well spread rows
    # against 600 labeled ones send almost none to the exact distances
    exact_rows = []
    monkeypatch.setattr(xsdc.labeling, "sqeuclidean",
                        lambda A, B: exact_rows.append(len(A)) or sqeuclidean(A, B))
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5000, 8))
    idx = rng.choice(5000, size=600, replace=False)
    lab = rng.integers(0, 4, size=600)
    assert np.array_equal(nn_propagate(X, idx, lab).labels, _cdist_propagate(X, idx, lab))
    assert sum(exact_rows) <= 0.01 * 4400


def test_propagate_rejects_non_finite_features():
    X = np.random.default_rng(4).normal(size=(6, 2))
    for bad in (np.nan, np.inf):
        X[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            nn_propagate(X, [0, 1], [0, 1])


def test_propagate_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        nn_propagate(X, [], [])
    with pytest.raises(ValueError):
        nn_propagate(X, [0, 1], [0])
    with pytest.raises(ValueError):
        nn_propagate(X, [7], [0])


@pytest.mark.parametrize(
    "labeled", [[0.5], [np.nan], [np.inf], [True], np.array([2.0, 1.5])]
)
def test_propagate_rejects_non_integer_indices(labeled):
    # [0.5] used to propagate from row 0
    X = np.random.default_rng(12).normal(size=(6, 2))
    with pytest.raises(ValueError, match="labeled_idx must hold integers"):
        nn_propagate(X, labeled, [1] * len(labeled))
    expected = nn_propagate(X, [2, 4], [1, 0]).labels
    for dtype in (np.float64, np.int32, np.uint8):
        same = np.array([2, 4], dtype=dtype)
        assert np.array_equal(nn_propagate(X, same, [1, 0]).labels, expected)


# ------------------------------------------------------------------- spectral

def _block_equivalence(sizes, noise=0.0, seed=0):
    n = sum(sizes)
    M = np.zeros((n, n))
    start = 0
    for s in sizes:
        M[start : start + s, start : start + s] = 1.0
        start += s
    if noise:
        rng = np.random.default_rng(seed)
        M = M + noise * rng.normal(size=(n, n))
    return M


def test_spectral_recovers_blocks():
    M = _block_equivalence([6, 5, 7])
    out = spectral_cluster(M, k=3, seed=0)
    truth = np.repeat([0, 1, 2], [6, 5, 7])
    _, acc = hungarian_match(out.labels, truth)
    assert acc == 1.0
    assert out.source == "spectral"


def test_spectral_tolerates_noise():
    M = _block_equivalence([10, 10, 10], noise=0.05, seed=3)
    out = spectral_cluster(M, k=3, seed=0)
    truth = np.repeat([0, 1, 2], 10)
    _, acc = hungarian_match(out.labels, truth)
    assert acc == 1.0


def test_spectral_deterministic():
    M = _block_equivalence([4, 4], noise=0.3, seed=5)
    a = spectral_cluster(M, k=2, seed=11)
    b = spectral_cluster(M, k=2, seed=11)
    assert np.array_equal(a.labels, b.labels)


def test_spectral_identity_matrix_valid_output():
    out = spectral_cluster(np.eye(9), k=3, seed=0)
    assert out.labels.shape == (9,)
    assert set(np.unique(out.labels)) <= {0, 1, 2}


def test_spectral_k_one():
    out = spectral_cluster(np.eye(5), k=1, seed=0)
    assert np.array_equal(out.labels, np.zeros(5, dtype=np.int64))


def test_spectral_validation():
    with pytest.raises(ValueError):
        spectral_cluster(np.zeros((3, 4)), k=2)
    with pytest.raises(ValueError):
        spectral_cluster(np.eye(3), k=0)
    with pytest.raises(ValueError):
        spectral_cluster(np.eye(3), k=4)


@pytest.mark.parametrize(
    "k, seed",
    [(2.5, 0), (np.inf, 0), (True, 0), (2, True), (2, np.True_), (2, 1.5), (2, -1)],
)
def test_spectral_counts_must_be_whole(k, seed):
    # k = 2.5 used to cluster with k = 2, and seed=True ran as seed 1
    M = _block_equivalence([4, 4], noise=0.3, seed=5)
    with pytest.raises(ValueError, match="must be a whole number"):
        spectral_cluster(M, k, seed=seed)
    expected = spectral_cluster(M, 2, seed=11).labels
    for same_k, same_seed in [(np.int64(2), np.int64(11)), (2.0, 11.0)]:
        assert np.array_equal(spectral_cluster(M, same_k, seed=same_seed).labels, expected)


def test_spectral_rejects_non_finite_matrix():
    # non-finite entries used to reach eigh and k-means
    M = np.eye(6)
    M[1, 4] = M[4, 1] = np.nan
    for bad in (M, np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
        with pytest.raises(ValueError, match="non-finite"):
            spectral_cluster(bad, k=2)


def _kmeans_oracle(X, k, seed):
    """The k-means the package ran before it used numpy alone: one restart
    after another, each seeded and iterated with scipy's cdist."""
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        n = X.shape[0]
        centers = np.empty((k, X.shape[1]))
        d2 = np.full(n, np.inf)
        for c in range(k):
            total = d2.sum()
            if c > 0 and total > 0:
                idx = int(rng.choice(n, p=d2 / total))
            else:
                idx = int(rng.integers(n))
            centers[c] = X[idx]
            d2 = np.minimum(d2, np.sum((X - centers[c]) ** 2, axis=1))
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(KMEANS_ITERS):
            dist = cdist(X, centers, "sqeuclidean")
            new_labels = np.argmin(dist, axis=1)
            for c in range(k):
                members = new_labels == c
                if members.any():
                    centers[c] = X[members].mean(axis=0)
                else:
                    worst = int(np.argmax(np.min(dist, axis=1)))
                    centers[c] = X[worst]
                    new_labels[worst] = c
            done = np.array_equal(new_labels, labels)
            labels = new_labels
            if done:
                break
        inertia = float(np.sum((X - centers[labels]) ** 2))
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
    return best_labels


def test_kmeans_matches_cdist_oracle():
    # noisy blocks, duplicate rows (empty clusters) and k from 1 to 6
    rng = np.random.default_rng(12)
    for case in range(40):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(k, 80))
        truth = rng.integers(0, k, size=n)
        X = np.eye(k)[truth] + rng.uniform(0.0, 0.6) * rng.normal(size=(n, k))
        if case % 4 == 0:
            X = np.round(X, 1)
        seed = int(rng.integers(100))
        assert np.array_equal(xsdc.labeling._kmeans(X, k, seed), _kmeans_oracle(X, k, seed))


def _previous_kmeans(X, k, seed):
    """The k-means before its center update covered every running restart at
    once: the restarts share the distance call, then each updates its
    centers cluster by cluster with np.add.reduce."""
    n, d = X.shape
    rng = np.random.default_rng(seed)
    centers = np.empty((KMEANS_RESTARTS, k, d))
    for seeds in centers:
        d2 = np.full(n, np.inf)
        for c in range(k):
            total = d2.sum() if c else 0.0
            idx = int(rng.choice(n, p=d2 / total)) if total > 0 else int(rng.integers(n))
            seeds[c] = X[idx]
            d2 = np.minimum(d2, np.sum((X - seeds[c]) ** 2, axis=1))
    labels = np.zeros((KMEANS_RESTARTS, n), dtype=np.int64)
    running = list(range(KMEANS_RESTARTS))
    for _ in range(KMEANS_ITERS):
        if not running:
            break
        dist = sqeuclidean(X, centers[running].reshape(-1, d)).reshape(n, -1, k)
        nearest = np.ascontiguousarray(np.argmin(dist, axis=2).T)
        still = []
        for col, r in enumerate(running):
            new_labels = nearest[col]
            for c in range(k):
                rows = X[new_labels == c]
                if rows.size:
                    # rows.mean(axis=0) as numpy forms it, without its overhead
                    centers[r, c] = np.add.reduce(rows, axis=0) / len(rows)
                else:
                    # re-seed an empty cluster at the worst-fit point
                    worst = int(np.argmax(np.min(dist[:, col], axis=1)))
                    centers[r, c] = X[worst]
                    new_labels[worst] = c
            if not np.array_equal(new_labels, labels[r]):
                still.append(r)
            labels[r] = new_labels
        running = still
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        inertia = float(np.sum((X - centers[r][labels[r]]) ** 2))
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels[r], inertia
    return best_labels


def _kmeans_fuzz_case(rng, case):
    """An (n, k) embedding with k from 1 to 5, of one of six kinds."""
    k = int(rng.integers(1, 6))
    n = int(rng.integers(k, 60))
    kind = case % 6
    if kind == 0:  # noisy blocks
        X = np.eye(k)[rng.integers(0, k, size=n)] + rng.uniform(0.0, 0.8) * rng.normal(size=(n, k))
    elif kind == 1:  # no more distinct rows than clusters: empty clusters
        distinct = rng.normal(size=(int(rng.integers(1, k + 1)), k))
        X = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == 2:  # small integers: exact distance ties
        X = rng.integers(-2, 3, size=(n, k)).astype(np.float64)
    elif kind == 3:  # subnormal-adjacent scale
        X = 1e-300 * rng.normal(size=(n, k))
    elif kind == 4:  # near-constant rows
        X = 1.0 + 1e-12 * rng.normal(size=(n, k))
    else:  # a spectral embedding, as spectral_cluster hands it over
        M = rng.random((n, n))
        X = np.linalg.eigh(M + M.T)[1][:, -k:]
    return X, k


def test_kmeans_matches_previous_update(monkeypatch):
    # the same labels, and the same centers at every iteration up to the
    # sign of a zero, as the per-restart update: duplicates, ties, tiny and
    # near-constant data, empty clusters and k = 1
    this_module = sys.modules[__name__]
    rng = np.random.default_rng(22)
    for case in range(200):
        X, k = _kmeans_fuzz_case(rng, case)
        seed = int(rng.integers(1000))
        runs = []
        for module, kmeans in ((xsdc.labeling, xsdc.labeling._kmeans), (this_module, _previous_kmeans)):
            centers = []

            def recorded(A, B, centers=centers):
                centers.append(B.copy())
                return xsdc.features.sqeuclidean(A, B)

            with monkeypatch.context() as mp:
                mp.setattr(module, "sqeuclidean", recorded)
                runs.append((kmeans(X, k, seed), centers))
        (labels, centers), (expected_labels, expected_centers) = runs
        assert np.array_equal(labels, expected_labels), case
        assert len(centers) == len(expected_centers), case
        assert all(map(np.array_equal, centers, expected_centers)), case


# ------------------------------------------------------------------ hungarian

def test_hungarian_identity():
    labels = np.array([0, 1, 2, 0, 1, 2])
    mapping, acc = hungarian_match(labels, labels)
    assert np.array_equal(mapping, [0, 1, 2])
    assert acc == 1.0


def test_hungarian_pure_relabeling():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    mapping, acc = hungarian_match(pred, truth)
    assert acc == 1.0
    assert np.array_equal(mapping[pred], truth)


def test_hungarian_matches_permutation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        truth = rng.integers(0, 3, size=40)
        pred = rng.integers(0, 3, size=40)
        _, acc = hungarian_match(pred, truth, k=3)
        best = max(
            np.mean(np.array(perm)[pred] == truth)
            for perm in itertools.permutations(range(3))
        )
        assert acc == pytest.approx(best, abs=1e-12)


def test_hungarian_relabel_invariance():
    rng = np.random.default_rng(8)
    truth = rng.integers(0, 4, size=60)
    pred = rng.integers(0, 4, size=60)
    _, acc = hungarian_match(pred, truth, k=4)
    perm = np.array([2, 0, 3, 1])
    _, acc_perm = hungarian_match(perm[pred], truth, k=4)
    assert acc == pytest.approx(acc_perm, abs=1e-12)


def test_hungarian_matches_scipy_oracle():
    # few rows over k labels give tied tables; k = 1 is the trivial table
    rng = np.random.default_rng(11)
    for case in range(600):
        k = 1 + case % 7
        size = int(rng.integers(1, 3 * k + 2))
        pred = rng.integers(0, k, size=size)
        truth = rng.integers(0, k, size=size)
        table = np.zeros((k, k), dtype=np.int64)
        np.add.at(table, (pred, truth), 1)
        rows, cols = linear_sum_assignment(table, maximize=True)
        mapping, acc = hungarian_match(pred, truth, k=k)
        assert np.array_equal(rows, np.arange(k))
        assert np.array_equal(mapping, cols)
        assert acc == float(table[rows, cols].sum()) / size


def test_hungarian_validation():
    with pytest.raises(ValueError):
        hungarian_match([0, 1], [0])
    with pytest.raises(ValueError):
        hungarian_match([], [])
    with pytest.raises(ValueError):
        hungarian_match([0, -1], [0, 1])
    with pytest.raises(ValueError):
        hungarian_match([0, 3], [0, 1], k=2)


@pytest.mark.parametrize("k", [2.5, 3.5, np.inf, np.nan, True, 0])
def test_hungarian_k_must_be_whole(k):
    # k = 2.5 used to run as k = 2
    pred, truth = [0, 1, 1, 0, 1], [1, 0, 0, 0, 1]
    with pytest.raises(ValueError, match="^k must be a whole number"):
        hungarian_match(pred, truth, k=k)
    mapping, accuracy = hungarian_match(pred, truth, k=3)
    for same in (np.int64(3), 3.0):
        got = hungarian_match(pred, truth, k=same)
        assert np.array_equal(got[0], mapping) and got[1] == accuracy


# ----------------------------------------------------------------- classifier

def test_classifier_separable_data_perfect():
    rng = np.random.default_rng(9)
    means = 8.0 * np.eye(3)
    phi = np.vstack(
        [rng.normal(loc=means[c], size=(15, 3)) for c in range(3)]
    )
    labels = np.repeat([0, 1, 2], 15)
    sol = fit_final_classifier(phi, labels, lam=1e-3)
    assert np.array_equal(predict_classes(sol, phi), labels)


def test_classifier_equals_one_hot_ridge():
    rng = np.random.default_rng(10)
    phi = rng.normal(size=(25, 4))
    labels = rng.integers(0, 3, size=25)
    sol = fit_final_classifier(phi, labels, lam=0.05)
    Y = np.zeros((25, 3))
    Y[np.arange(25), labels] = 1.0
    ref = ridge_solve(phi, Y, 0.05)
    np.testing.assert_allclose(sol.weights, ref.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.intercept, ref.intercept, rtol=0, atol=1e-12)


def test_classifier_k_wider_than_observed():
    phi = np.random.default_rng(11).normal(size=(10, 2))
    labels = np.zeros(10, dtype=int)
    sol = fit_final_classifier(phi, labels, lam=1.0, k=4)
    assert sol.weights.shape == (2, 4)
    assert np.array_equal(predict_classes(sol, phi), labels)


def test_classifier_score_tie_prefers_lowest_class():
    class Flat:
        def predict(self, phi):
            return np.zeros((phi.shape[0], 3))

    phi = np.zeros((4, 2))
    assert np.array_equal(predict_classes(Flat(), phi), np.zeros(4, dtype=int))


def test_classifier_validation():
    phi = np.zeros((5, 2))
    with pytest.raises(ValueError):
        fit_final_classifier(phi, np.array([0, 1]), lam=1.0)
    with pytest.raises(ValueError):
        fit_final_classifier(phi, np.array([0, 1, -1, 0, 1]), lam=1.0)
    with pytest.raises(ValueError):
        fit_final_classifier(phi, np.array([0, 1, 2, 0, 1]), lam=1.0, k=2)


@pytest.mark.parametrize("k", [2.5, 3.5, np.inf, np.nan, True])
def test_classifier_k_must_be_whole(k):
    # k = 2.5 used to run as k = 2
    phi = np.random.default_rng(13).normal(size=(8, 3))
    labels = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    with pytest.raises(ValueError, match="^k must be a whole number"):
        fit_final_classifier(phi, labels, lam=0.1, k=k)
    expected = fit_final_classifier(phi, labels, lam=0.1, k=3)
    for same in (np.int64(3), 3.0):
        got = fit_final_classifier(phi, labels, lam=0.1, k=same)
        assert got.weights.tobytes() == expected.weights.tobytes()
        assert got.intercept.tobytes() == expected.intercept.tobytes()


def test_assignment_dataclass_defaults():
    a = LabelAssignment(labels=np.arange(3), source="ground_truth")
    assert a.source == "ground_truth" and np.array_equal(a.labels, np.arange(3))
