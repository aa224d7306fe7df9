"""Turning representations and equivalence matrices into hard labels.

Covers the two labeling routes (1-nearest-neighbor propagation from the
labeled set, spectral clustering of a balanced equivalence matrix), the
Hungarian matching used to score cluster labels against ground truth, and
the terminal ridge classifier fit on propagated labels.

Runs on numpy alone.  Distances, nearest neighbors and matchings equal
those of scipy's cdist and linear_sum_assignment bit for bit, ties
included; the tests hold them to scipy as the oracle.
"""

import math

import numpy as np
from dataclasses import dataclass

from .data import whole_number
from .features import sqeuclidean
from .linalg import ridge_solve

KMEANS_RESTARTS = 20
KMEANS_ITERS = 100
# unlabeled rows per distance block in nn_propagate; bounds its memory at
# _PROPAGATE_BLOCK x |labeled| float32 scores
_PROPAGATE_BLOCK = 1024


@dataclass
class LabelAssignment:
    """Hard labels plus where they came from."""

    labels: np.ndarray
    source: str  # nearest_neighbor | spectral | ground_truth


def nn_propagate(features_all, labeled_idx, labels_S):
    """Propagate labels to every row from its nearest labeled row.

    Labeled rows keep their labels.  Each unlabeled row takes the label of
    its nearest labeled row in Euclidean distance; distance ties prefer the
    lowest observation index.  Non-finite features and labeled indices
    that are not integers raise ValueError.

    The unlabeled rows go through _nearest in blocks of _PROPAGATE_BLOCK,
    against the float32 operands of the labeled rows built once here, so
    the largest array is one block's _PROPAGATE_BLOCK x |labeled| float32
    scores; the other arrays hold O((|labeled| + block) d) values.
    """
    features_all = np.asarray(features_all, dtype=np.float64)
    given = np.asarray(labeled_idx)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison
        labeled_idx = given.astype(np.int64)
    if given.dtype == bool or not np.array_equal(labeled_idx, given):
        raise ValueError("labeled_idx must hold integers")
    labels_S = np.asarray(labels_S, dtype=np.int64)
    if labeled_idx.size == 0:
        raise ValueError("no labeled observations to propagate from")
    if labeled_idx.shape != labels_S.shape:
        raise ValueError("labeled_idx and labels_S must align")
    if not np.all(np.isfinite(features_all)):
        raise ValueError("features must be finite")
    n = features_all.shape[0]
    if labeled_idx.min() < 0 or labeled_idx.max() >= n:
        raise ValueError("labeled_idx out of range")
    order = np.argsort(labeled_idx, kind="stable")
    labeled_idx = labeled_idx[order]
    labels_S = labels_S[order]
    labels = np.full(n, -1, dtype=np.int64)
    labels[labeled_idx] = labels_S
    unlabeled = np.flatnonzero(labels < 0)
    C = features_all[labeled_idx]
    norms = np.einsum("ij,ij->i", C, C)
    # [-2 C^T; |c|^2]: a row [x, 1] times it scores every labeled row
    C32 = np.empty((C.shape[1] + 1, C.shape[0]), dtype=np.float32)
    with np.errstate(over="ignore"):  # only out of range, see _screen_reach
        np.multiply(C.T, -2.0, out=C32[:-1])
        C32[-1] = norms
    reach = _screen_reach(C, norms).max()
    # each row's label is decided alone, so blocking changes no label
    for start in range(0, unlabeled.size, _PROPAGATE_BLOCK):
        rows = unlabeled[start:start + _PROPAGATE_BLOCK]
        labels[rows] = labels_S[_nearest(features_all[rows], C, C32, reach)]
    return LabelAssignment(labels=labels, source="nearest_neighbor")


def _screen_reach(A, norms):
    """norms (the |a|^2 of the rows of A), or inf for a row with |a|^2 over
    2^124 or an entry neither 0 nor of magnitude in [2^-60, 2^60].  Within
    these limits every float32 operand, product and score of _nearest's
    screen is normal or an exact sum, and none overflows."""
    mag = np.abs(A)
    normal = np.all((mag == 0) | ((mag >= 2.0**-60) & (mag <= 2.0**60)), axis=1)
    return np.where(normal & (norms <= 2.0**124), norms, np.inf)


def _nearest(X, C, C32, c_reach):
    """Per row of X, the first row of C at the least Euclidean distance.

    Equals np.argmin(cdist(X, C), axis=1), ties included.  C32 is
    [-2 C^T; |c|^2] in float32 (|c|^2 formed in float64) and c_reach the
    largest _screen_reach of the rows of C.  One float32 product [x, 1] C32
    scores the rows of C by s = |c|^2 - 2 x.c; a row of X is decided there
    when its runner-up scores more than bound above its best, and re-decided
    on exact distances, as cdist forms them, otherwise.

    The bound.  Let u = 2^-24, u' = 2^-53, gamma_n = n u / (1 - n u) and
    R = |x|^2 + max |c|^2.  In range (see _screen_reach) x and -2c round to
    float32 with relative error u each, and |c|^2 with u + gamma'_d.  A dot
    product of n terms errs by gamma_n times the sum of their magnitudes in
    any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, eq. 3.5), so a score errs by at most
    gamma_{d+3} 2|x||c| + (gamma_{d+2} + 2 gamma'_d) |c|^2
    <= (gamma_{d+3} + gamma_{d+2} + 2 gamma'_d) R, (2d + 5) u R to first
    order.  cdist's sum errs by 2 gamma'_{d+2} R, and the rounded roots of
    sums 10.1 u' R apart differ.  A runner-up more than
    N = 2 (gamma_{d+3} + gamma_{d+2}) R + (8 d + 23) u' R
    ahead in float32 therefore lies farther in cdist too, whatever the
    indices.  With g = (d + 3) u, N < 4.0001 g / (1 - g) R, and bound is
    9 g / (1 - g) R, over twice N.

    Range.  In range, x and -2c are normal in float32, their products lie in
    [2^-119, 2^121], and a sum that underflows is exact.  With g < 1/2,
    gamma_{d+1} < 1, and R <= 2^125 keeps every partial sum of a score below
    (1 + gamma_{d+1}) (1 + 3u) 2R < 2^128, so no score overflows.  A row or a labeled set outside the range has an
    infinite reach, hence an infinite bound, and takes the exact path: float32
    overflow or underflow never decides a label.
    """
    n, d = X.shape
    X32 = np.empty((n, d + 1), dtype=np.float32)
    X32[:, -1] = 1.0
    g = (d + 3) * 2.0**-24
    # an overflow or inf - inf arises only in rows whose bound is infinite
    with np.errstate(over="ignore", invalid="ignore"):
        X32[:, :-1] = X
        scores = X32 @ C32
        rows = np.arange(n)
        best = np.argmin(scores, axis=1)
        least = scores[rows, best]
        scores[rows, best] = np.inf
        reach = _screen_reach(X, np.einsum("ij,ij->i", X, X)) + c_reach
        bound = 9.0 * g / (1.0 - g) * reach if g < 0.5 else np.inf
        close = np.flatnonzero(~(scores.min(axis=1) > least + bound))
    best[close] = np.argmin(np.sqrt(sqeuclidean(X[close], C)), axis=1)
    return best


def _kmeans(X, k, seed):
    """Best of KMEANS_RESTARTS seeded Lloyd runs by inertia, first on ties.

    Only the k-means++ style seeding draws from the generator, so every
    restart is seeded first; the restarts still running then share one
    distance call and one center update per iteration, each iterating as
    it would alone.  The update sums each cluster's rows in index order
    with np.bincount over (restart, cluster) bins, as np.add.reduce sums
    them one restart at a time.  A restart with an empty cluster updates
    cluster by cluster instead, re-seeding each empty one in turn.
    """
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
    running = np.arange(KMEANS_RESTARTS)
    for _ in range(KMEANS_ITERS):
        if not running.size:
            break
        m = running.size
        dist = sqeuclidean(X, centers[running].reshape(-1, d)).reshape(n, m, k)
        nearest = np.ascontiguousarray(np.argmin(dist, axis=2).T)
        bins = (nearest + k * np.arange(m)[:, None]).reshape(-1)
        counts = np.bincount(bins, minlength=m * k).reshape(m, k)
        sums = np.stack(
            [np.bincount(bins, weights=column, minlength=m * k) for column in np.tile(X.T, m)],
            axis=1,
        ).reshape(m, k, d)
        full = counts.min(axis=1) > 0
        centers[running[full]] = sums[full] / counts[full][:, :, None]
        for col in np.flatnonzero(~full):
            r, new_labels = running[col], nearest[col]
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
        changed = np.any(nearest != labels[running], axis=1)
        labels[running] = nearest
        running = running[changed]
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        inertia = float(np.sum((X - centers[r][labels[r]]) ** 2))
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels[r], inertia
    return best_labels


def spectral_cluster(M, k, seed=0):
    """Cluster rows by the leading eigenvectors of the symmetrized matrix.

    Takes the k eigenvectors of (M + M^T) / 2 with largest algebraic
    eigenvalues and runs seeded k-means on the rows of the embedding
    (k-means++ style seeding, fixed restart and iteration budget).  The
    result is deterministic for a fixed seed.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("M has non-finite entries")
    n = M.shape[0]
    k = whole_number("k", k, 1)
    if k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    seed = whole_number("seed", seed, 0)
    sym = 0.5 * (M + M.T)
    _, vecs = np.linalg.eigh(sym)
    embedding = vecs[:, -k:]
    labels = _kmeans(embedding, k, seed)
    return LabelAssignment(labels=labels, source="spectral")


def hungarian_match(pred, truth, k=None):
    """Best label permutation and the resulting accuracy.

    Builds the k x k contingency table between predicted and true labels and
    solves the assignment problem exactly.  Returns (mapping, accuracy)
    where mapping[p] is the true label matched to predicted label p.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("pred and truth must be 1-d arrays of equal length")
    if pred.size == 0:
        raise ValueError("empty label arrays")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be nonnegative")
    if k is None:
        k = int(max(pred.max(), truth.max())) + 1
    k = whole_number("k", k, 1)
    if pred.max() >= k or truth.max() >= k:
        raise ValueError(f"labels exceed k={k}")
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    mapping = np.array(_max_assignment(table.tolist()), dtype=np.int64)
    accuracy = float(table[np.arange(k), mapping].sum()) / pred.size
    return mapping, accuracy


def _max_assignment(table):
    """Column for each row of a square integer table, maximizing the total.

    Shortest augmenting paths after Crouse (2016, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4)) as scipy's
    linear_sum_assignment(table, maximize=True) runs them, so equal optima
    resolve alike.  Costs are the negated counts: every sum is exact.
    """
    k = len(table)
    u, v = [0] * k, [0] * k
    path, col4row, row4col = [-1] * k, [-1] * k, [-1] * k
    for cur in range(k):
        shortest = [math.inf] * k
        seen_rows, seen_cols = set(), set()
        remaining = list(range(k - 1, -1, -1))  # a constant table gets the identity
        i, min_val, sink = cur, 0, -1
        while sink < 0:
            seen_rows.add(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val - table[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                # among equal costs prefer a free column: it ends the path
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            min_val, j = lowest, remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            seen_cols.add(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
        u[cur] += min_val
        for i in seen_rows - {cur}:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        i, j = -1, sink
        while i != cur:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return col4row


def fit_final_classifier(features, labels, lam, k=None):
    """Ridge classifier on one-hot targets built from hard labels."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
        raise ValueError("labels must be a vector matching feature rows")
    if labels.min() < 0:
        raise ValueError("labels must be nonnegative (no unlabeled rows here)")
    if k is None:
        k = int(labels.max()) + 1
    k = whole_number("k", k, 1)
    if labels.max() >= k:
        raise ValueError(f"labels exceed k={k}")
    Y = np.zeros((labels.size, k))
    Y[np.arange(labels.size), labels] = 1.0
    return ridge_solve(features, Y, lam)


def predict_classes(solution, features):
    """Argmax class prediction; score ties resolve to the lowest class."""
    return np.argmax(solution.predict(features), axis=1)
