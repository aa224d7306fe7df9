"""Turning representations and equivalence matrices into hard labels.

Covers the two labeling routes (1-nearest-neighbor propagation from the
labeled set, spectral clustering of a balanced equivalence matrix), the
Hungarian matching used to score cluster labels against ground truth, and
the terminal ridge classifier fit on propagated labels.
"""

import numpy as np
from dataclasses import dataclass
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .linalg import ridge_solve

KMEANS_RESTARTS = 20
KMEANS_ITERS = 100
# unlabeled rows per distance block in nn_propagate; bounds its memory at
# _PROPAGATE_BLOCK x |labeled| distances
_PROPAGATE_BLOCK = 1024


@dataclass
class LabelAssignment:
    """Hard labels plus where they came from."""

    labels: np.ndarray
    source: str  # nearest_neighbor | spectral | ground_truth
    matched_accuracy: float = None


def nn_propagate(features_all, labeled_idx, labels_S, k_neighbors=1):
    """Propagate labels to every row by nearest labeled neighbors.

    Labeled rows keep their labels.  Each unlabeled row takes the majority
    label of its k nearest labeled rows in Euclidean distance; distance ties
    prefer the lowest observation index, vote ties the lowest label.
    """
    features_all = np.asarray(features_all, dtype=np.float64)
    labeled_idx = np.asarray(labeled_idx, dtype=np.int64)
    labels_S = np.asarray(labels_S, dtype=np.int64)
    if labeled_idx.size == 0:
        raise ValueError("no labeled observations to propagate from")
    if labeled_idx.shape != labels_S.shape:
        raise ValueError("labeled_idx and labels_S must align")
    n = features_all.shape[0]
    if labeled_idx.min() < 0 or labeled_idx.max() >= n:
        raise ValueError("labeled_idx out of range")
    k_neighbors = int(k_neighbors)
    if not 1 <= k_neighbors <= labeled_idx.size:
        raise ValueError(
            f"k_neighbors must be in [1, {labeled_idx.size}], got {k_neighbors}"
        )
    order = np.argsort(labeled_idx, kind="stable")
    labeled_idx = labeled_idx[order]
    labels_S = labels_S[order]
    labels = np.full(n, -1, dtype=np.int64)
    labels[labeled_idx] = labels_S
    unlabeled = np.flatnonzero(labels < 0)
    labeled_features = features_all[labeled_idx]
    # each row's distances are computed alone, so blocking changes no label
    for start in range(0, unlabeled.size, _PROPAGATE_BLOCK):
        rows = unlabeled[start:start + _PROPAGATE_BLOCK]
        d = cdist(features_all[rows], labeled_features)
        if k_neighbors == 1:
            labels[rows] = labels_S[np.argmin(d, axis=1)]
        else:
            nearest = np.argsort(d, axis=1, kind="stable")[:, :k_neighbors]
            for row, cols in zip(rows, nearest):
                votes = np.bincount(labels_S[cols])
                labels[row] = int(np.argmax(votes))
    return LabelAssignment(labels=labels, source="nearest_neighbor")


def _kmeans_once(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    d2 = np.full(n, np.inf)
    for c in range(k):
        if c == 0:
            idx = int(rng.integers(n))
        else:
            total = d2.sum()
            if total > 0:
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
                # re-seed an empty cluster at the worst-fit point
                worst = int(np.argmax(np.min(dist, axis=1)))
                centers[c] = X[worst]
                new_labels[worst] = c
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    inertia = float(np.sum((X - centers[labels]) ** 2))
    return labels, inertia


def _kmeans(X, k, seed):
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, inertia = _kmeans_once(X, k, rng)
        if inertia < best_inertia - 1e-12:
            best_labels, best_inertia = labels, inertia
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
    n = M.shape[0]
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
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
    k = int(k)
    if pred.max() >= k or truth.max() >= k:
        raise ValueError(f"labels exceed k={k}")
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    rows, cols = linear_sum_assignment(table, maximize=True)
    mapping = np.empty(k, dtype=np.int64)
    mapping[rows] = cols
    accuracy = float(table[rows, cols].sum()) / pred.size
    return mapping, accuracy


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
    k = int(k)
    if labels.max() >= k:
        raise ValueError(f"labels exceed k={k}")
    Y = np.zeros((labels.size, k))
    Y[np.arange(labels.size), labels] = 1.0
    return ridge_solve(features, Y, lam)


def predict_classes(solution, features):
    """Argmax class prediction; score ties resolve to the lowest class."""
    return np.argmax(solution.predict(features), axis=1)
