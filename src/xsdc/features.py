"""Learnable Nystrom feature map with a Gaussian kernel.

A layer is a set of landmark points (stored as the columns of a d x p
matrix), a bandwidth, and the whitening parameters.  The forward pass maps a
batch X to

    phi_raw = k(X, V) (k(V, V) + epsilon I)^{-1/2}

with the inverse square root computed in closed form from one symmetric
eigendecomposition, followed by per-batch centering and scaling so the rows
have unit mean squared norm.  The backward pass is the exact reverse-mode
sweep of that composition; only the landmarks are treated as parameters.
"""

import numpy as np
from dataclasses import dataclass, field

from .data import finite_number, whole_number
from .linalg import inv_sqrt, inv_sqrt_vjp


def rbf_kernel(A, B, sigma):
    """Gaussian kernel matrix between the rows of A and the rows of B.

    K[i, j] = exp(-||A_i - B_j||^2 / (2 sigma^2))
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("rbf_kernel expects 2-d arrays")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"dimension mismatch: {A.shape[1]} vs {B.shape[1]} columns"
        )
    sigma = finite_number("sigma", sigma, 0, strict=True)
    sq = (
        (A * A).sum(axis=1)[:, None]
        + (B * B).sum(axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * sigma * sigma))


# elements of the difference buffer of one sqeuclidean chunk
_DIST_CHUNK = 1 << 18
# median_bandwidth reads only this many leading rows
_BANDWIDTH_ROWS = 1000


def _ordered_sum(terms):
    """terms[0] + terms[1] + ... left to right, in place, as scipy's distance
    loops add; numpy's pairwise summation rounds otherwise from 8 terms."""
    for term in terms[1:]:
        terms[0] += term
    return terms[0]


def sqeuclidean(A, B):
    """Squared Euclidean distances between the rows of A and of B.

    Bit for bit scipy's cdist(A, B, "sqeuclidean"), and its square root
    cdist(A, B).  Rows of A go in chunks of at most _DIST_CHUNK differences.
    """
    step = max(1, _DIST_CHUNK // max(1, A.shape[1] * B.shape[0]))
    blocks = []
    for start in range(0, A.shape[0] or 1, step):
        # rows of A along the contiguous last axis: the long one in k-means
        rows = np.ascontiguousarray(A[start:start + step].T)
        diff = B.T[:, :, None] - rows[:, None, :]
        blocks.append(_ordered_sum(np.square(diff, out=diff)).T)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def median_bandwidth(X):
    """Median pairwise Euclidean distance over the first _BANDWIDTH_ROWS rows.

    Bit for bit np.median(scipy.spatial.distance.pdist(X[:1000])).
    One product estimates every squared distance; only pairs near the
    median get their exact one.  Raises ValueError for non-finite rows.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need at least 2 rows to estimate a bandwidth")
    Y = X[:_BANDWIDTH_ROWS]
    if not np.all(np.isfinite(Y)):
        raise ValueError("X has non-finite entries")
    m, d = Y.shape
    A = Y - Y.mean(axis=0)
    sq = np.einsum("ij,ij->i", A, A)[:, None]
    one = np.ones_like(sq)
    est = (np.hstack([A, sq, one]) @ np.hstack([-2.0 * A, one, sq]).T).ravel()
    # |est - q| <= bound for the sum q pdist forms (0 on the diagonal): with
    # u = eps / 2, a = fl(y - mean), R = 4 max |a|^2, gamma_n = n u / (1 - n u),
    # centering moves q by 2.04 u R, the product errs by (gamma_d + gamma_{d+2})
    # R and pdist's sum by gamma_{d+2} R, below (1.5 d + 3.1) eps R in all;
    # bound doubles (d + 4) eps R, plus a subnormal step per product in a term.
    tiny = np.finfo(np.float64).smallest_subnormal
    bound = 2.0 * (d + 4) * (np.finfo(np.float64).eps * 4.0 * sq.max() + tiny)
    # m diagonal zeros sort first and each pair counts twice: median pairs,
    # ranks (N - 1) // 2 and N // 2 of N, are ranks r and r + 2 (N even) of est
    n_pairs = m * (m - 1) // 2
    r = m + 2 * ((n_pairs - 1) // 2)
    ranks = [r, r + 2 * (n_pairs % 2 == 0)]
    part = np.partition(est, r)
    upper = part[r + 1:]
    upper[np.argmin(upper)] = np.inf
    hi = upper.min() if ranks[1] > r else part[r]
    # entries below part[r] - 2 bound are shorter than the median pairs,
    # those above hi + 2 bound longer; a NaN or infinite bound keeps all
    below = est < part[r] - 2.0 * bound
    i, j = np.divmod(np.flatnonzero(~(below | (est > hi + 2.0 * bound))), m)
    q = np.sort(_ordered_sum(np.square(Y.T[:, i] - Y.T[:, j])))
    sigma = float(np.mean(np.sqrt(q[np.subtract(ranks, np.count_nonzero(below))])))
    if sigma <= 0:
        raise ValueError("median pairwise distance is zero (identical rows)")
    return sigma


@dataclass
class NystromLayer:
    """Parameters of the feature map.

    Attributes
    ----------
    landmarks : (d, p) array, one landmark per column
    sigma : kernel bandwidth
    epsilon : diagonal shift of the landmark Gram matrix
    """

    landmarks: np.ndarray
    sigma: float
    epsilon: float = 1e-3

    def __post_init__(self):
        self.landmarks = np.asarray(self.landmarks, dtype=np.float64)
        if self.landmarks.ndim != 2 or self.landmarks.size == 0:
            raise ValueError("landmarks must be a non-empty d x p array")
        self.sigma = finite_number("sigma", self.sigma, 0, strict=True)
        self.epsilon = finite_number("epsilon", self.epsilon, 0)

    @property
    def dim(self):
        return self.landmarks.shape[0]

    @property
    def num_landmarks(self):
        return self.landmarks.shape[1]

    def with_landmarks(self, V):
        return NystromLayer(landmarks=V, sigma=self.sigma, epsilon=self.epsilon)


def init_landmarks(X, num_landmarks, seed=0):
    """Draw landmarks uniformly from the rows of X and set the bandwidth.

    Sampling is without replacement by row index; rows with duplicate values
    are fine.  The bandwidth comes from ``median_bandwidth``.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    n = X.shape[0]
    num_landmarks = whole_number("num_landmarks", num_landmarks, 1)
    if num_landmarks > n:
        raise ValueError(
            f"num_landmarks must be in [1, {n}], got {num_landmarks}"
        )
    rng = np.random.default_rng(whole_number("seed", seed, 0))
    idx = rng.choice(n, size=num_landmarks, replace=False)
    return NystromLayer(landmarks=X[idx].T.copy(), sigma=median_bandwidth(X))


@dataclass
class FeatureBatch:
    """Output of a forward pass plus everything backward needs.

    The cache belongs to the arrays seen at forward time: backward reads
    the batch X and the layer's landmarks as they are then, so neither may
    be changed in between.
    """

    phi: np.ndarray
    normalized: bool
    scale: float
    _layer: NystromLayer = field(repr=False)
    _X: np.ndarray = field(repr=False)
    _cache: tuple = field(repr=False)


def forward(layer, X, normalize=True):
    """Map a batch of rows through the layer.

    Parameters
    ----------
    layer : NystromLayer
    X : (n, d) array
    normalize : center the columns and rescale so the mean squared row norm
        is exactly 1.  Requires n >= 2.

    Returns
    -------
    FeatureBatch with phi of shape (n, p).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    if X.shape[1] != layer.dim:
        raise ValueError(
            f"X has {X.shape[1]} columns but landmarks have {layer.dim} rows"
        )
    n = X.shape[0]
    if n == 0:
        raise ValueError("batch is empty")
    if normalize and n < 2:
        raise ValueError("normalization needs at least 2 rows")
    Vr = layer.landmarks.T
    Kx = rbf_kernel(X, Vr, layer.sigma)
    Kvv = rbf_kernel(Vr, Vr, layer.sigma)
    S, ns_cache = inv_sqrt(Kvv, layer.epsilon)
    phi_raw = Kx @ S
    if normalize:
        phi_cent = phi_raw - phi_raw.mean(axis=0)
        msq = float(np.sum(phi_cent * phi_cent)) / n
        # roundoff can leave ~1e-32 of spurious variance on a degenerate batch
        raw_msq = float(np.sum(phi_raw * phi_raw)) / n
        if msq <= 1e-24 * max(raw_msq, 1e-300):
            raise ValueError(
                "normalization scale undefined: centered features are zero"
            )
        scale = 1.0 / np.sqrt(msq)
        phi = scale * phi_cent
    else:
        phi_cent = None
        msq = None
        scale = 1.0
        phi = phi_raw
    return FeatureBatch(
        phi=phi,
        normalized=normalize,
        scale=scale,
        _layer=layer,
        _X=X,
        _cache=(Kx, Kvv, S, ns_cache, phi_cent, msq),
    )


def backward(batch, d_phi):
    """Cotangent of the landmarks for a given cotangent of the features.

    Runs the exact reverse-mode sweep through normalization, centering, the
    inverse square root, and both kernel blocks.  Returns a d x p
    array matching ``layer.landmarks``.
    """
    d_phi = np.asarray(d_phi, dtype=np.float64)
    if d_phi.shape != batch.phi.shape:
        raise ValueError(
            f"cotangent shape {d_phi.shape} does not match features "
            f"{batch.phi.shape}"
        )
    layer = batch._layer
    X = batch._X
    Kx, Kvv, S, ns_cache, phi_cent, msq = batch._cache
    n = X.shape[0]
    if batch.normalized:
        s = batch.scale
        inner = float(np.sum(d_phi * phi_cent))
        d_cent = s * d_phi - (s**3 / n) * inner * phi_cent
        d_raw = d_cent - d_cent.mean(axis=0)
    else:
        d_raw = d_phi
    dKx = d_raw @ S.T
    dS = Kx.T @ d_raw
    dKvv = inv_sqrt_vjp(ns_cache, dS)
    Vr = layer.landmarks.T
    inv_sq = 1.0 / (layer.sigma * layer.sigma)
    E1 = dKx * Kx
    dVr = inv_sq * (E1.T @ X - E1.sum(axis=0)[:, None] * Vr)
    E2 = dKvv * Kvv
    dVr += inv_sq * (E2 @ Vr - E2.sum(axis=1)[:, None] * Vr)
    dVr += inv_sq * (E2.T @ Vr - E2.sum(axis=0)[:, None] * Vr)
    return dVr.T
