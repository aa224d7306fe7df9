"""Constrained entropic matrix balancing.

Given a coupling cost A, the solver finds a nonnegative matrix M close to a
prior M0 that trades off tr(M A) against a relative-entropy penalty with
weight mu, subject to

  * pinned entries M_ij = m_ij on a known set (label agreements and the
    diagonal), and
  * box constraints n_min <= row and column sums <= n_max.

The alternating updates scale rows and columns like Sinkhorn-Knopp, with the
known entries re-pinned every round and the scalings projected onto the box.
With no pinned entries and n_min = n_max the method reduces to classical
Sinkhorn scaling.
"""

import itertools
import warnings

import numpy as np
from dataclasses import dataclass, field

from .errors import BalancingDivergence

# divergence is declared after this many consecutive dual increases
_DUAL_INCREASE_LIMIT = 3
_DUAL_INCREASE_TOL = 1e-6


def default_mu(A):
    """Median absolute entry of A, the default entropy weight.

    Falls back to 1.0 with a warning when the median is zero (all-zero or
    mostly-zero A), since the weight must be positive.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        raise ValueError("A is empty")
    med = float(np.median(np.abs(A)))
    if med <= 0.0:
        warnings.warn("median |A| is zero; falling back to mu = 1.0")
        return 1.0
    return med


def project_box(x, n_sigma, n_delta):
    """Clamp x elementwise to the interval [n_sigma - n_delta, n_sigma + n_delta]."""
    if n_delta < 0:
        raise ValueError(f"n_delta must be nonnegative, got {n_delta}")
    return np.clip(x, n_sigma - n_delta, n_sigma + n_delta)


def _pin_arrays(known, n):
    """Validate (i, j, m) triples into an n x n pinned mask and pin values.

    The first offending triple in input order is reported; for that triple
    the checks run in the order listed below.
    """
    known = np.asarray(known, dtype=np.float64).reshape(-1, 3)
    i, j = known[:, :2].astype(np.int64).T
    m = known[:, 2]
    in_range = (0 <= i) & (i < n) & (0 <= j) & (j < n)
    # a triple conflicts when the first triple at its entry pins another value
    _, first, inverse = np.unique(
        np.where(in_range, i * n + j, -1), return_index=True, return_inverse=True
    )
    checks = (
        (~in_range, "known entry ({i}, {j}) out of range for n={n}"),
        ((m != 0.0) & (m != 1.0), "known value must be 0 or 1, got {m} at ({i}, {j})"),
        ((i == j) & (m == 0.0), "diagonal entry ({i}, {i}) pinned to 0 is infeasible"),
        (m != m[first[inverse]], "conflicting known values at ({i}, {j})"),
    )
    failed = np.array([bad for bad, _ in checks])
    if failed.any():
        t = int(np.argmax(failed.any(axis=0)))
        message = checks[int(np.argmax(failed[:, t]))][1]
        raise ValueError(message.format(i=int(i[t]), j=int(j[t]), m=float(m[t]), n=n))
    pinned = np.zeros((n, n), dtype=bool)
    pinned[i, j] = True
    values = np.zeros((n, n))
    values[i, j] = m
    # the first triple at an open entry is that entry's first appearance
    open_entry = (pinned & ~(pinned.T & (values.T == values)))[i, j]
    if open_entry.any():
        t = int(np.argmax(open_entry))
        raise ValueError(
            f"known set not closed under transposition at ({i[t]}, {j[t]})"
        )
    missing = np.flatnonzero(~np.diagonal(pinned))
    if m.size and missing.size:
        raise ValueError(
            f"diagonal entry ({missing[0]}, {missing[0]}) must be pinned to 1"
        )
    return pinned, values


@dataclass
class BalancingProblem:
    """One balancing instance.

    Attributes
    ----------
    A : (n, n) coupling cost
    known : (i, j, m) pinned entries with m in {0, 1}, as a list of triples
        or an (m, 3) array; must contain the full diagonal (i, i, 1) and be
        closed under transposition.  Duplicates are allowed when they agree.
        An empty list is the pure-transport mode used by the Sinkhorn tests.
        Validation stores the pins as two (n, n) arrays: the boolean mask
        pinned and the 0/1 pin_values (zero where nothing is pinned).
    n_min, n_max : bounds on every row and column sum
    mu : entropy weight; None means default_mu(A)
    iters : alternating rounds
    M0 : prior matrix; None means the constant 1/k when num_clusters is
        given, and the constant n_sigma/n otherwise
    num_clusters : optional cluster count, used only for the default prior
    """

    A: np.ndarray
    known: list
    n_min: float
    n_max: float
    mu: float = None
    iters: int = 10
    M0: np.ndarray = None
    num_clusters: int = None
    pinned: np.ndarray = field(init=False, repr=False)
    pin_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A has non-finite entries")
        n = self.A.shape[0]
        self.pinned, self.pin_values = _pin_arrays(self.known, n)
        self.n_min = float(self.n_min)
        self.n_max = float(self.n_max)
        if not 0 <= self.n_min <= self.n_max:
            raise ValueError(
                f"need 0 <= n_min <= n_max, got {self.n_min}, {self.n_max}"
            )
        if self.mu is not None and not float(self.mu) > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if int(self.iters) < 1:
            raise ValueError(f"iters must be at least 1, got {self.iters}")
        if self.num_clusters is not None and int(self.num_clusters) < 1:
            raise ValueError(f"num_clusters must be positive, got {self.num_clusters}")
        if self.M0 is not None:
            self.M0 = np.asarray(self.M0, dtype=np.float64)
            if self.M0.shape != (n, n):
                raise ValueError(f"M0 must be {n} x {n}, got {self.M0.shape}")
            if not np.all(self.M0 > 0):
                raise ValueError("M0 must be entrywise positive")

    @property
    def size(self):
        return self.A.shape[0]

    @property
    def n_sigma(self):
        return 0.5 * (self.n_max + self.n_min)

    @property
    def n_delta(self):
        return 0.5 * (self.n_max - self.n_min)

    def prior(self):
        if self.M0 is not None:
            return self.M0
        n = self.size
        if self.num_clusters is not None:
            fill = 1.0 / self.num_clusters
        else:
            fill = self.n_sigma / n
        return np.full((n, n), fill)


@dataclass
class EquivalenceMatrix:
    """Balanced relaxation of a label-agreement matrix.

    M is not symmetrized; consumers that need symmetry take (M + M^T) / 2.
    """

    M: np.ndarray
    u: np.ndarray
    v: np.ndarray
    converged: bool
    marginal_violation: float
    known_violation: float
    dual_trajectory: list
    mu: float
    rounds: int


def _marginal_violation(M, n_min, n_max):
    rows = M.sum(axis=1)
    cols = M.sum(axis=0)
    dev = 0.0
    for s in (rows, cols):
        dev = max(dev, float(np.max(np.maximum(n_min - s, 0.0), initial=0.0)))
        dev = max(dev, float(np.max(np.maximum(s - n_max, 0.0), initial=0.0)))
    return dev


def balance(problem, mu=None):
    """Run the alternating balancing rounds.

    Parameters
    ----------
    problem : BalancingProblem
    mu : optional override of the entropy weight (used by the doubling
        retry loop)

    Returns
    -------
    EquivalenceMatrix

    Raises
    ------
    BalancingDivergence on non-finite scalings or a dual objective that
    increases by more than 1e-6 for 3 consecutive rounds.
    """
    n = problem.size
    if mu is None:
        mu = problem.mu if problem.mu is not None else default_mu(problem.A)
    mu = float(mu)
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    n_sigma, n_delta = problem.n_sigma, problem.n_delta

    mask, m_known = problem.pinned, problem.pin_values
    ones_mask = mask & (m_known == 1.0)

    with np.errstate(over="ignore", under="ignore"):
        Q_tilde = problem.A / mu - np.log(problem.prior())
        N_off = np.exp(-Q_tilde)
    if not np.all(np.isfinite(N_off)):
        raise BalancingDivergence(
            f"exp overflow building the balancing kernel at mu={mu:.3e}",
            round_index=0,
        )

    u = np.ones(n)
    v = np.ones(n)
    trajectory = []
    increases = 0
    N = N_off
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(int(problem.iters)):
            N = np.where(mask, m_known / (u[:, None] * v[None, :]), N_off)
            row = N @ v
            u = project_box(row, n_sigma, n_delta) / row
            col = N.T @ u
            v = project_box(col, n_sigma, n_delta) / col
            if not (
                np.all(np.isfinite(N))
                and np.all(np.isfinite(u))
                and np.all(np.isfinite(v))
            ):
                raise BalancingDivergence(
                    f"non-finite scalings at round {t} (mu={mu:.3e})",
                    round_index=t,
                )
            dual = _dual_objective(
                N, u, v, Q_tilde, ones_mask, n_sigma, n_delta
            )
            if not np.isfinite(dual):
                raise BalancingDivergence(
                    f"non-finite dual objective at round {t} (mu={mu:.3e})",
                    round_index=t,
                )
            if trajectory and dual > trajectory[-1] + _DUAL_INCREASE_TOL:
                increases += 1
                if increases >= _DUAL_INCREASE_LIMIT:
                    raise BalancingDivergence(
                        f"dual objective increased {increases} rounds in a row "
                        f"(mu={mu:.3e})",
                        round_index=t,
                    )
            else:
                increases = 0
            trajectory.append(dual)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # refresh the pinned multipliers against the final scalings so the
        # known entries of M are exact even when the rounds have not converged
        N = np.where(mask, m_known / (u[:, None] * v[None, :]), N_off)
        M = u[:, None] * N * v[None, :]
    violation = _marginal_violation(M, problem.n_min, problem.n_max)
    known_violation = float(np.max(np.abs(M[mask] - m_known[mask]), initial=0.0))
    return EquivalenceMatrix(
        M=M,
        u=u,
        v=v,
        converged=violation <= 1e-6 * n,
        marginal_violation=violation,
        known_violation=known_violation,
        dual_trajectory=trajectory,
        mu=mu,
        rounds=int(problem.iters),
    )


def _dual_objective(N, u, v, Q_tilde, ones_mask, n_sigma, n_delta):
    """Dual value at the current iterate.

    Written in the scaling variables: a = -log u, c = -log v, and the pinned
    multipliers recovered from the current kernel N on the m=1 entries.
    Entries pinned to 0 contribute nothing.
    """
    log_u = np.log(u)
    log_v = np.log(v)
    value = float(u @ (N @ v))
    value += n_delta * (np.abs(log_u).sum() + np.abs(log_v).sum())
    value -= n_sigma * (log_u.sum() + log_v.sum())
    if np.any(ones_mask):
        value += float(np.sum((-Q_tilde - np.log(N))[ones_mask]))
    return value


def balance_doubling(problem, max_doublings=20):
    """Balance with the entropy weight doubled on each divergence.

    Returns the first successful EquivalenceMatrix (its mu field records the
    weight actually used).  After max_doublings failed attempts the last
    divergence is re-raised.
    """
    mu = problem.mu if problem.mu is not None else default_mu(problem.A)
    attempt = 0
    while True:
        try:
            return balance(problem, mu=mu)
        except BalancingDivergence:
            attempt += 1
            if attempt > max_doublings:
                raise
            mu *= 2.0


def brute_force_assign(A, k, constraints=None, n_min=None, n_max=None):
    """Exact minimizer of tr(Y Y^T A) over hard assignments by enumeration.

    Assignments are scanned in lexicographic label order; the first one
    attaining the minimum is returned, so ties resolve deterministically.

    Parameters
    ----------
    A : (n, n) cost matrix
    k : number of clusters
    constraints : optional (i, j, m) triples; m = 1 forces equal labels,
        m = 0 forces different labels
    n_min, n_max : optional bounds on every cluster size

    Returns
    -------
    (labels, objective) for the best feasible assignment.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got {A.shape}")
    n = A.shape[0]
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if float(k) ** n > 1e7:
        raise ValueError(
            f"refusing to enumerate {k}^{n} assignments (limit 1e7)"
        )
    pairs = []
    for item in constraints or []:
        i, j, m = int(item[0]), int(item[1]), float(item[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"constraint ({i}, {j}) out of range")
        if i == j and m == 0.0:
            raise ValueError(f"constraint ({i}, {i}, 0) is infeasible")
        if i != j:
            pairs.append((i, j, m))
    best_labels = None
    best_obj = np.inf
    for assign in itertools.product(range(k), repeat=n):
        ok = True
        for i, j, m in pairs:
            same = assign[i] == assign[j]
            if same != (m == 1.0):
                ok = False
                break
        if not ok:
            continue
        if n_min is not None or n_max is not None:
            counts = np.bincount(assign, minlength=k)
            if n_min is not None and counts.min() < n_min:
                continue
            if n_max is not None and counts.max() > n_max:
                continue
        labels = np.asarray(assign)
        same = labels[:, None] == labels[None, :]
        obj = float(A[same].sum())
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_labels = labels
    if best_labels is None:
        raise ValueError("no feasible assignment under the given constraints")
    return best_labels, best_obj


def scale_to_marginals(Q, row_marg, col_marg, tol=1e-13, max_iters=100000):
    """Iterate row/column scaling until Q has the requested marginals."""
    Q = np.array(Q, dtype=np.float64)
    row_marg = np.asarray(row_marg, dtype=np.float64)
    col_marg = np.asarray(col_marg, dtype=np.float64)
    for _ in range(max_iters):
        Q *= (row_marg / Q.sum(axis=1))[:, None]
        Q *= col_marg / Q.sum(axis=0)
        dev = max(
            float(np.max(np.abs(Q.sum(axis=1) - row_marg))),
            float(np.max(np.abs(Q.sum(axis=0) - col_marg))),
        )
        if dev <= tol:
            return Q
    raise ValueError(f"scaling did not reach the marginals within {max_iters} iterations")


def sinkhorn_jacobian(Q, alpha_marg=None, beta_marg=None, iterate=True):
    """Jacobian of one vectorized Sinkhorn round at a scaling fixed point.

    Assembles the Kronecker-structured Jacobian of the row-then-column
    normalization map (column-stacking convention).  Every already-balanced
    matrix is a fixed point, so the Jacobian is exactly the identity along
    that set; the returned spectral radius is the contraction factor
    transverse to it, i.e. the largest eigenvalue modulus after discarding
    the structural unit eigenvalues.  That factor is what governs
    convergence of the iteration.

    Parameters
    ----------
    Q : (n, n) entrywise positive matrix, n <= 12
    alpha_marg, beta_marg : target row / column sums (default all-ones)
    iterate : scale Q to the fixed point first when it is not balanced yet

    Returns
    -------
    (jacobian, spectral_radius)
    """
    Q = np.array(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got {Q.shape}")
    n = Q.shape[0]
    if n > 12:
        raise ValueError(f"dense n^2 x n^2 Jacobian limited to n <= 12, got {n}")
    if not np.all(Q > 0):
        raise ValueError("Q must be entrywise positive")
    alpha = np.ones(n) if alpha_marg is None else np.asarray(alpha_marg, float)
    beta = np.ones(n) if beta_marg is None else np.asarray(beta_marg, float)
    if np.any(alpha <= 0) or np.any(beta <= 0):
        raise ValueError("marginals must be positive")
    if abs(alpha.sum() - beta.sum()) > 1e-8 * alpha.sum():
        raise ValueError("marginals must have equal total mass")
    if iterate:
        Q = scale_to_marginals(Q, alpha, beta)
    rows = Q.sum(axis=1)
    cols = Q.sum(axis=0)
    I = np.eye(n)
    ones = np.ones((n, 1))
    J = np.zeros((n * n, n * n))
    for i in range(n):
        u_i = (Q[i, :] / rows[i]).reshape(n, 1)
        for j in range(n):
            v_j = (Q[:, j] / cols[j]).reshape(n, 1)
            e_j = I[:, [j]]
            e_i = I[:, [i]]
            left = e_j @ e_j.T - ones @ u_i.T @ e_j @ e_j.T
            right = e_i @ e_i.T - e_i @ e_i.T @ ones @ v_j.T
            J += np.kron(left, right)
    eigs = np.linalg.eigvals(J)
    transverse = eigs[np.abs(eigs - 1.0) > 1e-8]
    radius = float(np.max(np.abs(transverse))) if transverse.size else 0.0
    return J, radius
