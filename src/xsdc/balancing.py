"""Constrained entropic matrix balancing.

Given a coupling cost A, the solver finds a symmetric nonnegative matrix M
close to a constant prior that trades off tr(M A) against a relative-entropy
penalty with weight mu, subject to

  * pinned entries M_ij = m_ij on a known set (label agreements and the
    diagonal), and
  * box constraints n_min <= row sums <= n_max (the column sums of a
    symmetric M are its row sums).

For a symmetric M, tr(M A) depends only on the symmetric part of A, so the
problem stores (A + A^T) / 2 and an asymmetric A is balanced through it.
One scaling vector u gives M = N_free * (u u^T) off the known set, with
N_free = exp(-Q_tilde), so M is symmetric by construction.  The rounds are
symmetric Sinkhorn-Knopp steps (Knight, Ruiz & Ucar 2014), projected onto
the box and damped (Lehmann, von Renesse, Sambale & Uschmajew 2021,
arXiv:2012.12562), plus a heavy-ball term (Polyak 1964): beta times the
last accepted change of log u.  The momentum is safeguarded by the dual,
which each round computes anyway: a round whose momentum step would raise
the dual takes the plain damped step instead, at the cost of one more
n x n product, so the dual never rises by the momentum.  A pinned one
meets u at its multiplier 1 / (u_i u_j) frozen at the start of the round;
a zero pin enters only N_free.  The returned M carries the pin values
exactly.  With no pinned entries and n_min = n_max the method reduces to
symmetric Sinkhorn scaling.
"""

import itertools
import math
import warnings

import numpy as np
from dataclasses import dataclass, field

from .data import finite_number, whole_number
from .errors import BalancingDivergence
from .linalg import mirror_upper, out_buffer

# balance_doubling re-raises the divergence after this many doublings of mu
MAX_MU_DOUBLINGS = 20
# divergence is declared after this many consecutive dual increases
_DUAL_INCREASE_LIMIT = 3
_DUAL_INCREASE_TOL = 1e-6
# the rounds stop at a fixed point: every row sum of M within this share of
# n_max of the projection of its row onto the box (see balance); 1e-6 * n
# (the converged flag) is too loose for the 1e-6 absolute sums gate 04 asks
# at n = 64
_STOP_TOL = 1e-9
# relaxation of the symmetric step, log u <- (1 - w) log u + w log u'.  At
# the fixed point the undamped step's Jacobian has eigenvalues in about
# [-0.97, 0.55] on the benchmark's batches, so the best fixed w,
# 2 / (2 - lo - hi), lies between 0.73 and 0.83
_OMEGA = 0.75
# heavy-ball weight: each round adds this share of the last accepted change
# of log u to the damped one, and falls back to the damped change alone when
# the sum would raise the dual; it cut the rounds of the benchmark's seed-0
# balances by 17% (unsup, b = 256) to 37% (semi, b = 512)
_BETA = 0.1


def default_mu(A, out=None):
    """Median absolute entry of A, the default entropy weight.

    Bitwise np.median(np.abs(A)), taken by one in-place selection: after a
    partition at h = size // 2 the upper middle value sits at h and the
    lower one is the maximum of the entries before it.  A NaN entry gives
    NaN, as np.median does.  Falls back to 1.0 with a warning when the
    median is zero (all-zero or mostly-zero A), since the weight must be
    positive.  out, when given, holds |A| for the selection and is left
    permuted: a C-contiguous float64 array of A's shape not sharing memory
    with A (see linalg.out_buffer).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.size == 0:
        raise ValueError("A is empty")
    x = np.abs(A, out=out_buffer(out, A.shape, A)).reshape(-1)
    h = x.size // 2
    x.partition(h)
    if np.isnan(x.max()):
        return float("nan")
    med = float(x[h] if x.size % 2 else 0.5 * (x[:h].max() + x[h]))
    if med <= 0.0:
        warnings.warn("median |A| is zero; falling back to mu = 1.0")
        return 1.0
    return med


def _pin_list(known, n):
    """Validate (i, j, m) triples into the row-major pin list (rows, cols, values).

    A pin is symmetric: each triple pins its entry (i, j) and its mirror
    (j, i).  Both carry the key 2 (i n + j) + (m == 1), the value in the low
    bit.  One sort of the keys puts duplicates next to each other and shows
    a conflict as a change of that bit within one entry, so (i, j, a) meets
    (j, i, b) as (i, j, a) meets (i, j, b).  The first offending triple in
    input order is reported; for that triple the checks run in the order
    listed below.
    """
    known = np.asarray(known, dtype=np.float64).reshape(-1, 3)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the round trip below
        i, j = known[:, :2].astype(np.int64).T
    m = known[:, 2]
    whole = (i == known[:, 0]) & (j == known[:, 1])
    in_range = whole & (0 <= i) & (i < n) & (0 <= j) & (j < n)
    entry = np.where(in_range, i * n + j, -1)
    mirror = np.where(in_range, j * n + i, -1)
    tag = m == 1.0
    keys = np.sort(np.concatenate([2 * entry + tag, 2 * mirror + tag]))
    keys = keys[np.diff(keys, prepend=keys[:1] - 1) > 0]  # the distinct keys
    checks = [
        (~whole, "known entry ({i}, {j}) needs finite integer indices"),
        (~in_range, "known entry ({i}, {j}) out of range for n={n}"),
        ((m != 0.0) & (m != 1.0), "known value must be 0 or 1, got {m} at ({i}, {j})"),
        ((i == j) & (m == 0.0), "diagonal entry ({i}, {i}) pinned to 0 is infeasible"),
    ]
    if any(bad.any() for bad, _ in checks) or np.any(keys[1:] >> 1 == keys[:-1] >> 1):
        # a triple conflicts when the first triple at its unordered pair
        # pins another value
        pair = np.minimum(entry, mirror)
        _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
        checks.append((m != m[first[inverse]], "conflicting known values at ({i}, {j})"))
        failed = np.array([bad for bad, _ in checks])
        t = int(np.argmax(failed.any(axis=0)))
        message = checks[int(np.argmax(failed[:, t]))][1]
        a, b = (int(x) if whole[t] else float(x) for x in known[t, :2])
        raise ValueError(message.format(i=a, j=b, m=float(m[t]), n=n))
    rows, cols = np.divmod(keys >> 1, n)
    pinned = np.zeros(n, dtype=bool)
    pinned[rows[rows == cols]] = True
    if m.size and not pinned.all():
        d = int(np.argmin(pinned))
        raise ValueError(f"diagonal entry ({d}, {d}) must be pinned to 1")
    return rows, cols, (keys & 1).astype(np.float64)


@dataclass
class BalancingProblem:
    """One balancing instance.

    Attributes
    ----------
    A : (n, n) coupling cost; stored C-ordered as its symmetric part
        (A + A^T) / 2, which is A itself, bitwise, when A is symmetric
    known : (i, j, m) pinned entries with m in {0, 1}, as a list of triples
        or an (m, 3) float or int array; the indices must be finite
        integers.  Each triple pins both (i, j) and its mirror (j, i), so
        one orientation of a pair is enough; the two orientations, and
        duplicates, must not pin different values.  Must contain the full
        diagonal (i, i, 1).  An empty list is the pure-transport mode used
        by the Sinkhorn tests.
        _pin_list stores them as pins = (rows, cols, values), each distinct
        pinned entry once in row-major order; no (n, n) array is kept.
    n_min, n_max : bounds on every row sum, finite with 0 <= n_min <= n_max
    mu : finite positive entropy weight; None means default_mu(A)
    iters : cap on the rounds, a whole number of at least 1; balance stops
        earlier at a fixed point (see balance)
    num_clusters : optional cluster count, a whole number of at least 1;
        the prior is the constant 1/k when it is given and n_sigma/n
        otherwise (see prior)
    """

    A: np.ndarray
    known: list
    n_min: float
    n_max: float
    mu: float = None
    iters: int = 10
    num_clusters: int = None
    pins: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=np.float64)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A has non-finite entries")
        # symmetry checked a strip of 64 rows at a time: the strip's
        # transpose is copied into one C-ordered scratch and compared with
        # the columns below it, so no comparison reads A down its columns
        A, n = self.A, self.A.shape[0]
        panel = np.empty((n, min(n, 64)))
        for s in range(0, n, 64):
            e = min(s + 64, n)
            strip = panel[: n - s, : e - s]
            np.copyto(strip, A[s:e, s:].T)
            if not np.array_equal(A[s:, s:e], strip):
                self.A = 0.5 * (A + A.T)
                break
        self.pins = _pin_list(self.known, n)
        self.n_min = finite_number("n_min", self.n_min, 0)
        self.n_max = finite_number("n_max", self.n_max, 0)
        if self.n_min > self.n_max:
            raise ValueError(
                f"need 0 <= n_min <= n_max, got {self.n_min}, {self.n_max}"
            )
        if self.mu is not None:
            self.mu = finite_number("mu", self.mu, 0, strict=True)
        self.iters = whole_number("iters", self.iters, 1)
        if self.num_clusters is not None:
            self.num_clusters = whole_number("num_clusters", self.num_clusters, 1)

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
        """The constant prior as a scalar (no (n, n) fill)."""
        if self.num_clusters is not None:
            return 1.0 / self.num_clusters
        return self.n_sigma / self.size


@dataclass
class EquivalenceMatrix:
    """Balanced relaxation of a label-agreement matrix.

    M is exactly symmetric: M_ij = u_i N_free_ij u_j off the known set and
    the pin value on it, with u the one scaling vector.  balance writes the
    pin values into M as they are, so known_violation, the largest
    |M_ij - m_ij| over the pins, is 0.0 by construction; balance sets it
    there rather than reading the pins back.
    """

    M: np.ndarray
    u: np.ndarray
    converged: bool
    marginal_violation: float
    known_violation: float
    dual_trajectory: list
    mu: float
    rounds: int  # rounds run, at most the problem's iters


def _marginal_violation(M, n_min, n_max):
    """Largest distance of a row sum of M from [n_min, n_max].  M is
    symmetric, so its column sums are its row sums and are not taken."""
    rows = M.sum(axis=1)
    low = float(np.max(np.maximum(n_min - rows, 0.0), initial=0.0))
    return max(low, float(np.max(np.maximum(rows - n_max, 0.0), initial=0.0)))


def _dual(u, Nu, log_u, excess, n_delta, work):
    """D(u) of balance, given Nu = N_free u; work is scratch."""
    dual = float(u.dot(Nu))
    dual -= 2.0 * float(excess.dot(log_u))
    if n_delta > 0:
        # a non-finite log u already makes the term above non-finite
        dual += 2.0 * n_delta * float(np.abs(log_u, out=work).sum())
    return dual


def balance(problem, mu=None, out=None):
    """Run the symmetric balancing rounds.

    The kernel is the free kernel N_free, exp(-Q_tilde) with the pinned
    entries zeroed, plus the pinned multipliers 1 / (u_i u_j) of the ones
    pins, frozen at the u that starts the round.  With c_i the number of
    ones pins in row i (pins are symmetric, so also in column i), one round is

        row = N_free u + c / u
        s = w (log(box(row) / row) - log u),    w = 3/4,
        d <- s + beta d,                        beta = 1/10,
        log u <- log u + d,

    box clipping to [n_min, n_max] and d the last accepted change of log u
    (0 before the first round), then one product N_free u, which the next
    round's row and the dual reuse: one n x n product per round, no n x n
    matrix built and no n x n log taken.  A round allocates nothing: it
    works in n-vectors kept for the whole call.  The dual at the new u is

        D(u) = u^T N_free u - 2 (n_sigma - c)^T log u + 2 n_delta ||log u||_1,

    the dual of the symmetric problem.  The momentum term beta d is
    safeguarded by it: when D at the candidate is above the last recorded
    dual, or not finite, the round takes the damped change d = s alone and
    pays a second product N_free u.  The checks below then apply to the
    change taken, so the recorded duals never rise by the momentum.

    The returned M, formed in the buffer of N_free, is u_i N_free_ij u_j
    off the pins and the pin values on them, each entry below the diagonal
    a copy of its mirror, so M == M^T bitwise.
    That buffer is out when given, so the returned M is out, and a later
    call into the same out overwrites it.

    The rounds stop at a fixed point of the undamped step: at the start of
    each round after the first, once every row sum u * row of M is within
    1e-9 * n_max of box(row).  A row with u_i != 1 then has its sum at an
    edge of the box.  problem.iters caps the rounds.  With n_min = n_max
    this asks every row sum within 1e-9 * n_max of n_max.  A round with
    non-finite sums never stops; it raises as below.

    Parameters
    ----------
    problem : BalancingProblem
    mu : optional override of the entropy weight, finite and positive (used
        by the doubling retry loop)
    out : optional C-contiguous float64 (n, n) array not sharing memory with
        problem.A, which becomes M (see linalg.out_buffer); a new array when
        None.  default_mu takes its scratch from it before N_free fills it.

    Returns
    -------
    EquivalenceMatrix

    Raises
    ------
    BalancingDivergence on a non-finite kernel or scaling, or a dual
    objective that is non-finite or increases by more than 1e-6 for 3
    consecutive rounds.
    """
    n = problem.size
    N_free = out_buffer(out, (n, n), problem.A)
    if mu is None:
        mu = problem.mu if problem.mu is not None else default_mu(problem.A, out=N_free)
    mu = finite_number("mu", mu, 0, strict=True)
    n_sigma, n_delta = problem.n_sigma, problem.n_delta
    box_lo, box_hi = n_sigma - n_delta, n_sigma + n_delta
    tol = _STOP_TOL * problem.n_max

    pi, pj, m = problem.pins
    c = np.bincount(pi[m == 1.0], minlength=n).astype(np.float64)  # ones pins per row
    flat = pi * n + pj  # the pins in the flattened kernel, a quicker index

    with np.errstate(over="ignore", under="ignore"):
        # N_free = exp(-Q_tilde) = exp(A / -mu + log prior), in one C-ordered
        # buffer, so that reshape(-1) below is a view whatever A's layout
        np.divide(problem.A, -mu, out=N_free)
        N_free += np.log(problem.prior())
        np.exp(N_free, out=N_free)
    # entries are >= 0 or NaN, and max propagates NaN
    if not math.isfinite(N_free.max(initial=0.0)):
        raise BalancingDivergence(
            f"exp overflow building the balancing kernel at mu={mu:.3e}",
            round_index=0,
        )
    N_free.reshape(-1)[flat] = 0.0

    u = np.ones(n)
    log_u, log_next = np.zeros(n), np.empty(n)
    step, last = np.empty(n), np.zeros(n)
    row, target, work = np.empty(n), np.empty(n), np.empty(n)
    excess = n_sigma - c
    trajectory = []
    increases = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Nu = N_free @ u
        for t in range(problem.iters):
            np.divide(c, u, out=row)
            row += Nu
            # clip without its wrapper; NaN propagates as with clip
            np.minimum(np.maximum(row, box_lo, out=target), box_hi, out=target)
            if t:
                np.multiply(u, row, out=work)
                work -= target
                # NaN sums fail the comparison and do not stop
                if np.abs(work, out=work).max() <= tol:
                    break
            # the damped change w (log(box(row) / row) - log u), then the
            # momentum candidate, which adds beta times the last accepted one
            np.log(np.divide(target, row, out=step), out=step)
            step -= log_u
            step *= _OMEGA
            last *= _BETA
            last += step
            np.add(log_u, last, out=log_next)
            np.exp(log_next, out=u)
            np.dot(N_free, u, out=Nu)  # also the next round's row product
            dual = _dual(u, Nu, log_next, excess, n_delta, work)
            if trajectory and not dual <= trajectory[-1]:
                # the momentum raised the dual (or left the floats): take
                # the damped change alone, which costs one more product
                np.add(log_u, step, out=log_next)
                np.copyto(last, step)
                np.exp(log_next, out=u)
                np.dot(N_free, u, out=Nu)
                dual = _dual(u, Nu, log_next, excess, n_delta, work)
            log_u, log_next = log_next, log_u
            if not math.isfinite(u.max()):  # max propagates NaN
                raise BalancingDivergence(
                    f"non-finite scalings at round {t} (mu={mu:.3e})",
                    round_index=t,
                )
            if not math.isfinite(dual):
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

    # M = (u_i N_ij) u_j, finite wherever M is (u_i u_j alone can overflow
    # where N_ij is 0), in two contiguous passes over the buffer; its upper
    # triangle is then mirrored below the diagonal, so M == M^T bitwise
    with np.errstate(over="ignore", invalid="ignore"):
        N_free *= u[:, None]
        N_free *= u
    mirror_upper(N_free)
    M = N_free
    M.reshape(-1)[flat] = m
    violation = _marginal_violation(M, problem.n_min, problem.n_max)
    return EquivalenceMatrix(
        M=M,
        u=u,
        converged=violation <= 1e-6 * n,
        marginal_violation=violation,
        known_violation=0.0,  # the pin values were just written as they are
        dual_trajectory=trajectory,
        mu=mu,
        rounds=len(trajectory),
    )


def balance_doubling(problem, out=None):
    """Balance with the entropy weight doubled on each divergence.

    Returns the first successful EquivalenceMatrix (its mu field records the
    weight actually used).  After MAX_MU_DOUBLINGS doublings the last
    divergence is re-raised.  out is as for balance: every attempt, and
    default_mu before them, works in it, and the returned M is out.
    """
    mu = problem.mu if problem.mu is not None else default_mu(problem.A, out=out)
    attempt = 0
    while True:
        try:
            return balance(problem, mu=mu, out=out)
        except BalancingDivergence:
            attempt += 1
            if attempt > MAX_MU_DOUBLINGS:
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
