"""The symmetric balancing loop against the dense two-vector loop it replaced.

`oracle_balance` and `oracle_dual_objective` are frozen copies of an earlier
`balance`, which scaled rows and columns with two vectors, rebuilt the n x n
kernel with the pinned multipliers every round and took the log of the whole
kernel for the dual.  Its set-up is frozen too: the default prior as an
n x n fill and `default_mu` as a plain median, so the scalar prior and the
in-place median are checked as well.  The oracle takes its pin mask and
values from `oracle_arrays` in `test_pins.py`, the frozen dict code, not from
the pin list under test.

Both loops minimize the same strictly convex problem.  `problem.A` is the
symmetric part of the cost, so the optimum is unique and symmetric, and the
loops share it but not their paths to it.  The oracle is therefore the
oracle of the optimum, not of each round: when `balance` stops before its
cap, the oracle runs to its own fixed point and the two M must agree within
1e-8 * max |M|.  Where the optimum puts entries near zero, the two-vector
loop can still be moving after ORACLE_ROUNDS rounds;
there `balance` must instead reach a primal objective no higher than the
oracle's.  Three fuzz problems take that way: two with a box, whose primal
is up to 10.9 lower, and one with n_min = n_max, where the oracle's gap to
`balance` shrinks as 1 / rounds (5e-6 of max |M| after 100,000 rounds).
When `balance` raises, the oracle must raise too.
"""

import numpy as np
import pytest

from xsdc.balancing import (
    _DUAL_INCREASE_LIMIT,
    _DUAL_INCREASE_TOL,
    _STOP_TOL,
    BalancingProblem,
    _marginal_violation,
    balance,
    balance_doubling,
    project_box,
)
from xsdc.errors import BalancingDivergence
from xsdc.linalg import ridge_kernel

from test_pins import oracle_arrays

# M of a stop before the cap against the oracle's settled fixed point,
# relative to max |M|; the largest such gap on the fuzz is 2.3e-9
M_RTOL = 1e-8
# the oracle's fixed point: no log scaling moves more than ORACLE_STEP in a
# round, within ORACLE_ROUNDS rounds
ORACLE_STEP = 1e-13
ORACLE_ROUNDS = 3000


def oracle_dual_objective(N, u, v, Q_tilde, ones_mask, n_sigma, n_delta):
    log_u = np.log(u)
    log_v = np.log(v)
    value = float(u @ (N @ v))
    value += n_delta * (np.abs(log_u).sum() + np.abs(log_v).sum())
    value -= n_sigma * (log_u.sum() + log_v.sum())
    if np.any(ones_mask):
        value += float(np.sum((-Q_tilde - np.log(N))[ones_mask]))
    return value


def oracle_default_mu(A):
    med = float(np.median(np.abs(A)))
    return med if med > 0.0 else 1.0


def oracle_mu(problem, mu=None):
    if mu is None:
        mu = problem.mu if problem.mu is not None else oracle_default_mu(problem.A)
    return float(mu)


def oracle_prior(problem):
    n = problem.size
    if problem.num_clusters is not None:
        return np.full((n, n), 1.0 / problem.num_clusters)
    return np.full((n, n), problem.n_sigma / n)


def oracle_balance(problem, mu=None):
    """The frozen two-vector rounds, run to the oracle's fixed point: the
    first round that moves no log scaling by more than ORACLE_STEP, or
    ORACLE_ROUNDS rounds."""
    n = problem.size
    mu = oracle_mu(problem, mu)
    n_sigma, n_delta = problem.n_sigma, problem.n_delta
    mask, m_known = oracle_arrays(problem.known, n)
    ones_mask = mask & (m_known == 1.0)
    with np.errstate(over="ignore", under="ignore"):
        Q_tilde = problem.A / mu - np.log(oracle_prior(problem))
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(ORACLE_ROUNDS):
            u_old, v_old = u, v
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
            dual = oracle_dual_objective(
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
            step = max(
                np.abs(np.log(u / u_old)).max(), np.abs(np.log(v / v_old)).max()
            )
            if step <= ORACLE_STEP:
                break
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        N = np.where(mask, m_known / (u[:, None] * v[None, :]), N_off)
        M = u[:, None] * N * v[None, :]
    violation = _marginal_violation(M, problem.n_min, problem.n_max)
    return dict(
        M=M, u=u, v=v, converged=violation <= 1e-6 * n,
        dual_trajectory=trajectory, mu=mu, rounds=len(trajectory),
    )


def oracle_primal(problem, M, mu):
    """sum M (log(M / N) - 1) over the free entries, N the oracle's kernel;
    the pinned entries add a constant."""
    mask, _ = oracle_arrays(problem.known, problem.size)
    Q_tilde = problem.A / mu - np.log(oracle_prior(problem))
    free = ~mask & (M > 0.0)
    x = M[free]
    return float(np.sum(x * (np.log(x) + Q_tilde[free] - 1.0)))


def _outcome(fn, problem, **kwargs):
    try:
        return fn(problem, **kwargs), None
    except BalancingDivergence as exc:
        return None, (exc.round_index, str(exc))


def assert_matches_oracle(problem, mu=None):
    """Check one balance call against the oracle; return (result, error).

    A raising balance must meet a raising oracle.  A returning one gives a
    symmetric M with its pins exact, and, if it stopped before the cap, the
    oracle's fixed point: the same M, or, where the oracle has not settled
    within ORACLE_ROUNDS, a primal no higher.
    """
    result, error = _outcome(balance, problem, mu=mu)
    if error is not None:
        assert _outcome(oracle_balance, problem, mu=mu)[1] is not None
        return None, error
    assert 1 <= result.rounds == len(result.dual_trajectory) <= problem.iters
    assert result.mu == oracle_mu(problem, mu)
    assert np.array_equal(result.M, result.M.T)
    pinned, pin_values = oracle_arrays(problem.known, problem.size)
    assert np.array_equal(result.M[pinned], pin_values[pinned])
    if result.rounds < problem.iters:
        # a stop before the cap is a fixed point, so its sums are in the box
        tau = _STOP_TOL * problem.n_max
        assert result.marginal_violation <= tau + 1e-12 * problem.n_max
        expected = oracle_balance(problem, mu=mu)
        gap = np.max(np.abs(result.M - expected["M"]))
        if gap > M_RTOL * np.max(np.abs(expected["M"])):
            assert expected["rounds"] == ORACLE_ROUNDS
            assert oracle_primal(problem, result.M, result.mu) <= oracle_primal(
                problem, expected["M"], result.mu
            )
    return result, None


def _diagonal(n):
    return [(i, i, 1) for i in range(n)]


def _agreement_pins(labels):
    labels = np.asarray(labels)
    i, j = np.nonzero((labels[:, None] >= 0) & (labels[None, :] >= 0))
    m = (labels[i] == labels[j]).astype(float)
    return _diagonal(labels.size) + list(zip(i.tolist(), j.tolist(), m.tolist()))


def _blob_cost(rng, n, k, p=4, lam=0.1):
    labels = rng.integers(0, k, size=n)
    phi = rng.normal(size=(n, p)) + 3.0 * np.eye(k, p)[labels]
    return ridge_kernel(phi, lam), labels


def _named_problems():
    rng = np.random.default_rng(20)
    n, k = 24, 3
    A, labels = _blob_cost(rng, n, k)
    partial = np.where(rng.random(n) < 0.4, labels, -1)
    must_not_link = [
        (a, b, 0) for a in range(n) for b in range(n) if labels[a] != labels[b]
    ]
    return {
        "diagonal_only": BalancingProblem(A, _diagonal(n), 6.0, 10.0, iters=300),
        "labeled_block": BalancingProblem(
            A, _agreement_pins(partial), 6.0, 10.0, iters=300, num_clusters=k
        ),
        "many_must_not_link": BalancingProblem(
            A, _diagonal(n) + must_not_link, 8.0, 8.0, iters=300, num_clusters=k
        ),
        "pure_transport": BalancingProblem(
            rng.uniform(-1.0, 1.0, size=(n, n)), [], 4.0, 4.0, iters=300
        ),
        "n_min_zero": BalancingProblem(A, _agreement_pins(partial), 0.0, 12.0, iters=300),
    }


@pytest.mark.parametrize("name", sorted(_named_problems()))
def test_named_problem_matches_oracle(name):
    problem = _named_problems()[name]
    for mu in (None, 0.05, 0.5, 5.0):
        result, error = assert_matches_oracle(problem, mu=mu)
        assert error is None
        assert result.rounds < problem.iters


def _fuzz_problem(rng):
    n = int(rng.integers(3, 30))
    k = int(rng.integers(2, 5))
    A, labels = _blob_cost(rng, n, k, lam=float(rng.choice([0.01, 0.1, 1.0])))
    kind = rng.integers(4)
    if kind == 0:
        known = []
    elif kind == 1:
        known = _diagonal(n)
    else:
        known = _agreement_pins(np.where(rng.random(n) < rng.random(), labels, -1))
        pairs = [
            (a, b, 0) for a in range(n) for b in range(n)
            if labels[a] != labels[b] and rng.random() < 0.3
        ]
        known += pairs + [(b, a, 0) for a, b, _ in pairs]
    n_sigma = n / k * float(rng.uniform(0.5, 1.5))
    n_delta = n_sigma * float(rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]))
    if rng.random() < 0.2:
        # the draw of a prior matrix, which balancing no longer takes; kept so
        # that every other fuzz problem stays as it was
        rng.uniform(0.01, 1.0, size=(n, n))
    if rng.random() < 0.3:
        # kernel entries up to exp(709.7), next to overflow; on 80 of these
        # the oracle's scalings overflow within the cap, where balance stops
        # at the cap, not converged
        mu = float(-A.min() / rng.uniform(700.0, 709.7))
    else:
        mu = float(10.0 ** rng.uniform(-3.0, 1.0))
    return BalancingProblem(
        A, known, n_sigma - n_delta, n_sigma + n_delta,
        mu=mu,
        iters=int(rng.integers(1, 200)),
        num_clusters=k if rng.random() < 0.5 else None,
    )


def _run_fuzz(seed, count=320):
    """Check count fuzz problems; return how many stopped before the cap,
    each compared with the oracle's fixed point."""
    rng = np.random.default_rng(seed)
    compared = 0
    for _ in range(count):
        problem = _fuzz_problem(rng)
        result, error = assert_matches_oracle(problem)
        if error is None:
            compared += result.rounds < problem.iters
            continue
        # each weight of the doubling ladder must meet the oracle
        mu = problem.mu
        for _ in range(6):
            mu *= 2.0
            result, error = assert_matches_oracle(problem, mu=mu)
            if error is None:
                break
        doubled, doubling_error = _outcome(balance_doubling, problem, max_doublings=6)
        assert doubling_error == error
        if error is None:
            assert doubled.mu == mu
    return compared


def test_fuzz_matches_oracle():
    # about a third of the problems stop before their cap: 113 here
    assert _run_fuzz(5) >= 100


def test_fuzz_matches_oracle_at_seed_101():
    assert _run_fuzz(101) >= 100  # 104 stop before their cap


def test_divergence_in_the_rounds_meets_the_oracle_and_the_ladder():
    """N_00 is 0 and N_01 is 2e-296.  The first round takes log u_1 to about
    -179; at the second, N_01 u_1 underflows, row_0 is 0 and u_0 infinite.
    The two-vector oracle meets the same underflow in its first column pass.
    One doubling recovers."""
    A = np.array([[1400.0, 680.0], [680.0, -240.0]])
    problem = BalancingProblem(A, [], 0.8, 1.0, mu=1.0, iters=200)
    _, error = assert_matches_oracle(problem)
    assert error == (1, "non-finite scalings at round 1 (mu=1.000e+00)")
    result, error = assert_matches_oracle(problem, mu=2.0)
    assert error is None and result.rounds < problem.iters
    assert balance_doubling(problem).mu == 2.0
