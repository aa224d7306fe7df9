"""The balancing round against the dense round it replaced.

`oracle_balance` and `oracle_dual_objective` are frozen copies of the former
`balance`, which rebuilt the n x n kernel with the pinned multipliers every
round and took the log of the whole kernel for the dual.  Its set-up is
frozen too: the default prior as an n x n fill and `default_mu` as a plain
median, so the scalar prior and the in-place median are checked as well.
The oracle takes its pin mask and values from `oracle_arrays` in
`test_pins.py`, the frozen dict code, not from the pin list under test.
The current round is the same iteration in exact arithmetic, so results must
agree to a relative 1e-12 (a few hundred float64 ulps; the measured gap is
about 1e-14), and divergence must be raised at the same round with the same
message.

`balance` stops once the marginals hold, so the oracle, which has no stop,
runs for the rounds `balance` reports.  A stop before the cap must come at
the first round where every row and column sum of the oracle's M is within
1e-9 * n_max of the box.  The stop changes one outcome by design: a problem
that meets the marginals and then drifts until its scalings overflow now
returns at the stop, where the full-cap oracle raises.  The fuzz counts those
problems instead of comparing them (`KNOWN_STOPS_BEFORE_DRIFT`).
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

RTOL = 1e-12


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


def oracle_prior(problem):
    n = problem.size
    if problem.num_clusters is not None:
        return np.full((n, n), 1.0 / problem.num_clusters)
    return np.full((n, n), problem.n_sigma / n)


def oracle_balance(problem, mu=None, iters=None):
    n = problem.size
    iters = int(problem.iters if iters is None else iters)
    if mu is None:
        mu = problem.mu if problem.mu is not None else oracle_default_mu(problem.A)
    mu = float(mu)
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
        for t in range(iters):
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        N = np.where(mask, m_known / (u[:, None] * v[None, :]), N_off)
        M = u[:, None] * N * v[None, :]
    violation = _marginal_violation(M, problem.n_min, problem.n_max)
    return dict(
        M=M, u=u, v=v, converged=violation <= 1e-6 * n,
        dual_trajectory=trajectory, mu=mu, rounds=iters,
    )


def _outcome(fn, problem, **kwargs):
    try:
        return fn(problem, **kwargs), None
    except BalancingDivergence as exc:
        return None, (exc.round_index, str(exc))


def _stop_margin(M, problem):
    """How far the sums of M are inside the stop rule's widened box (< 0: out)."""
    tau = _STOP_TOL * problem.n_max
    return tau - _marginal_violation(M, problem.n_min, problem.n_max)


def assert_matches_oracle(problem, mu=None):
    """Compare one balance call with the oracle; return balance's error.

    A raising balance must raise as the full-cap oracle does; a returning one
    must match the oracle run for the same rounds.
    """
    result, error = _outcome(balance, problem, mu=mu)
    if error is not None:
        assert error == _outcome(oracle_balance, problem, mu=mu)[1]
        return error
    expected = oracle_balance(problem, mu=mu, iters=result.rounds)
    assert 1 <= result.rounds <= problem.iters
    if result.rounds < problem.iters:
        # the stop rule holds at the stop and at no earlier round; the rule
        # reads the sums another way, so allow RTOL * n_max either side
        slack = RTOL * problem.n_max
        assert _stop_margin(expected["M"], problem) >= -slack
        if result.rounds > 1:
            before = oracle_balance(problem, mu=mu, iters=result.rounds - 1)
            assert _stop_margin(before["M"], problem) < slack
    assert result.converged == expected["converged"]
    assert result.mu == expected["mu"]
    np.testing.assert_allclose(result.u, expected["u"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(result.v, expected["v"], rtol=RTOL, atol=0)
    # pinned entries are written as their values; the oracle re-derived them
    # as u_i (m_ij / (u_i v_j)) v_j, which is inf when u_i v_j underflows
    pinned, pin_values = oracle_arrays(problem.known, problem.size)
    assert np.array_equal(result.M[pinned], pin_values[pinned])
    free, expected_free = result.M[~pinned], expected["M"][~pinned]
    scale = np.max(np.abs(expected_free[np.isfinite(expected_free)]), initial=0.0)
    np.testing.assert_allclose(free, expected_free, rtol=RTOL, atol=RTOL * scale)
    # the dual is a sum of terms of both signs; measure it against its terms
    dual = np.asarray(expected["dual_trajectory"])
    dual_scale = max(1.0, float(np.max(np.abs(dual), initial=0.0)))
    np.testing.assert_allclose(
        result.dual_trajectory, dual, rtol=RTOL, atol=RTOL * dual_scale
    )
    return None


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
        "diagonal_only": BalancingProblem(A, _diagonal(n), 6.0, 10.0, iters=40),
        "labeled_block": BalancingProblem(
            A, _agreement_pins(partial), 6.0, 10.0, iters=40, num_clusters=k
        ),
        "many_must_not_link": BalancingProblem(
            A, _diagonal(n) + must_not_link, 8.0, 8.0, iters=40, num_clusters=k
        ),
        "pure_transport": BalancingProblem(
            rng.uniform(-1.0, 1.0, size=(n, n)), [], 4.0, 4.0, iters=40
        ),
        "n_min_zero": BalancingProblem(A, _agreement_pins(partial), 0.0, 12.0, iters=40),
    }


@pytest.mark.parametrize("name", sorted(_named_problems()))
def test_named_problem_matches_oracle(name):
    problem = _named_problems()[name]
    assert assert_matches_oracle(problem) is None
    for mu in (0.05, 0.5, 5.0):
        assert_matches_oracle(problem, mu=mu)


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
        # kernel entries up to exp(709.7), next to overflow: row sums and
        # scalings overflow in later rounds
        mu = float(-A.min() / rng.uniform(700.0, 709.7))
    else:
        mu = float(10.0 ** rng.uniform(-3.0, 1.0))
    return BalancingProblem(
        A, known, n_sigma - n_delta, n_sigma + n_delta,
        mu=mu,
        iters=int(rng.integers(1, 200)),
        num_clusters=k if rng.random() < 0.5 else None,
    )


# fuzz problems (seed: indices) that stop on the marginals and that the
# full-cap oracle, drifting on past the stop, fails with non-finite scalings
KNOWN_STOPS_BEFORE_DRIFT = {101: [190]}


def _run_fuzz(seed, count=320):
    """Check count fuzz problems; return (divergences in the rounds, stops
    before a drift the full-cap oracle fails on)."""
    rng = np.random.default_rng(seed)
    in_rounds = 0
    stops_before_drift = []
    for index in range(count):
        problem = _fuzz_problem(rng)
        error = assert_matches_oracle(problem)
        if error is not None:
            in_rounds += error[0] > 0
            # each weight of the doubling ladder must match the oracle
            mu = problem.mu
            for _ in range(6):
                mu *= 2.0
                error = assert_matches_oracle(problem, mu=mu)
                if error is None:
                    break
            result, doubling_error = _outcome(
                balance_doubling, problem, max_doublings=6
            )
            assert doubling_error == error
            if error is None:
                assert result.mu == mu
        elif balance(problem).rounds < problem.iters:
            if _outcome(oracle_balance, problem)[1] is not None:
                stops_before_drift.append(index)
    return in_rounds, stops_before_drift


def test_fuzz_matches_oracle():
    in_rounds, stops_before_drift = _run_fuzz(5)
    # the fuzz must reach divergence inside the rounds, not only the
    # kernel overflow check that precedes them
    assert in_rounds >= 15
    assert stops_before_drift == KNOWN_STOPS_BEFORE_DRIFT.get(5, [])


def test_fuzz_counts_stops_before_drift():
    _, stops_before_drift = _run_fuzz(101)
    assert stops_before_drift == KNOWN_STOPS_BEFORE_DRIFT[101]


def test_stop_before_drift_returns_where_full_cap_raises():
    """Seed 101, problem 190: the marginals hold at round 12 of 67; the
    full-cap oracle goes on, its dual falling about 15 a round, until the
    scalings overflow."""
    rng = np.random.default_rng(101)
    for _ in range(191):
        problem = _fuzz_problem(rng)
    result = balance(problem)
    assert (result.rounds, problem.iters) == (12, 67)
    assert result.marginal_violation <= _STOP_TOL * problem.n_max
    _, error = _outcome(oracle_balance, problem)
    assert error[0] == 63
    assert error[1].startswith("non-finite scalings at round 63")


def _underflow_problems():
    """Two problems whose scalings drift until u_0 * v_2 underflows to 0.

    With kernel entries up to exp(381.3), u_0 and v_2 shrink round after
    round; at the start of round 630 their product rounds to 0 while no
    ones pin's product does, and that is the first round at which the
    marginals hold.  In the first problem (0, 2) is a zero pin, whose
    multiplier 0 / (u_0 v_2) is then NaN.  In the second, (0, 2) and (2, 0)
    are free entries with a zero kernel instead, which leaves every iterate
    as it was: u.min() * v.min() underflows there, but no zero pin's
    product does.
    """
    A = 381.3 * np.array([
        [-0.25, -1.0, 0.0, -0.25, 0.25],
        [0.5, 0.0, -0.25, 0.0, 0.25],
        [0.5, 0.0, -0.5, 0.5, -0.5],
        [0.5, 0.25, -1.0, 0.0, -1.0],
        [0.0, 0.5, -1.0, 0.0, 0.5],
    ])
    zeros_34 = [(3, 4, 0), (4, 3, 0)]
    pinned = BalancingProblem(
        A, _diagonal(5) + [(0, 2, 0), (2, 0, 0)] + zeros_34, 0.0, 9.0,
        mu=1.0, iters=1000,
    )
    A_free = A.copy()
    A_free[0, 2] = A_free[2, 0] = 800.0  # exp(-800) is 0
    free = BalancingProblem(
        A_free, _diagonal(5) + zeros_34, 0.0, 9.0, mu=1.0, iters=1000
    )
    return pinned, free


def test_zero_pin_underflow_raises_where_the_marginals_hold():
    pinned, free = _underflow_problems()
    # the free twin stops at round 630: the marginals hold there, at the
    # scalings where u_0 * v_2 is 0 and every ones pin's product is not
    twin = balance(free)
    assert twin.rounds == 630
    assert twin.u[0] * twin.v[2] == 0.0
    assert np.all(twin.u * twin.v > 0.0)
    # so the zero pin's NaN multiplier is what keeps the stop from firing
    error = assert_matches_oracle(pinned)
    assert error == (630, "non-finite scalings at round 630 (mu=1.000e+00)")


def test_scaling_underflow_off_the_zero_pins_returns():
    _, free = _underflow_problems()
    result = balance(free)
    assert result.u.min() * result.v.min() == 0.0
    pi, pj, m = free.pins
    zero = m == 0.0
    assert np.all(result.u[pi[zero]] * result.v[pj[zero]] > 0.0)
    assert assert_matches_oracle(free) is None
