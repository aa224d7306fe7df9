"""balance against a frozen copy of its plain damped rounds.

`previous_balance` is `balance` as it was before its rounds took a momentum
term: the damped symmetric step alone, in the form it had before the rounds
kept their vectors for the whole call.  It allocated a new vector for each
step of a round, clipped with `ndarray.clip`, checked the kernel with an
n x n finiteness array, added the `n_delta` term of the dual also when
`n_delta` is 0, negated the kernel in a pass of its own, indexed the pins
by row and column, mirrored each diagonal block through `tril_indices`,
took the column sums in the marginal violation and read the pins back for
the known violation.

Both loops minimize the same strictly convex problem, so the frozen loop is
the oracle of the optimum, not of each round.  On every draw the two must:

  * raise on the same draws, and a raise at round 0 (a kernel overflow, or
    the first round, which has no momentum) with the same type, message
    and round_index;
  * where both stop before their caps, agree on the converged flag and on
    M within M_RTOL * max |M|, the bound of test_balance_oracle.py;
  * let balance_doubling end at the mu of the frozen loop's ladder.

At a binding cap the two stand at different rounds of different paths and
are not compared.  balance with out, on a one-sided known set and on any
layout of A is compared with balance itself, bit for bit.
"""

import numpy as np
import pytest

import xsdc.balancing
from xsdc.balancing import (
    _BETA,
    _DUAL_INCREASE_LIMIT,
    _DUAL_INCREASE_TOL,
    _OMEGA,
    _STOP_TOL,
    MAX_MU_DOUBLINGS,
    BalancingProblem,
    EquivalenceMatrix,
    balance,
    balance_doubling,
    default_mu,
)
from xsdc.data import finite_number
from xsdc.errors import BalancingDivergence

from conftest import with_mirrors

# the M of two stops before the cap, relative to max |M|, as in
# test_balance_oracle.py; the largest gap on the fuzz here is 2.8e-9
M_RTOL = 1e-8


def previous_marginal_violation(M, n_min, n_max):
    rows = M.sum(axis=1)
    cols = M.sum(axis=0)
    dev = 0.0
    for s in (rows, cols):
        dev = max(dev, float(np.max(np.maximum(n_min - s, 0.0), initial=0.0)))
        dev = max(dev, float(np.max(np.maximum(s - n_max, 0.0), initial=0.0)))
    return dev


def previous_balance(problem, mu=None):
    n = problem.size
    if mu is None:
        mu = problem.mu if problem.mu is not None else default_mu(problem.A)
    mu = finite_number("mu", mu, 0, strict=True)
    n_sigma, n_delta = problem.n_sigma, problem.n_delta
    box_lo, box_hi = n_sigma - n_delta, n_sigma + n_delta
    tol = _STOP_TOL * problem.n_max

    pi, pj, m = with_mirrors(problem.pins)
    c = np.bincount(pi[m == 1.0], minlength=n)

    with np.errstate(over="ignore", under="ignore"):
        N_free = problem.A / mu
        N_free -= np.log(problem.prior())
        np.exp(np.negative(N_free, out=N_free), out=N_free)
    if not np.all(np.isfinite(N_free)):
        raise BalancingDivergence(
            f"exp overflow building the balancing kernel at mu={mu:.3e}",
            round_index=0,
        )
    N_free[pi, pj] = 0.0

    u = np.ones(n)
    log_u = np.zeros(n)
    trajectory = []
    increases = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Nu = N_free @ u
        for t in range(problem.iters):
            row = Nu + c / u
            target = row.clip(box_lo, box_hi)
            if t and np.abs(u * row - target).max() <= tol:
                break
            log_u = (1.0 - _OMEGA) * log_u + _OMEGA * np.log(target / row)
            u = np.exp(log_u)
            if not np.isfinite(u.max()):
                raise BalancingDivergence(
                    f"non-finite scalings at round {t} (mu={mu:.3e})",
                    round_index=t,
                )
            Nu = N_free @ u
            dual = float(u @ Nu)
            dual -= 2.0 * float((n_sigma - c) @ log_u)
            dual += 2.0 * n_delta * float(np.abs(log_u).sum())
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

    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, 64):
            e = min(s + 64, n)
            rows = N_free[s:e, s:]
            rows *= u[s:e, None]
            rows *= u[s:]
            N_free[e:, s:e] = rows[:, e - s:].T
            i, j = np.tril_indices(e - s, -1)
            rows[i, j] = rows[j, i]
    M = N_free
    M[pi, pj] = m
    violation = previous_marginal_violation(M, problem.n_min, problem.n_max)
    known_violation = float(np.max(np.abs(M[pi, pj] - m), initial=0.0))
    return EquivalenceMatrix(
        M=M,
        u=u,
        converged=violation <= 1e-6 * n,
        marginal_violation=violation,
        known_violation=known_violation,
        dual_trajectory=trajectory,
        mu=mu,
        rounds=len(trajectory),
    )


def _bits(x):
    x = np.asarray(x, dtype=np.float64)
    return x.shape, x.tobytes()


def _outcome(fn, problem, mu):
    """The result of fn, or the type, message and round of what it raised."""
    try:
        return fn(problem, mu=mu), None
    except BalancingDivergence as err:
        return None, (type(err), str(err), err.round_index)


def assert_matches_previous(problem, mu=None):
    """Run balance and the frozen plain loop and compare them as the module
    docstring says; return balance's outcome."""
    result, error = _outcome(balance, problem, mu)
    expected, expected_error = _outcome(previous_balance, problem, mu)
    assert (error is None) == (expected_error is None)
    if error is not None:
        if 0 in (error[2], expected_error[2]):
            assert error == expected_error
        return None, error
    assert _bits(result.mu) == _bits(expected.mu)
    assert np.array_equal(result.M, result.M.T)
    pi, pj, m = with_mirrors(problem.pins)
    assert np.array_equal(result.M[pi, pj], m)
    assert result.known_violation == 0.0
    if result.rounds < problem.iters and expected.rounds < problem.iters:
        assert result.converged == expected.converged
        gap = np.max(np.abs(result.M - expected.M), initial=0.0)
        assert gap <= M_RTOL * np.max(np.abs(expected.M), initial=0.0)
    return result, None


def previous_doubling_mu(problem):
    """The mu at which the frozen loop's doubling ladder succeeds, or None."""
    mu = problem.mu if problem.mu is not None else default_mu(problem.A)
    for _ in range(MAX_MU_DOUBLINGS + 1):
        try:
            return previous_balance(problem, mu=mu).mu
        except BalancingDivergence:
            mu *= 2.0
    return None


def assert_same_outcome(outcome, expected_outcome):
    """Compare two _outcome results bit for bit; return the first."""
    (result, error), (expected, expected_error) = outcome, expected_outcome
    assert error == expected_error
    if error is None:
        assert _bits(result.M) == _bits(expected.M)
        assert _bits(result.u) == _bits(expected.u)
        assert _bits(result.dual_trajectory) == _bits(expected.dual_trajectory)
        assert result.rounds == expected.rounds
        assert result.converged == expected.converged
        assert _bits(result.marginal_violation) == _bits(expected.marginal_violation)
        assert _bits(result.known_violation) == _bits(expected.known_violation)
        assert _bits(result.mu) == _bits(expected.mu)
    return result, error


def balance_by_round(problem, monkeypatch):
    """balance(problem) with every dual it evaluates recorded; returns the
    result and, per round, the (log u, dual) of the candidate and, when the
    round fell back, of the plain step after it."""
    calls = []

    def recorded(u, Nu, log_u, *args, inner=xsdc.balancing._dual):
        value = inner(u, Nu, log_u, *args)
        calls.append((log_u.copy(), value))
        return value

    with monkeypatch.context() as mp:
        mp.setattr(xsdc.balancing, "_dual", recorded)
        result = balance(problem)
    trajectory = result.dual_trajectory
    rounds, k = [calls[:1]], 1
    for t in range(1, len(trajectory)):
        # a candidate at or below the last dual is kept, else one more call
        take = 1 if calls[k][1] <= trajectory[t - 1] else 2
        rounds.append(calls[k:k + take])
        k += take
    assert k == len(calls)
    assert [r[-1][1] for r in rounds] == trajectory
    assert _bits(result.u) == _bits(np.exp(rounds[-1][-1][0]))
    return result, rounds


def assert_rounds_follow_the_rule(problem, result, rounds):
    """Each candidate is the damped step plus beta times the last accepted
    change, and a round falls back to the damped step exactly when its
    candidate raised the dual; returns the number of fallbacks."""
    pi, pj, m = with_mirrors(problem.pins)
    n = problem.size
    c = np.bincount(pi[m == 1.0], minlength=n)
    with np.errstate(over="ignore", under="ignore"):
        N_free = np.exp(problem.A / -result.mu + np.log(problem.prior()))
    N_free[pi, pj] = 0.0
    box = problem.n_sigma - problem.n_delta, problem.n_sigma + problem.n_delta
    log_u, last, fallbacks = np.zeros(n), np.zeros(n), 0
    for t, calls in enumerate(rounds):
        u = np.exp(log_u)
        row = N_free @ u + c / u
        step = _OMEGA * (np.log(row.clip(*box) / row) - log_u)
        tol = 1e-12 * (1.0 + np.max(np.abs(log_u)))
        assert np.max(np.abs(calls[0][0] - (log_u + step + _BETA * last))) <= tol
        if t and not calls[0][1] <= rounds[t - 1][-1][1]:
            assert len(calls) == 2
            assert np.max(np.abs(calls[1][0] - (log_u + step))) <= tol
            fallbacks += 1
        else:
            assert len(calls) == 1
        last = calls[-1][0] - log_u
        log_u = calls[-1][0]
    return fallbacks


def _underflow_problem(rng):
    """2 to 5 rows, no pins, off-diagonal kernel entries near exp underflow
    and diagonal ones from underflow to e^400: in 9% of these the scalings
    leave the floats within the rounds."""
    n = int(rng.integers(2, 6))
    A = rng.uniform(650.0, 740.0, size=(n, n))
    A = 0.5 * (A + A.T)
    A[np.diag_indices(n)] = rng.uniform(-400.0, 1500.0, size=n)
    n_sigma = float(rng.uniform(0.5, 2.0))
    n_delta = n_sigma * float(rng.choice([0.0, 0.2, 1.0]))
    return BalancingProblem(A, [], n_sigma - n_delta, n_sigma + n_delta, mu=1.0, iters=200)


def _random_problem(rng):
    """A problem of 1 to 70 rows: a blob or uniform cost, pins with or
    without zero pins, a box or equal bounds, and a cap that often binds."""
    n = int(rng.integers(1, 71))
    k = int(rng.integers(1, 5))
    labels = rng.integers(0, k, size=n)
    if rng.random() < 0.7:
        phi = rng.normal(size=(n, 4)) + 3.0 * np.eye(k, 4)[labels]
        A = -(phi @ phi.T) / 4.0
    else:
        A = rng.uniform(-1.0, 1.0, size=(n, n))  # asymmetric
    kind = rng.integers(4)
    known = [] if kind == 0 else [(i, i, 1) for i in range(n)]
    if kind >= 2:
        shown = np.flatnonzero(rng.random(n) < rng.random())
        known += [
            (int(a), int(b), float(labels[a] == labels[b]))
            for a in shown for b in shown if a != b
        ]
    if kind == 3:
        # zero pins: must-not-link pairs in both orientations
        a, b = rng.integers(0, n, size=(2, int(rng.integers(0, 3 * n + 1))))
        keep = labels[a] != labels[b]
        known += [(int(x), int(y), 0) for x, y in zip(a[keep], b[keep])]
        known += [(int(y), int(x), 0) for x, y in zip(a[keep], b[keep])]
    n_sigma = n / k * float(rng.uniform(0.5, 1.5))
    n_delta = n_sigma * float(rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0]))
    if rng.random() < 0.25:
        # kernel entries next to exp overflow, or past it
        mu = float(-A.min() / rng.uniform(690.0, 720.0)) if A.min() < 0 else None
    else:
        mu = float(10.0 ** rng.uniform(-3.0, 1.0)) if rng.random() < 0.7 else None
    return BalancingProblem(
        A, known, n_sigma - n_delta, n_sigma + n_delta,
        mu=mu,
        iters=int(rng.choice([1, 2, 5, rng.integers(1, 300)])),
        num_clusters=k if rng.random() < 0.5 else None,
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_matches_previous_rounds(seed):
    rng = np.random.default_rng(seed)
    seen = dict.fromkeys(
        ["kernel", "rounds", "capped", "stopped", "box", "zero pins", "doubled"], 0
    )
    for _ in range(200):
        problem = (_underflow_problem if rng.random() < 0.3 else _random_problem)(rng)
        overrides = [None]
        if rng.random() < 0.3:
            overrides.append(float(10.0 ** rng.uniform(-2.0, 1.0)))
        for mu in overrides:
            result, error = assert_matches_previous(problem, mu=mu)
            if error is not None:
                seen["rounds" if error[2] else "kernel"] += 1
            elif result.rounds == problem.iters:
                seen["capped"] += 1
            else:
                seen["stopped"] += 1
            if mu is None:
                raised = error is not None
        if raised:
            _, doubling_error = _outcome(lambda p, mu: balance_doubling(p), problem, None)
            expected_mu = previous_doubling_mu(problem)
            if doubling_error is None:
                assert balance_doubling(problem).mu == expected_mu
                seen["doubled"] += 1
            else:
                assert expected_mu is None
        seen["box"] += problem.n_delta > 0
        seen["zero pins"] += bool(np.any(problem.pins[2] == 0.0))
    # no draw reaches the two dual raises, which no known problem does
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_dual_rises_only_where_the_damped_step_does(seed, monkeypatch):
    """The momentum never raises the dual.  Every round follows the rule of
    assert_rounds_follow_the_rule, and on the random problems the duals are
    monotone within 1e-10 wherever those of the frozen plain loop are.  The
    underflow problems, built to leave the floats, are not held to the
    second: there a damped step after a momentum one can rise where the
    plain loop's did not (3 of 600 such draws at seeds 0, 1 and 8)."""
    rng = np.random.default_rng(seed)
    seen = dict.fromkeys(["monotone", "fallbacks", "rises"], 0)
    for _ in range(200):
        underflow = rng.random() < 0.3
        problem = (_underflow_problem if underflow else _random_problem)(rng)
        try:
            result, rounds = balance_by_round(problem, monkeypatch)
        except BalancingDivergence:
            continue
        seen["fallbacks"] += assert_rounds_follow_the_rule(problem, result, rounds)
        rises = np.diff(result.dual_trajectory, prepend=np.inf) > 1e-10
        seen["rises"] += bool(rises.any())
        if underflow:
            continue
        previous = previous_balance(problem)
        if not np.any(np.diff(previous.dual_trajectory) > 1e-10):
            assert not rises.any()
            seen["monotone"] += 1
    assert min(seen.values()) >= 3, seen


def test_out_is_bitwise_the_allocating_call():
    """balance and balance_doubling write M into a given out with the bits
    of the call without one, and return out as M.  One buffer per size
    serves every draw, dirty from the draw before, also one that raised;
    the mu ladder retries in it."""
    rng = np.random.default_rng(8)
    buffers = {}
    seen = dict.fromkeys(["raised", "doubled", "default mu"], 0)
    for _ in range(200):
        problem = (_underflow_problem if rng.random() < 0.3 else _random_problem)(rng)
        out = buffers.setdefault(problem.size, np.full((problem.size,) * 2, np.nan))
        result, error = assert_same_outcome(
            _outcome(lambda p, mu: balance(p, mu=mu, out=out), problem, None),
            _outcome(balance, problem, None),
        )
        assert error is not None or result.M is out
        seen["raised"] += error is not None
        result, error = assert_same_outcome(
            _outcome(lambda p, mu: balance_doubling(p, out=out), problem, None),
            _outcome(lambda p, mu: balance_doubling(p), problem, None),
        )
        if error is None:
            assert result.M is out
            first = problem.mu if problem.mu is not None else default_mu(problem.A)
            seen["doubled"] += result.mu > first
        seen["default mu"] += problem.mu is None
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("bad", ["shape", "dtype", "not C-contiguous", "list", "shares A"])
@pytest.mark.parametrize("call", ["balance", "balance_doubling", "default_mu"])
def test_rejected_out_raises(call, bad):
    n = 6
    problem = BalancingProblem(-np.eye(n), [(i, i, 1) for i in range(n)], 2.0, 3.0)
    out = {
        "shape": np.empty((n, n + 1)),
        "dtype": np.empty((n, n), dtype=np.float32),
        "not C-contiguous": np.empty((n, n), order="F"),
        "list": np.zeros((n, n)).tolist(),
        "shares A": problem.A,
    }[bad]
    fn = {
        "balance": lambda: balance(problem, out=out),
        "balance_doubling": lambda: balance_doubling(problem, out=out),
        "default_mu": lambda: default_mu(problem.A, out=out),
    }[call]
    before = problem.A.copy()
    with pytest.raises(ValueError, match="^out must"):
        fn()
    assert _bits(problem.A) == _bits(before)


def test_one_sided_known_matches_closed():
    """BalancingProblem pins each entry's mirror: a closed known set with one
    orientation of random pairs dropped, shuffled, gives the same pins and
    the same bits of balance."""
    rng = np.random.default_rng(6)
    seen = dict.fromkeys(["one-sided ones", "one-sided zeros", "array", "raised"], 0)
    for _ in range(200):
        problem = _random_problem(rng)
        closed = list(problem.known)
        if closed:  # duplicates
            closed += [closed[int(t)] for t in rng.integers(0, len(closed), size=3)]
        drop = {}
        for i, j, _ in closed:
            if i != j and (j, i) not in drop:
                drop.setdefault((i, j), rng.random() < 0.5)
        dropped = [t[2] for t in closed if drop.get(t[:2], False)]
        known = [t for t in closed if not drop.get(t[:2], False)]
        known = [known[int(t)] for t in rng.permutation(len(known))]
        seen["one-sided ones"] += 1 in dropped
        seen["one-sided zeros"] += 0 in dropped
        if rng.random() < 0.5:
            known = np.array(known, dtype=np.float64).reshape(-1, 3)
            seen["array"] += 1
        one_sided = BalancingProblem(
            problem.A, known, problem.n_min, problem.n_max, mu=problem.mu,
            iters=problem.iters, num_clusters=problem.num_clusters,
        )
        for got, expected in zip(one_sided.pins, problem.pins):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        _, error = assert_same_outcome(
            _outcome(balance, one_sided, None), _outcome(balance, problem, None)
        )
        seen["raised"] += error is not None
    assert min(seen.values()) >= 3, seen


def test_kernel_overflow_raises_at_round_zero():
    A = np.array([[-800.0, 0.0], [0.0, -800.0]])
    problem = BalancingProblem(A, [(0, 0, 1), (1, 1, 1)], 1.0, 1.0, mu=1.0)
    _, error = assert_matches_previous(problem)
    assert error == (
        BalancingDivergence,
        "exp overflow building the balancing kernel at mu=1.000e+00",
        0,
    )


def test_blocks_past_64_rows():
    """Three blocks of rows, the last one partial, with a box and pins."""
    rng = np.random.default_rng(3)
    n = 150
    labels = rng.integers(0, 3, size=n)
    phi = rng.normal(size=(n, 4)) + 3.0 * np.eye(3, 4)[labels]
    shown = np.flatnonzero(rng.random(n) < 0.2)
    known = [(i, i, 1) for i in range(n)] + [
        (int(a), int(b), float(labels[a] == labels[b]))
        for a in shown for b in shown if a != b
    ]
    problem = BalancingProblem(-(phi @ phi.T), known, 30.0, 70.0, iters=40)
    result, error = assert_matches_previous(problem)
    assert error is None and result.rounds < problem.iters


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_any_layout_of_A_pins_exactly(layout):
    """A symmetric A in Fortran order, or the transposed view of one, gives
    the bits of the C-ordered A, with the pinned kernel entries zeroed and
    the pins exact in M; also when A is replaced after the checks."""
    rng = np.random.default_rng(5)
    n = 90
    labels = rng.integers(0, 3, size=n)
    phi = rng.normal(size=(n, 4)) + 3.0 * np.eye(3, 4)[labels]
    A = -(phi @ phi.T) / 4.0
    shown = np.flatnonzero(rng.random(n) < 0.3)
    known = [(i, i, 1) for i in range(n)] + [
        (int(a), int(b), float(labels[a] == labels[b]))
        for a in shown for b in shown if a != b
    ]
    other = np.asfortranarray(A) if layout == "fortran" else np.ascontiguousarray(A).T
    assert not other.flags.c_contiguous
    expected = balance(BalancingProblem(A, known, 20.0, 40.0, iters=30))

    problem = BalancingProblem(other, known, 20.0, 40.0, iters=30)
    result, error = assert_matches_previous(problem)
    assert error is None
    pi, pj, m = with_mirrors(problem.pins)
    assert np.array_equal(result.M[pi, pj], m)
    assert result.known_violation == 0.0
    assert _bits(result.M) == _bits(expected.M)
    assert _bits(result.u) == _bits(expected.u)

    problem.A = other  # bypasses the C-ordered copy of the checks
    replaced = balance(problem)
    assert np.array_equal(replaced.M[pi, pj], m)
    assert _bits(replaced.M) == _bits(expected.M)
    assert _bits(replaced.u) == _bits(expected.u)


def test_momentum_falls_back_when_it_raises_the_dual(seed0_runs, monkeypatch):
    """On the seed-0 main-loop problems of semi (b = 512) and pairs
    (b = 128) some momentum candidates raise the dual; those rounds must
    take the damped step alone, and every other round its candidate."""
    fallbacks = 0
    for name in ("semi-n20k-b512", "pairs-n300-b128"):
        for problem in seed0_runs[name]["problems"][:8]:
            result, rounds = balance_by_round(problem, monkeypatch)
            fallbacks += assert_rounds_follow_the_rule(problem, result, rounds)
    assert fallbacks >= 3


@pytest.mark.parametrize(
    "workload", ["semi-n20k-b512", "pairs-n300-b128", "unsup-cli-n20k-b256"]
)
def test_momentum_cuts_the_rounds_of_seed0_problems(seed0_runs, workload):
    """On the seed-0 main-loop problems (b = 512, 128 and 256), over those
    the plain loop solves before the cap of 40, balance needs at most 0.8
    times its rounds: 0.62, 0.66 and 0.74 on the problems kept (10 of 10,
    75 of 75 and 11 of 25 solved).  The other 14 unsup problems reach
    the plain loop's cap, 7 of them the momentum's too; over all 100 unsup
    main-loop problems, each capped run counted at 40 rounds, the ratio is
    0.84."""
    problems = seed0_runs[workload]["problems"]
    rounds = previous_rounds = solved = 0
    for problem in problems:
        result, error = assert_matches_previous(problem)
        assert error is None
        expected = previous_balance(problem)
        if expected.rounds < problem.iters:
            rounds += result.rounds
            previous_rounds += expected.rounds
            solved += 1
    assert solved >= 5
    assert rounds <= 0.8 * previous_rounds
