"""Constrained entropic balancing, enumeration oracle, Sinkhorn Jacobian."""

import numpy as np
import pytest

from xsdc.balancing import (
    _STOP_TOL,
    BalancingProblem,
    _marginal_violation,
    balance,
    balance_doubling,
    brute_force_assign,
    default_mu,
    scale_to_marginals,
    sinkhorn_jacobian,
)
from xsdc.errors import BalancingDivergence
from xsdc.linalg import ridge_kernel


def diagonal_known(n):
    return [(i, i, 1) for i in range(n)]


def labeled_known(labels):
    """Pinned entries for fully known labels: diagonal plus all pairs."""
    n = len(labels)
    known = diagonal_known(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                known.append((i, j, 1 if labels[i] == labels[j] else 0))
    return known


class TestDefaultMu:
    def test_midpoint_median(self):
        A = np.array([[-2.0, -1.0], [1.0, 4.0]])
        # |entries| sorted: 1, 1, 2, 4 -> midpoint of 1 and 2
        assert default_mu(A) == 1.5

    def test_odd_count(self):
        assert default_mu(np.array([[3.0, -1.0, 2.0]])) == 2.0

    def test_all_zero_falls_back(self):
        with pytest.warns(UserWarning):
            assert default_mu(np.zeros((3, 3))) == 1.0

    def test_zero_median_falls_back(self):
        A = np.zeros((3, 3))
        A[0, 0] = 5.0  # median of |entries| still 0
        with pytest.warns(UserWarning):
            assert default_mu(A) == 1.0

    def test_bitwise_median_fuzz(self):
        """One selection gives np.median bitwise: odd and even sizes, ties,
        +-inf, NaN, and the zero-median fallback with its warning."""
        rng = np.random.default_rng(11)
        fallbacks = 0
        for trial in range(600):
            shape = tuple(rng.integers(1, 24, size=2))
            kind = trial % 5
            if kind == 0:
                A = rng.normal(size=shape)
            elif kind == 1:  # ties
                A = rng.integers(-3, 4, size=shape).astype(float)
            elif kind == 2:
                A = rng.normal(size=shape)
                A.flat[rng.integers(0, A.size, size=3)] = rng.choice(
                    [np.inf, -np.inf, 0.0], size=3
                )
            elif kind == 3:
                A = rng.normal(size=shape)
                A.flat[rng.integers(0, A.size)] = np.nan
            else:  # mostly zero, often a zero median
                A = rng.normal(size=shape) * (rng.random(shape) < 0.4)
            expected = float(np.median(np.abs(A)))
            if expected == 0.0:
                fallbacks += 1
                with pytest.warns(UserWarning):
                    assert default_mu(A) == 1.0
                continue
            got = default_mu(A)
            assert type(got) is float
            assert np.array_equal(got, expected, equal_nan=True)
        assert fallbacks >= 20


class TestProblemValidation:
    """Each validation check, on known given as a list of triples."""

    form = staticmethod(list)

    def problem(self, A, known, n_min=1.0, n_max=1.0):
        return BalancingProblem(A, self.form(known), n_min, n_max)

    def test_transpose_closure_required(self):
        # one orientation pins both entries
        A = np.zeros((3, 3))
        known = diagonal_known(3) + [(0, 1, 1)]
        rows, cols, values = self.problem(A, known).pins
        assert rows.tolist() == [0, 0, 1, 1, 2]
        assert cols.tolist() == [0, 1, 0, 1, 2]
        assert values.tolist() == [1.0] * 5

    def test_diagonal_required_when_nonempty(self):
        A = np.zeros((3, 3))
        known = [(0, 1, 1), (1, 0, 1)]
        with pytest.raises(ValueError, match="diagonal"):
            self.problem(A, known)

    def test_diagonal_zero_infeasible(self):
        A = np.zeros((2, 2))
        with pytest.raises(ValueError, match="infeasible"):
            self.problem(A, [(0, 0, 0), (1, 1, 1)])

    def test_conflicting_duplicates(self):
        A = np.zeros((2, 2))
        known = diagonal_known(2) + [(0, 1, 1), (1, 0, 1), (0, 1, 0)]
        with pytest.raises(ValueError, match="conflicting"):
            self.problem(A, known)

    def test_out_of_range_entry(self):
        known = diagonal_known(3) + [(0, 3, 1), (3, 0, 1)]
        with pytest.raises(ValueError, match=r"\(0, 3\) out of range for n=3"):
            self.problem(np.zeros((3, 3)), known)

    def test_value_other_than_zero_or_one(self):
        known = diagonal_known(2) + [(0, 1, 0.5), (1, 0, 0.5)]
        with pytest.raises(ValueError, match=r"must be 0 or 1, got 0.5 at \(0, 1\)"):
            self.problem(np.zeros((2, 2)), known)

    def test_one_sided_pin_past_every_key(self):
        # the mirror (1, 0) of a one-sided pin sorts past every key given
        # but that of (1, 1), and takes the pin's value
        rows, cols, values = self.problem(
            np.zeros((2, 2)), [(0, 0, 1), (0, 1, 0), (1, 1, 1)]
        ).pins
        assert rows.tolist() == [0, 0, 1, 1]
        assert cols.tolist() == [0, 1, 0, 1]
        assert values.tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_empty_known_is_pure_transport(self):
        problem = self.problem(np.zeros((3, 3)), [])
        assert all(part.size == 0 for part in problem.pins)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            self.problem(np.zeros((2, 2)), [], 2.0, 1.0)


class TestProblemValidationArray(TestProblemValidation):
    """The same checks on known given as an (m, 3) array."""

    form = staticmethod(lambda known: np.array(known, dtype=np.float64).reshape(-1, 3))


class TestBalance:
    def test_sinkhorn_marginals_diagonal_only(self):
        rng = np.random.default_rng(0)
        n, k = 24, 4
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        target = n / k
        problem = BalancingProblem(
            A, diagonal_known(n), target, target, iters=50, num_clusters=k
        )
        result = balance(problem)
        assert result.converged
        M = result.M
        assert np.max(np.abs(M.sum(axis=1) - target)) <= 1e-6
        assert np.max(np.abs(M.sum(axis=0) - target)) <= 1e-6
        assert np.max(np.abs(np.diag(M) - 1.0)) <= 1e-12

    def test_zero_cost_maximum_entropy_symmetry(self):
        n, k = 8, 2
        target = n / k
        problem = BalancingProblem(
            np.zeros((n, n)), diagonal_known(n), target, target,
            mu=1.0, iters=100, num_clusters=k,
        )
        M = balance(problem).M
        off = M[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off - off[0])) <= 1e-9
        assert np.allclose(np.diag(M), 1.0)

    def test_known_entries_exact(self):
        rng = np.random.default_rng(1)
        labels = np.array([0, 0, 0, 1, 1, 1])
        phi = rng.normal(size=(6, 2)) + 4.0 * labels[:, None]
        A = ridge_kernel(phi, 0.1)
        problem = BalancingProblem(
            A, labeled_known(labels), 3.0, 3.0, iters=60, num_clusters=2
        )
        result = balance(problem)
        M = result.M
        assert result.known_violation == 0.0
        for i in range(6):
            for j in range(6):
                if labels[i] != labels[j]:
                    assert M[i, j] == 0.0  # pinned zeros are exact
        assert np.array_equal(np.diag(M), np.ones(6))

    def test_dual_descent_monotone(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            n = 16
            A = rng.uniform(-1.0, 1.0, size=(n, n))
            labels = rng.integers(0, 2, size=n)
            known = diagonal_known(n)
            for i, j in [(0, 1), (2, 3)]:
                m = 1 if labels[i] == labels[j] else 0
                known += [(i, j, m), (j, i, m)]
            problem = BalancingProblem(A, known, 2.0, 10.0, iters=40)
            traj = balance(problem).dual_trajectory
            diffs = np.diff(traj)
            assert np.max(diffs, initial=-np.inf) <= 1e-10

    def test_pure_transport_matches_classical_sinkhorn(self):
        rng = np.random.default_rng(3)
        n = 10
        A = rng.normal(size=(n, n))
        A = 0.5 * (A + A.T)
        n_sigma = n / 2
        problem = BalancingProblem(A, [], n_sigma, n_sigma, mu=1.0, iters=300)
        result = balance(problem)
        M = result.M
        assert np.max(np.abs(M.sum(axis=1) - n_sigma)) <= 1e-8
        assert np.max(np.abs(M.sum(axis=0) - n_sigma)) <= 1e-8
        # independent classical scaling loop on the same kernel
        prior = n_sigma / n
        K = np.exp(-(A / 1.0 - np.log(prior)))
        u = np.ones(n)
        v = np.ones(n)
        for _ in range(300):
            u = n_sigma / (K @ v)
            v = n_sigma / (K.T @ u)
        M_ref = u[:, None] * K * v[None, :]
        assert np.max(np.abs(M - M_ref)) <= 1e-8

    def test_convergence_flag_honest(self):
        rng = np.random.default_rng(4)
        n = 12
        A = rng.uniform(-1, 1, size=(n, n)) * 50.0  # harsh cost, one round
        problem = BalancingProblem(A, diagonal_known(n), 3.0, 3.0, mu=0.5, iters=1)
        result = balance(problem)
        assert not result.converged
        assert result.marginal_violation > 1e-6 * n

    def test_early_stop_meets_the_marginals(self):
        rng = np.random.default_rng(8)
        n, k = 32, 4
        A = rng.uniform(-1.0, 1.0, size=(n, n))
        problem = BalancingProblem(
            A, diagonal_known(n), 6.0, 10.0, iters=200, num_clusters=k
        )
        result = balance(problem)
        assert result.rounds < problem.iters
        assert len(result.dual_trajectory) == result.rounds
        assert _marginal_violation(result.M, 6.0, 10.0) <= _STOP_TOL * 10.0

    def test_rounds_report_the_cap_when_it_binds(self):
        rng = np.random.default_rng(4)
        n = 12
        A = rng.uniform(-1, 1, size=(n, n)) * 50.0  # harsh cost
        for iters in (1, 3):
            problem = BalancingProblem(
                A, diagonal_known(n), 3.0, 3.0, mu=0.5, iters=iters
            )
            result = balance(problem)
            assert result.rounds == iters
            assert result.marginal_violation > _STOP_TOL * 3.0

    def test_overflow_raises_and_doubling_recovers(self):
        rng = np.random.default_rng(5)
        n = 6
        A = rng.uniform(-1, 1, size=(n, n)) * 2000.0
        problem = BalancingProblem(A, diagonal_known(n), 3.0, 3.0, mu=1.0, iters=20)
        with pytest.raises(BalancingDivergence):
            balance(problem)
        result = balance_doubling(problem)
        assert result.mu > 1.0
        assert np.all(np.isfinite(result.M))

    def test_non_finite_weight_override_rejected(self):
        # mu = NaN used to pass float(mu) <= 0 and raise BalancingDivergence
        problem = BalancingProblem(np.zeros((4, 4)), diagonal_known(4), 2.0, 2.0, mu=1.0)
        for mu in (np.nan, np.inf, 0.0, True):
            with pytest.raises(ValueError, match="^mu must be a finite number above 0"):
                balance(problem, mu=mu)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_max=np.inf), "n_max"), (dict(n_min=np.nan), "n_min"),
        (dict(n_min=-1.0), "n_min"), (dict(mu=np.inf), "mu"),
    ])
    def test_non_finite_problem_settings_rejected(self, kwargs, name):
        # n_max = inf used to be accepted and fail in balance as an overflow
        args = {"n_min": 1.0, "n_max": 2.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            BalancingProblem(np.eye(4), diagonal_known(4), **args)

    def test_problem_stores_python_floats(self):
        problem = BalancingProblem(np.eye(4), diagonal_known(4), 1, np.int64(2), mu="0.5")
        assert [(type(v), v) for v in (problem.n_min, problem.n_max, problem.mu)] == [
            (float, 1.0), (float, 2.0), (float, 0.5)
        ]

    def test_doubling_gives_up(self):
        n = 4
        A = np.full((n, n), -1e30)  # exp(-A/mu) overflows at all 21 weights of the ladder
        np.fill_diagonal(A, 0.0)
        problem = BalancingProblem(A, diagonal_known(n), 2.0, 2.0, mu=1e-12, iters=5)
        with pytest.raises(BalancingDivergence):
            balance_doubling(problem)


def _contract_case(name):
    """An asymmetric cost with the pins and box of one named case."""
    rng = np.random.default_rng(12)
    n = 20
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    labels = rng.integers(0, 3, size=n)
    partial = labeled_known(labels[:8]) + [(i, i, 1) for i in range(8, n)]
    must_not_link = [
        (i, j, 0) for i in range(n) for j in range(n) if labels[i] != labels[j]
    ]
    # two blobs of 20% and 80% under the box [0.2 n, 0.8 n]: a stop at the
    # first feasible round would come after round 1, far from the fixed point
    small = rng.random(n) < 0.2
    phi = rng.normal(size=(n, 3)) + 3.0 * np.eye(2, 3)[small.astype(int)]
    blobs = ridge_kernel(phi, 0.1) + 0.01 * A
    cost, known, n_min, n_max = {
        "diagonal_box": (A, diagonal_known(n), 4.0, 9.0),
        "labeled_box": (A, partial, 3.0, 10.0),
        "imbalanced_blobs_box": (blobs, diagonal_known(n), 4.0, 16.0),
        "must_not_link_equal": (A, diagonal_known(n) + must_not_link, 5.0, 5.0),
        "pure_transport_equal": (A, [], 5.0, 5.0),
    }[name]
    return cost, known, n_min, n_max


@pytest.mark.parametrize(
    "name",
    [
        "diagonal_box",
        "labeled_box",
        "imbalanced_blobs_box",
        "must_not_link_equal",
        "pure_transport_equal",
    ],
)
def test_symmetric_contract(name):
    """M is symmetric bitwise with its pins exact; A and (A + A^T) / 2 balance
    alike, bitwise; a stop before the cap is a fixed point, where a row whose
    scaling is not 1 has its sum at the nearer edge of the box."""
    A, known, n_min, n_max = _contract_case(name)
    pinned = {(int(i), int(j)): m for i, j, m in known}
    tau = _STOP_TOL * n_max
    for mu in (None, 0.5):
        result = balance(BalancingProblem(A, known, n_min, n_max, iters=500), mu=mu)
        twin = balance(
            BalancingProblem(0.5 * (A + A.T), known, n_min, n_max, iters=500), mu=mu
        )
        assert np.array_equal(result.M, twin.M)
        assert np.array_equal(result.u, twin.u)
        assert (result.mu, result.dual_trajectory) == (twin.mu, twin.dual_trajectory)
        M = result.M
        assert np.array_equal(M, M.T)
        assert all(M[i, j] == m for (i, j), m in pinned.items())
        assert result.rounds < 500
        sums = M.sum(axis=1)
        edge = np.minimum(np.abs(sums - n_min), np.abs(sums - n_max))
        scaled = np.abs(np.log(result.u)) > tau
        assert np.all(edge[scaled] <= tau + 1e-12 * n_max)
        assert _marginal_violation(M, n_min, n_max) <= tau + 1e-12 * n_max


@pytest.mark.parametrize("n", [2, 5, 64, 65, 150])
def test_problem_finds_any_asymmetric_pair(n):
    """The symmetry check runs a strip of 64 rows at a time; one unequal
    pair anywhere, in a diagonal block, across a strip edge or in the last
    partial strip, makes the problem store (A + A^T) / 2, and a symmetric A
    is stored as it is."""
    rng = np.random.default_rng(n)
    S = rng.normal(size=(n, n))
    S = S + S.T
    assert BalancingProblem(S, [], 1.0, 1.0).A.tobytes() == S.tobytes()
    corners = [(1, 0), (0, n - 1), (n - 1, n - 2), (63, 64), (64, 63), (n - 1, 64)]
    drawn = [tuple(rng.integers(0, n, size=2)) for _ in range(20)]
    for i, j in corners + drawn:
        if i == j or max(i, j) >= n:
            continue
        A = S.copy()
        A[i, j] += 1.0
        stored = BalancingProblem(A, [], 1.0, 1.0).A
        assert stored.tobytes() == (0.5 * (A + A.T)).tobytes(), (i, j)


@pytest.mark.parametrize("field, value", [("iters", 2.7), ("num_clusters", 2.5)])
def test_problem_counts_are_whole_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        BalancingProblem(np.zeros((2, 2)), [], 2.0, 2.0, **{field: value})
    problem = BalancingProblem(np.zeros((2, 2)), [], 2.0, 2.0, **{field: 5.0})
    assert type(getattr(problem, field)) is int and getattr(problem, field) == 5


class TestBruteForce:
    def test_zero_cost_lexicographic(self):
        labels, obj = brute_force_assign(np.zeros((4, 4)), 2)
        assert obj == 0.0
        assert np.array_equal(labels, [0, 0, 0, 0])

    def test_two_cloud_partition(self):
        rng = np.random.default_rng(6)
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        phi = rng.normal(size=(8, 2)) * 0.2 + 5.0 * truth[:, None]
        A = ridge_kernel(phi, 0.01)
        labels, _ = brute_force_assign(A, 2, n_min=4, n_max=4)
        same = labels[:, None] == labels[None, :]
        same_truth = truth[:, None] == truth[None, :]
        assert np.array_equal(same, same_truth)

    def test_constraints_respected(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 5))
        constraints = [(0, 1, 1), (1, 0, 1), (2, 3, 0), (3, 2, 0)]
        labels, _ = brute_force_assign(A, 2, constraints=constraints)
        assert labels[0] == labels[1]
        assert labels[2] != labels[3]

    def test_size_bounds_respected(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(6, 6))
        labels, _ = brute_force_assign(A, 3, n_min=2, n_max=2)
        assert np.array_equal(np.bincount(labels, minlength=3), [2, 2, 2])

    def test_objective_is_minimal(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(6, 6))
        _, obj = brute_force_assign(A, 2)
        # spot-check against a handful of random assignments
        for _ in range(50):
            assign = rng.integers(0, 2, size=6)
            same = assign[:, None] == assign[None, :]
            assert obj <= A[same].sum() + 1e-12

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="refus"):
            brute_force_assign(np.zeros((30, 30)), 3)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            brute_force_assign(np.zeros((2, 2)), 2, constraints=[(0, 0, 0)])
        with pytest.raises(ValueError):
            brute_force_assign(np.zeros((3, 3)), 2, n_min=2, n_max=2)


class TestSinkhornJacobian:
    def test_single_point(self):
        J, radius = sinkhorn_jacobian(np.array([[2.0]]), iterate=False)
        assert np.array_equal(J, np.zeros((1, 1)))
        assert radius == 0.0

    def test_uniform_contracts_completely(self):
        n = 5
        _, radius = sinkhorn_jacobian(np.ones((n, n)) / n, iterate=False)
        assert radius < 1e-10

    def test_random_fixed_points_contract(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            Q = rng.uniform(0.1, 2.0, size=(6, 6))
            _, radius = sinkhorn_jacobian(Q)
            assert 0.0 < radius < 1.0

    def test_transpose_matches_map_derivative(self):
        # gradient convention: the assembled matrix is the transpose of the
        # coordinate Jacobian of the row-then-column normalization
        rng = np.random.default_rng(11)
        n = 4
        Q = scale_to_marginals(rng.uniform(0.2, 2.0, size=(n, n)), np.ones(n), np.ones(n))
        J, _ = sinkhorn_jacobian(Q, iterate=False)

        def sink_map(q):
            M = q.reshape(n, n, order="F").copy()
            M = M * (1.0 / M.sum(axis=1))[:, None]
            M = M * (1.0 / M.sum(axis=0))
            return M.reshape(-1, order="F")

        q = Q.reshape(-1, order="F")
        h = 1e-7
        J_fd = np.zeros((n * n, n * n))
        for idx in range(n * n):
            e = np.zeros(n * n)
            e[idx] = h
            J_fd[:, idx] = (sink_map(q + e) - sink_map(q - e)) / (2 * h)
        assert np.max(np.abs(J.T - J_fd)) <= 1e-6

    def test_nonpositive_rejected(self):
        Q = np.ones((3, 3))
        Q[0, 0] = 0.0
        with pytest.raises(ValueError):
            sinkhorn_jacobian(Q)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sinkhorn_jacobian(np.ones((13, 13)))
