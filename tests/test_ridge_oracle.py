"""The Woodbury ridge kernel and the one objective helper against the dense code
they replaced.

The oracle functions are frozen copies of the former code: ridge_kernel as an
(n, n) Cholesky solve against the centered identity columns, the fit as
lam * sum(M * A) and the gradient as -2 lam A Ms (A phi).  Tolerances, set
from float64 roundoff through an (n, n) solve with lam down to 1e-4:

  * A within 1e-12 * max|A|, and exactly symmetric;
  * the fit within 1e-10 relative;
  * the gradient within 1e-10 * max|g|.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from xsdc.linalg import ridge_kernel
from xsdc.ulr import forward_objective, grad_phi

A_TOL = 1e-12
FIT_TOL = 1e-10
GRAD_TOL = 1e-10


def oracle_ridge_kernel(phi, lam):
    n = phi.shape[0]
    phi_c = phi - phi.mean(axis=0)
    C = phi_c @ phi_c.T + n * lam * np.eye(n)
    proj = np.eye(n) - np.eye(n).mean(axis=0)
    A = cho_solve(cho_factor(C), proj)
    A = A - A.mean(axis=0)
    return 0.5 * (A + A.T)


def oracle_fit(A, M, lam):
    return float(lam * np.sum(M * A))


def oracle_grad(A, phi, M, lam):
    Ms = 0.5 * (M + M.T)
    return -2.0 * lam * (A @ (Ms @ (A @ phi)))


def _normalized(phi):
    """Centered and scaled to a mean squared row norm of 1, as forward does."""
    phi_c = phi - phi.mean(axis=0)
    return phi_c / np.sqrt(np.sum(phi_c * phi_c) / phi.shape[0])


def _cases():
    """(phi, lam, labels) over n 2-600, p 1-16 (p >= n included), lam 1e-4-10."""
    rng = np.random.default_rng(0)
    sizes = [(2, 1), (2, 16), (3, 16), (7, 13), (16, 16), (600, 8), (600, 16)]
    sizes += [
        (int(np.exp(rng.uniform(np.log(2), np.log(600)))), int(rng.integers(1, 17)))
        for _ in range(40)
    ]
    cases = []
    for n, p in sizes:
        lam = float(10.0 ** rng.uniform(-4, 1))
        scales = 10.0 ** rng.uniform(-1, 1, size=p)
        phi = _normalized(rng.normal(size=(n, p)) * scales)
        k = int(rng.integers(2, min(n, 5) + 1))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every class present
        cases.append((phi, lam, labels))
    return cases


CASES = _cases()


def _agreement(labels):
    return (labels[:, None] == labels[None, :]).astype(np.float64)


def _check_fit(fit, expected):
    assert abs(fit - expected) <= FIT_TOL * abs(expected)


def _check_grad(grad, expected):
    assert np.max(np.abs(grad - expected)) <= GRAD_TOL * np.max(np.abs(expected))


@pytest.mark.parametrize("case", range(len(CASES)))
def test_matches_dense_oracle(case):
    phi, lam, labels = CASES[case]
    n = phi.shape[0]
    A_oracle = oracle_ridge_kernel(phi, lam)
    A = ridge_kernel(phi, lam)
    assert np.array_equal(A, A.T)
    assert np.max(np.abs(A - A_oracle)) <= A_TOL * np.max(np.abs(A_oracle))
    agree = _agreement(labels)
    # an asymmetric nonnegative M, like a balanced one
    noisy = agree + 0.1 * np.random.default_rng(case).uniform(size=(n, n))
    for M in (agree, noisy):
        _check_fit(forward_objective(phi, M, lam), oracle_fit(A_oracle, M, lam))
        _check_grad(grad_phi(phi, M, lam), oracle_grad(A_oracle, phi, M, lam))


@pytest.mark.parametrize("lam", [1e-4, 1e-1, 10.0])
@pytest.mark.parametrize("value", [0.0, 0.5])
def test_constant_features(value, lam):
    # phi_c = 0 exactly: A = P / (n lam) and the gradient is exactly zero
    n = 9
    phi = np.full((n, 4), value)
    labels = np.arange(n) % 3
    A_oracle = oracle_ridge_kernel(phi, lam)
    A = ridge_kernel(phi, lam)
    P = np.eye(n) - 1.0 / n
    assert np.max(np.abs(A - A_oracle)) <= A_TOL * np.max(np.abs(A_oracle))
    assert np.max(np.abs(A - P / (n * lam))) <= A_TOL / (n * lam)
    agree = _agreement(labels)
    _check_fit(forward_objective(phi, agree, lam), oracle_fit(A_oracle, agree, lam))
    assert not grad_phi(phi, agree, lam).any()

