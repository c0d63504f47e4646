"""Tests of the benchmark's own checkers (run with pytest from the repo root).

The ESS estimator is tested on AR(1) series, whose integrated
autocorrelation time (1 + phi) / (1 - phi) is known; the closed forms are
tested against direct numerical integration or simulation.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import checks


def ar1(phi, n, rng):
    e = rng.normal(size=n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + e[i]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_geyer_ess_on_ar1(phi):
    n = 200_000
    x = ar1(phi, n, np.random.default_rng(1))
    expected = n * (1.0 - phi) / (1.0 + phi)
    # negative phi: the initial positive sequence stops at the first pair,
    # so the estimate is capped at n / (1 + 2 rho_1 + ...) > n; only bound it
    if phi < 0:
        assert checks.geyer_ess(x) > 0.9 * n
    else:
        assert checks.geyer_ess(x) == pytest.approx(expected, rel=0.1)


def test_geyer_ess_constant_series():
    assert checks.geyer_ess(np.ones(50)) == 50.0


def beta_moment_by_quadrature(a, b, r, t):
    pdf = stats.beta(a, b).pdf
    return integrate.quad(lambda v: v ** r * (1.0 - v) ** t * pdf(v), 0.0, 1.0)[0]


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 0.5)])
def test_iid_limit_against_quadrature(a, b):
    d = [1, 3, 2, 3, 1]
    r, t = checks.occupancy(d)
    direct = math.prod(beta_moment_by_quadrature(a, b, ri, ti) for ri, ti in zip(r, t))
    assert checks.iid_allocation_closed_form(d, a, b) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 0.5)])
def test_identical_limit_against_quadrature(a, b):
    d = [1, 3, 2, 3, 1]
    r, t = checks.occupancy(d)
    direct = beta_moment_by_quadrature(a, b, r.sum(), t.sum())
    assert checks.identical_allocation_closed_form(d, a, b) == pytest.approx(direct, rel=1e-8)


def test_occupancy():
    r, t = checks.occupancy([1, 3, 2, 3, 1])
    assert list(r) == [2, 1, 2]
    assert list(t) == [3, 2, 0]


@pytest.mark.parametrize("theta", [0.5, 2.5])
def test_crp_expected_kn_against_urn_recursion(theta):
    # exact K_n pmf of the Chinese restaurant process by forward recursion
    n_max = 30
    pmf = np.zeros(n_max + 1)
    pmf[1] = 1.0
    means = [1.0]
    for n in range(1, n_max):
        new = theta / (theta + n)
        pmf = np.concatenate([[0.0], pmf[:-1]]) * new + pmf * (1.0 - new)
        means.append(float(np.arange(n_max + 1) @ pmf))
    assert checks.crp_expected_kn(theta, n_max) == pytest.approx(means, rel=1e-12)


def test_geometric_expected_kn_against_simulation():
    rng = np.random.default_rng(3)
    reps, n = 100_000, 20
    v = rng.random(reps)
    draws = rng.geometric(v[:, None], size=(reps, n))
    draws.sort(axis=1)
    kn = 1 + (np.diff(draws, axis=1) > 0).sum(axis=1)
    se = kn.std(ddof=1) / math.sqrt(reps)
    assert abs(checks.geometric_expected_kn(n) - kn.mean()) < 4.0 * se


def test_rand_index_and_l1():
    assert checks.rand_index([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0
    assert checks.rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(2 / 6)
    grid = np.linspace(-10, 10, 2001)
    f = stats.norm.pdf(grid)
    g = stats.norm.pdf(grid, 0.1)
    expected = 2.0 * (2.0 * stats.norm.cdf(0.05) - 1.0)
    assert checks.l1_distance(f, g, grid[1] - grid[0]) == pytest.approx(expected, rel=1e-4)


def test_kn_path_checker():
    good = np.array([[1, 1, 2, 3], [1, 2, 2, 2]])
    assert checks.check_kn_paths(good) == []
    assert checks.check_kn_paths(np.array([[1, 3, 3, 3]]))
    assert checks.check_kn_paths(np.array([[2, 2, 3, 3]]))
