import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from esbmix.numerics import (
    SeriesConvergenceError,
    exp_integral_e1,
    exp_integral_e1_scaled,
    gauss_2f1_11,
    log_beta_moment,
    log_rising_factorial,
    rising_factorial,
)


def test_rising_factorial_values():
    assert rising_factorial(2.0, 3, 1.0) == 24.0          # 2*3*4
    assert rising_factorial(0.5, 2, 0.3) == pytest.approx(0.4)
    assert rising_factorial(7.3, 0, 2.0) == 1.0            # empty product
    assert rising_factorial(-1.5, 2, 1.0) == pytest.approx(0.75)


def test_rising_factorial_matches_gamma_ratio():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(0.1, 20.0)
        m = int(rng.integers(0, 51))
        direct = rising_factorial(x, m, 1.0)
        via_gamma = math.exp(gammaln(x + m) - gammaln(x))
        assert direct == pytest.approx(via_gamma, rel=1e-10)
        assert log_rising_factorial(x, m, 1.0) == pytest.approx(
            math.log(direct) if direct > 0 else 0.0, rel=1e-10, abs=1e-12
        )


def test_log_rising_factorial_large_m_no_overflow():
    val = log_rising_factorial(1.5, 10_000, 1.0)
    assert np.isfinite(val) and val > 0
    # generic-step path agrees with the step-1 fast path
    assert log_rising_factorial(2.0, 40, 1.0) == pytest.approx(
        sum(math.log(2.0 + i) for i in range(40)), rel=1e-12
    )


def test_gauss_2f1_spot_value():
    # 2F1(1,1;3;1/2) has the elementary form 4(1 - ln 2); the series
    # sum 2 z^n/((n+1)(n+2)) was summed independently to the same value
    assert gauss_2f1_11(3.0, 0.5) == pytest.approx(4.0 * (1.0 - math.log(2.0)), abs=1e-10)


def test_series_and_continued_fraction_reach_machine_precision():
    # closed forms: 2F1(1,1;3;1/2) = 4(1 - ln 2), 2F1(1,1;3/2;1/2) = pi/2;
    # E1(1) to 20 digits from the reference tables
    assert gauss_2f1_11(3.0, 0.5) == pytest.approx(4.0 * (1.0 - math.log(2.0)), rel=1e-14)
    assert gauss_2f1_11(1.5, 0.5) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552027368, rel=1e-14)


def test_gauss_2f1_at_zero():
    assert gauss_2f1_11(1.7, 0.0) == 1.0


def test_gauss_2f1_partial_sums_monotone():
    # all series terms are positive for c > 0, z in (0,1); strict growth
    # holds until a term drops below float resolution of the total
    for c in (0.5, 2.0, 7.3):
        term, total, prev = 1.0, 0.0, -1.0
        for n in range(60):
            total += term
            assert total >= prev
            if term > 1e-12:
                assert total > prev
            prev = total
            term *= (n + 1) * 0.5 / (c + n)
        assert total == pytest.approx(gauss_2f1_11(c, 0.5), rel=1e-9)


def test_gauss_2f1_reports_non_convergence():
    with pytest.raises(SeriesConvergenceError):
        gauss_2f1_11(1.0, 0.999)


def test_gauss_2f1_domain():
    with pytest.raises(ValueError):
        gauss_2f1_11(-1.0, 0.5)
    with pytest.raises(ValueError):
        gauss_2f1_11(2.0, 1.0)


def test_e1_against_quadrature():
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        oracle, _ = integrate.quad(lambda t: math.exp(-t) / t, x, np.inf, limit=200)
        assert exp_integral_e1(x) == pytest.approx(oracle, rel=1e-9)
    assert exp_integral_e1(1.0) == pytest.approx(0.2193839, abs=5e-8)


def test_e1_sandwich_bounds():
    # e^-x/2 log(1 + 2/x) < E1(x) < e^-x log(1 + 1/x)
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        val = exp_integral_e1(x)
        lower = math.exp(-x) / 2.0 * math.log(1.0 + 2.0 / x)
        upper = math.exp(-x) * math.log(1.0 + 1.0 / x)
        assert lower < val < upper


def test_e1_monotone_to_zero():
    xs = [1.0, 2.0, 5.0, 10.0, 30.0, 80.0]
    vals = [exp_integral_e1(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-30


def test_e1_domain_error():
    with pytest.raises(ValueError):
        exp_integral_e1(0.0)
    with pytest.raises(ValueError):
        exp_integral_e1(-1.0)


def test_e1_scaled_consistent():
    for x in (0.3, 1.0, 4.0, 50.0):
        assert exp_integral_e1_scaled(x) == pytest.approx(
            math.exp(x) * exp_integral_e1(x), rel=1e-9
        )
    # usable where e^x alone overflows
    assert 0.0 < exp_integral_e1_scaled(800.0) < 1.0


def test_log_beta_moment():
    # E[v^p (1-v)^q] for v ~ Be(1,1) is B(1+p, 1+q)
    assert math.exp(log_beta_moment(1, 1, 1, 0)) == pytest.approx(0.5)
    assert math.exp(log_beta_moment(1, 1, 2, 1)) == pytest.approx(1 / 12)
    # Be(1, theta): theta p! / (theta+q)_(p+1)
    theta = 2.5
    p, q = 3, 2
    expected = theta * math.factorial(p) / rising_factorial(theta + q, p + 1)
    assert math.exp(log_beta_moment(1, theta, p, q)) == pytest.approx(expected, rel=1e-12)
