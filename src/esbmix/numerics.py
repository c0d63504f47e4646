"""Shared numeric primitives: rising factorials, a Gauss hypergeometric series,
the exponential integral E1, and Beta-distribution moment utilities.

Everything here is a pure function of its arguments.
"""

import math

from scipy.special import gammaln

__all__ = [
    "SeriesConvergenceError",
    "rising_factorial",
    "log_rising_factorial",
    "gauss_2f1_11",
    "exp_integral_e1",
    "exp_integral_e1_scaled",
    "log_beta_moment",
]


# every series stops once a term no longer changes the sum, and every
# continued fraction once a convergent changes by less than one unit of the
# last place; both give up after MAX_TERMS terms
MAX_TERMS = 10_000


class SeriesConvergenceError(RuntimeError):
    """Raised when a series fails to converge within MAX_TERMS terms."""


def rising_factorial(x: float, m: int, step: float = 1.0) -> float:
    """Generalized rising factorial: the product of x + i*step for i = 0..m-1.

    step=1 gives the usual Pochhammer symbol, step=0 gives x**m.
    m=0 is the empty product, 1.
    """
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    out = 1.0
    for i in range(m):
        out *= x + i * step
    return out


def log_rising_factorial(x: float, m: int, step: float = 1.0) -> float:
    """Log of rising_factorial for x > 0, stable for m up to ~10^4.

    All factors must stay positive, which holds for x > 0 and step >= 0.
    """
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    if m == 0:
        return 0.0
    if x <= 0:
        raise ValueError("log variant requires x > 0")
    if step == 1.0:
        return float(gammaln(x + m) - gammaln(x))
    if step == 0.0:
        return m * math.log(x)
    return float(sum(math.log(x + i * step) for i in range(m)))


def gauss_2f1_11(c: float, z: float) -> float:
    """2F1(1, 1; c; z) by direct series summation.

    The series is sum_n n! z^n / (c)_n; successive terms carry the ratio
    (n+1) z / (c+n), so for the use case z = 1/2 the tail decays
    geometrically and no transformation is needed.
    """
    if c <= 0:
        raise ValueError("requires c > 0")
    if abs(z) >= 1:
        raise ValueError("requires |z| < 1")
    total = 0.0
    term = 1.0
    for n in range(MAX_TERMS):
        total += term
        term *= (n + 1) * z / (c + n)
        if total + term == total:
            return total
    raise SeriesConvergenceError(f"2F1 series did not converge within {MAX_TERMS} terms")


_EULER_GAMMA = 0.5772156649015328606


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!), for small x
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0  # x^k / k! carried incrementally
    for k in range(1, MAX_TERMS):
        term *= x / k
        contrib = term / k if k % 2 == 1 else -term / k
        if total + contrib == total:
            return total
        total += contrib
    raise SeriesConvergenceError("E1 series did not converge")


def _e1_cf_scaled(x: float) -> float:
    # Modified-Lentz evaluation of the continued fraction for e^x E1(x):
    #   e^x E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- 9/(x+7- ...))))
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, MAX_TERMS):
        a = -(k * k)
        b += 2.0
        d = 1.0 / max(abs(b + a * d), tiny) * math.copysign(1.0, b + a * d)
        c = b + a / c
        if c == 0.0:
            c = tiny
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 2.0 ** -52:
            return h
    raise SeriesConvergenceError("E1 continued fraction did not converge")


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf t^-1 e^-t dt, x > 0.

    Power series below x = 1, continued fraction above (the standard
    accuracy split).
    """
    if x <= 0:
        raise ValueError("E1 requires x > 0")
    if x < 1.0:
        return _e1_series(x)
    return math.exp(-x) * _e1_cf_scaled(x)


def exp_integral_e1_scaled(x: float) -> float:
    """e^x E1(x), usable where e^x alone would overflow (x >= 1 only needs
    the continued fraction; below 1 the plain product is safe)."""
    if x <= 0:
        raise ValueError("E1 requires x > 0")
    if x < 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


def log_beta_moment(a: float, b: float, p: float, q: float) -> float:
    """log of B(a+p, b+q) / B(a, b): the (p, q) power-product moment of a
    Beta(a, b) variable, i.e. E[v^p (1-v)^q]."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta shape parameters must be positive")
    return float(
        gammaln(a + p) + gammaln(b + q) - gammaln(a + b + p + q)
        - (gammaln(a) + gammaln(b) - gammaln(a + b))
    )
