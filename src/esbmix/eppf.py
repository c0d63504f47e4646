"""Exchangeable partition probability functions.

Four families: the Dirichlet (Ewens) EPPF, the two-parameter Pitman-Yor
EPPF, and the two degenerate limits (all-singletons and single-block) that
correspond to iid and identical length variables.  Degenerate families
return a -inf log sentinel for impossible configurations so partition sums
can skip zero-probability terms uniformly.

All four are of Gibbs type: pi(n_1..n_m) = V(n, m) prod_i W(n_i), with n the
total size and m the number of blocks (`EppfModel.log_gibbs_factors`).
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .numerics import exp_integral_e1_scaled, log_rising_factorial

__all__ = [
    "EppfModel",
    "Dirichlet",
    "PitmanYor",
    "IidDegenerate",
    "IdenticalDegenerate",
    "check_addition_rule",
    "nig_tie_probability",
]

NEG_INF = float("-inf")


class EppfModel:
    """Base class; concrete families implement the three core quantities."""

    def log_eppf(self, sizes: Sequence[int]) -> float:
        raise NotImplementedError

    def tie_probability(self) -> float:
        """P[two draws tie]: the prediction-rule weight of the only block
        after one draw."""
        return float(self.prediction_weights([1])[0][0])

    def log_gibbs_factors(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Gibbs-type factors of the EPPF on partitions of n items:
        (log V(n, m) for m = 1..n, log W(s) for s = 1..n), so that
        log_eppf(sizes) = log V(n, len(sizes)) + sum_i log W(sizes[i])."""
        raise NotImplementedError

    def prediction_weights(self, counts: Sequence[int]) -> Tuple[np.ndarray, float]:
        """Closed-form prediction-rule weights given current block counts:
        (weight of each existing block, weight of a new block).  The
        components are the ratios pi(n^(j))/pi(n) and pi(n^(K+1))/pi(n) and
        sum to one."""
        raise NotImplementedError


def _check_sizes(sizes):
    if len(sizes) == 0:
        raise ValueError("sizes must be nonempty")
    for s in sizes:
        if s < 1 or int(s) != s:
            raise ValueError("block sizes must be positive integers")


@dataclass(frozen=True)
class Dirichlet(EppfModel):
    """Ewens EPPF of a Dirichlet process with total mass beta."""

    beta: float

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("Dirichlet requires a finite beta > 0")

    def log_eppf(self, sizes):
        _check_sizes(sizes)
        m = len(sizes)
        n = int(sum(sizes))
        out = m * math.log(self.beta) - log_rising_factorial(self.beta, n)
        out += float(sum(gammaln(s) for s in sizes))  # (s-1)! = Gamma(s)
        return out

    def log_gibbs_factors(self, n):
        # V(n, m) = beta^m / (beta)_n and W(s) = (s-1)!
        m = np.arange(1, n + 1)
        return m * math.log(self.beta) - log_rising_factorial(self.beta, n), gammaln(m)

    def prediction_weights(self, counts):
        counts = np.asarray(counts, dtype=float)
        n = counts.sum()
        denom = self.beta + n
        return counts / denom, self.beta / denom


@dataclass(frozen=True)
class PitmanYor(EppfModel):
    """Two-parameter Pitman-Yor EPPF, alpha in [0,1), beta > -alpha.

    At alpha = 0 this evaluates identically to Dirichlet(beta).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("PitmanYor requires alpha in [0, 1)")
        if not -self.alpha < self.beta < math.inf:
            raise ValueError("PitmanYor requires a finite beta > -alpha")

    def log_eppf(self, sizes):
        _check_sizes(sizes)
        k = len(sizes)
        n = int(sum(sizes))
        out = log_rising_factorial(self.beta + self.alpha, k - 1, self.alpha)
        out -= log_rising_factorial(self.beta + 1.0, n - 1)
        out += float(sum(log_rising_factorial(1.0 - self.alpha, s - 1) for s in sizes))
        return out

    def log_gibbs_factors(self, n):
        # V(n, m) = prod_{i<m} (beta + i alpha) / (beta+1)_{n-1}, W(s) = (1-alpha)_{s-1}
        norm = log_rising_factorial(self.beta + 1.0, n - 1)
        log_v = [log_rising_factorial(self.beta + self.alpha, m - 1, self.alpha) - norm
                 for m in range(1, n + 1)]
        log_w = [log_rising_factorial(1.0 - self.alpha, s - 1) for s in range(1, n + 1)]
        return np.array(log_v), np.array(log_w)

    def prediction_weights(self, counts):
        counts = np.asarray(counts, dtype=float)
        n = counts.sum()
        k = len(counts)
        denom = n + self.beta
        if k == 0:
            return counts, 1.0
        return (counts - self.alpha) / denom, (self.beta + k * self.alpha) / denom


@dataclass(frozen=True)
class IidDegenerate(EppfModel):
    """All-singletons law: the partition of an iid sequence from a diffuse law."""

    def log_eppf(self, sizes):
        _check_sizes(sizes)
        return 0.0 if all(s == 1 for s in sizes) else NEG_INF

    def log_gibbs_factors(self, n):
        # only singleton blocks have positive weight
        log_w = np.full(n, NEG_INF)
        log_w[0] = 0.0
        return np.zeros(n), log_w

    def prediction_weights(self, counts):
        return np.zeros(len(counts)), 1.0


@dataclass(frozen=True)
class IdenticalDegenerate(EppfModel):
    """Single-block law: every draw equals the first one."""

    def log_eppf(self, sizes):
        _check_sizes(sizes)
        return 0.0 if len(sizes) == 1 else NEG_INF

    def log_gibbs_factors(self, n):
        # only the one-block partition has positive weight
        log_v = np.full(n, NEG_INF)
        log_v[0] = 0.0
        return log_v, np.zeros(n)

    def prediction_weights(self, counts):
        if len(counts) == 0:
            return np.zeros(0), 1.0
        if len(counts) > 1:
            raise ValueError("conditioning state has zero probability under the single-block law")
        return np.ones(1), 0.0


def check_addition_rule(model: EppfModel, sizes: Sequence[int]) -> float:
    """Absolute residual of the EPPF consistency identity
    pi(n) = pi(n, 1) + sum_j pi(n with n_j + 1)."""
    _check_sizes(sizes)
    sizes = list(sizes)

    def _p(s):
        lp = model.log_eppf(s)
        return 0.0 if lp == NEG_INF else math.exp(lp)

    lhs = _p(sizes)
    rhs = _p(sizes + [1])
    for j in range(len(sizes)):
        grown = sizes.copy()
        grown[j] += 1
        rhs += _p(grown)
    return abs(lhs - rhs)


def nig_tie_probability(beta: float) -> float:
    """Tie probability of a normalized inverse-Gaussian process with total
    mass beta: (1/2) [1 + beta^2 e^beta E1(beta) - beta].

    Uses the scaled exponential integral so large beta neither overflows
    nor underflows.
    """
    if not beta > 0:
        raise ValueError("requires beta > 0")
    return 0.5 * (1.0 + beta * beta * exp_integral_e1_scaled(beta) - beta)
