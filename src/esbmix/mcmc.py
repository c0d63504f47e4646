"""Slice-within-Gibbs sampler for mixture density estimation under
stick-breaking priors with exchangeable length variables.

One sweep updates: the allocations of two clusters by a split-merge move,
the length variables of the sticks up to the last occupied one (their tie
partition and class values, drawn given the allocations with the slices
integrated out), label swaps of adjacent sticks, slice variables, the
truncation level (extending sticks and atoms as far as the slices
require), allocations, kernel atoms, and optionally the tie probability.
The length step reads the data only through the per-stick counts, and
costs O(k^2) scalar operations for those k sticks.
Posterior summaries (EAP density, MAP sweep, clusters, K_n) are computed
from retained sweeps; the MAP sweep is the one with the highest collapsed
score log P[d | rho] + sum_j log m(y_j).
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.special import betaln, gammaln, xlog1py, xlogy

from .analytics import ENUMERATION_CAP, KnSummary, _log_partition_sum
from .sticks import (
    LengthPrefix,
    SpeciesDriven,
    _extend,
    dsb,
    extend_weights_until,
    sample_lengths_prefix,
    sb_transform,
)

__all__ = [
    "UnivariateNormalGamma",
    "BivariateNormalInvWishart",
    "RandomRho",
    "FitConfig",
    "FitResult",
    "GibbsState",
    "initial_state",
    "update_slices",
    "update_atoms",
    "update_allocations",
    "update_lengths",
    "update_rho",
    "gibbs_sweep",
    "complete_data_log_score",
    "eap_density",
    "map_select",
    "cluster_assign",
    "posterior_kn",
    "fit",
    "default_kernel",
]

LOG_2PI = math.log(2.0 * math.pi)

# step-out width of the slice sampler on logit(rho)
LOGIT_STEP_WIDTH = 2.0

# a split-merge move on two clusters of s data in all is tried with
# probability min(1, SPLIT_MERGE_DATA / s): it reads at most about this many
# data per sweep, a fraction of a sweep's cost on large clusters
SPLIT_MERGE_DATA = 1000

# ---------------------------------------------------------------------------
# conjugate kernels

@dataclass(frozen=True)
class UnivariateNormalGamma:
    """Gaussian kernel N(y | m, 1/tau) with base measure
    N(m | mu0, 1/(lam tau)) Ga(tau | a, b)."""

    mu0: float
    lam: float
    a: float
    b: float

    dim = 1

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.mu0, self.lam, self.a, self.b)):
            raise ValueError("mu0, lam, a, b must be finite")
        if self.lam <= 0 or self.a <= 0 or self.b <= 0:
            raise ValueError("lam, a, b must be positive")

    def sample_prior(self, rng):
        tau = rng.gamma(self.a, 1.0 / self.b)
        m = rng.normal(self.mu0, 1.0 / math.sqrt(self.lam * tau))
        return (m, tau)

    def suff(self, ys):
        """Rows (1, z, z^2), z = y - mu0, one column per datum: a block's
        posterior reads its data only through the row sums."""
        ys = np.asarray(ys, dtype=float).reshape(-1)
        out = np.ones((3, len(ys)))
        np.subtract(ys, self.mu0, out=out[1])
        np.square(out[1], out=out[2])
        return out

    def posterior_params(self, ys, sums=None):
        """(mu_n, lam_n, a_n, b_n) given the block ys, or given the row sums
        of its `suff` in place of ys."""
        if sums is None:
            z = np.asarray(ys, dtype=float).reshape(-1) - self.mu0
            sums = (len(z), z.sum(), z @ z)
        m, z, zz = map(float, sums)
        lam_n = self.lam + m
        return (self.mu0 + z / lam_n, lam_n, self.a + 0.5 * m,
                self.b + 0.5 * (zz - z * z / lam_n))

    def sample_posterior(self, ys, rng, sums=None):
        mu_n, lam_n, a_n, b_n = self.posterior_params(ys, sums)
        tau = rng.gamma(a_n, 1.0 / b_n)
        m = rng.normal(mu_n, 1.0 / math.sqrt(lam_n * tau))
        return (m, tau)

    def central_atom(self, sums):
        """The posterior mean atom given the row sums of a block's `suff`."""
        mu_n, _, a_n, b_n = self.posterior_params(None, sums)
        return (mu_n, a_n / b_n)

    @staticmethod
    def _factors(atoms):
        """Per-atom mean, log normaliser and half precision, each an array
        over the atoms."""
        means = np.array([a[0] for a in atoms])
        taus = np.array([a[1] for a in atoms])
        return means, 0.5 * (np.log(taus) - LOG_2PI), 0.5 * taus

    def log_pdf_matrix(self, data, atoms):
        """(n, K) log densities: the transpose of one atom-major buffer,
        filled in place, so every ufunc runs along the data."""
        y = np.asarray(data, dtype=float).reshape(-1)
        means, lognorm, half_tau = self._factors(atoms)
        out = np.subtract(y, means[:, None])
        np.square(out, out=out)
        np.multiply(half_tau[:, None], out, out=out)
        np.subtract(lognorm[:, None], out, out=out)
        return out.T

    def log_pdf_at(self, data, atoms, d):
        """Log density of each datum at its own atom: row i of
        log_pdf_matrix read at column d[i], with the same arithmetic."""
        y = np.asarray(data, dtype=float).reshape(-1)
        means, lognorm, half_tau = self._factors(atoms)
        z = means[d]
        np.subtract(y, z, out=z)
        np.square(z, out=z)
        scaled = half_tau[d]
        scaled *= z
        np.take(lognorm, d, out=z)
        z -= scaled
        return z

    def log_marginal(self, ys, sums=None):
        """log marginal likelihood of one block of data (or of the row sums
        of its `suff`), the atom integrated out."""
        mu_n, lam_n, a_n, b_n = self.posterior_params(ys, sums)
        m = len(ys) if sums is None else float(sums[0])
        return (math.lgamma(a_n) - math.lgamma(self.a) + 0.5 * math.log(self.lam / lam_n)
                + self.a * math.log(self.b) - a_n * math.log(b_n) - 0.5 * m * LOG_2PI)

    def log_prior_density(self, atom):
        m, tau = atom
        lp = 0.5 * (math.log(self.lam * tau) - LOG_2PI) - 0.5 * self.lam * tau * (m - self.mu0) ** 2
        lp += (self.a * math.log(self.b) - gammaln(self.a)
               + (self.a - 1.0) * math.log(tau) - self.b * tau)
        return float(lp)


def _cholesky2(a11, a21, a22):
    """Lower Cholesky factor (l11, l21, l22) of the symmetric 2x2 matrix
    [[a11, a21], [a21, a22]], or None if it is not positive definite."""
    if not a11 > 0:
        return None
    l11 = math.sqrt(a11)
    l21 = a21 * (1.0 / l11)  # times the reciprocal, as LAPACK's potrf: numpy's bits
    d = a22 - l21 * l21
    if not d > 0:
        return None
    return l11, l21, math.sqrt(d)


def _tril_solve(l11, l21, l22, v1, v2):
    """(z1, z2) = L^-1 (v1, v2) for L = [[l11, 0], [l21, l22]], elementwise
    over arrays."""
    z1 = v1 / l11
    return z1, (v2 - l21 * z1) / l22


def _log_normal2(dx, dy, l11, l21, l22, lognorm):
    """log N2 at the offsets (dx, dy) from the mean, with Sigma = L L^T and
    lognorm = -log(2 pi) - log l11 - log l22; elementwise, so broadcast and
    gathered operands give the same bits."""
    z1, z2 = _tril_solve(l11, l21, l22, dx, dy)
    return lognorm - 0.5 * (z1 * z1 + z2 * z2)


@dataclass(frozen=True)
class BivariateNormalInvWishart:
    """Bivariate Gaussian kernel N2(y | m, Sigma) with Normal-inverse-Wishart
    base: m | Sigma ~ N2(mu0, Sigma/lam), Sigma ~ IW(psi, nu).

    Every density and draw is closed-form 2x2 algebra on the Cholesky factor
    L = [[l11, 0], [l21, l22]] of Sigma."""

    mu0: tuple
    lam: float
    psi: tuple
    nu: float

    dim = 2

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive and finite")
        mu0 = np.asarray(self.mu0, dtype=float)
        if mu0.shape != (2,) or not np.all(np.isfinite(mu0)):
            raise ValueError("mu0 must be two finite numbers")
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (2, 2) or not np.all(np.isfinite(psi)):
            raise ValueError("psi must be a finite 2x2 matrix")
        if not np.allclose(psi, psi.T):
            raise ValueError("psi must be a symmetric 2x2 matrix")
        if _cholesky2(psi[0, 0], psi[1, 0], psi[1, 1]) is None:
            raise ValueError("psi must be positive definite")
        if not (math.isfinite(self.nu) and self.nu > 1):
            raise ValueError("nu must be finite and exceed dimension - 1 = 1")

    def _psi(self):
        return np.asarray(self.psi, dtype=float)

    def _mu0(self):
        return np.asarray(self.mu0, dtype=float)

    def _draw(self, mu, lam, psi, nu, rng):
        """(m, Sigma) with Sigma ~ IW(psi, nu), m ~ N2(mu, Sigma/lam).

        Sigma = X X^T with X = C A^-1, C the Cholesky factor of psi and
        A = [[sqrt(chi2_{nu-1}), 0], [N(0, 1), sqrt(chi2_nu)]]: the Bartlett
        recipe of scipy.stats.invwishart, drawing the same variates in the
        same order."""
        chol = _cholesky2(float(psi[0][0]), float(psi[1][0]), float(psi[1][1]))
        if chol is None:
            raise np.linalg.LinAlgError("posterior scale matrix is not positive definite")
        c11, c21, c22 = chol
        z = rng.normal()
        a1 = math.sqrt(rng.chisquare(nu - 1.0))
        a2 = math.sqrt(rng.chisquare(nu))
        if not (a1 > 0.0 and a2 > 0.0):
            raise np.linalg.LinAlgError("inverse-Wishart draw is not positive definite")
        r1, r2 = 1.0 / a1, 1.0 / a2  # X = C A^-1 by reciprocals, as BLAS's trsm
        x11 = c11 * r1
        x22 = c22 * r2
        x21 = (c21 - x22 * z) * r1
        if not (0.0 < x11 < math.inf and 0.0 < x22 < math.inf and math.isfinite(x21)):
            raise np.linalg.LinAlgError("inverse-Wishart draw is not positive definite")
        s21 = x11 * x21
        sigma = np.array([[x11 * x11, s21], [s21, x21 * x21 + x22 * x22]])
        # sigma is positive definite by construction, so numpy's check is moot
        m = rng.multivariate_normal(mu, sigma / lam, check_valid="ignore")
        return (m, sigma)

    def sample_prior(self, rng):
        return self._draw(self._mu0(), self.lam, self._psi(), self.nu, rng)

    def suff(self, ys):
        """Rows (1, z0, z1, z0^2, z0 z1, z1^2), z = y - mu0, one column per
        datum: a block's posterior reads its data only through the row sums."""
        z = (np.asarray(ys, dtype=float).reshape(-1, 2) - self._mu0()).T
        out = np.ones((6, z.shape[1]))
        out[1:3] = z
        np.multiply(z, z[0], out=out[3:5])
        np.multiply(z[1], z[1], out=out[5])
        return out

    def posterior_params(self, ys, sums=None):
        """(mu_n, lam_n, psi_n, nu_n) given the block ys, or given the row
        sums of its `suff` in place of ys."""
        if sums is None:
            z = np.asarray(ys, dtype=float).reshape(-1, 2) - self._mu0()
            s = z.T @ z
            sums = (len(z), *z.sum(axis=0), s[0, 0], s[0, 1], s[1, 1])
        m, z0, z1, z00, z01, z11 = map(float, sums)
        lam_n = self.lam + m
        (p00, p01), (p10, p11) = self.psi
        psi_n = np.array([[p00 + z00 - z0 * z0 / lam_n, p01 + z01 - z0 * z1 / lam_n],
                          [p10 + z01 - z0 * z1 / lam_n, p11 + z11 - z1 * z1 / lam_n]])
        return (self._mu0() + np.array([z0, z1]) / lam_n, lam_n, psi_n, self.nu + m)

    def sample_posterior(self, ys, rng, sums=None):
        mu_n, lam_n, psi_n, nu_n = self.posterior_params(ys, sums)
        return self._draw(mu_n, lam_n, psi_n, nu_n, rng)

    def central_atom(self, sums):
        """The posterior mean location with the posterior mode of Sigma,
        psi_n / (nu_n + 3), given the row sums of a block's `suff`."""
        mu_n, _, psi_n, nu_n = self.posterior_params(None, sums)
        return (mu_n, psi_n / (nu_n + 3.0))

    @staticmethod
    def _factors(atoms):
        """Per-atom mean coordinates, Cholesky entries of Sigma and log
        normaliser, each an array over the atoms."""
        means = np.array([a[0] for a in atoms], dtype=float).reshape(-1, 2)
        sigmas = np.array([a[1] for a in atoms], dtype=float).reshape(-1, 2, 2)
        l11 = np.sqrt(sigmas[:, 0, 0])
        l21 = sigmas[:, 1, 0] * (1.0 / l11)  # as in _cholesky2
        l22 = np.sqrt(sigmas[:, 1, 1] - l21 * l21)
        lognorm = -LOG_2PI - np.log(l11) - np.log(l22)
        return means[:, 0], means[:, 1], l11, l21, l22, lognorm

    def log_pdf_matrix(self, data, atoms):
        """(n, K) log densities: the transpose of one atom-major buffer,
        filled in place with _log_normal2's operations in its order.  The
        second buffer holds z2; z1 is computed twice, so that no third
        buffer is needed."""
        y0, y1 = np.asarray(data, dtype=float).reshape(-1, 2).T
        mx, my, l11, l21, l22, lognorm = (f[:, None] for f in self._factors(atoms))
        z1 = np.subtract(y0, mx)
        z1 /= l11
        z1 *= l21
        z2 = np.subtract(y1, my)
        z2 -= z1
        z2 /= l22
        z2 *= z2
        np.subtract(y0, mx, out=z1)
        z1 /= l11
        z1 *= z1
        z1 += z2
        z1 *= 0.5
        np.subtract(lognorm, z1, out=z1)
        return z1.T

    def log_pdf_at(self, data, atoms, d):
        """Log density of each datum at its own atom: row i of
        log_pdf_matrix read at column d[i], with the same arithmetic."""
        y = np.asarray(data, dtype=float).reshape(-1, 2)
        mx, my, *scale = self._factors(atoms)
        return _log_normal2(y[:, 0] - mx[d], y[:, 1] - my[d], *(f[d] for f in scale))

    def log_marginal(self, ys, sums=None):
        """log marginal likelihood of one block of data (or of the row sums
        of its `suff`), the atom integrated out:
        pi^-m Gamma_2(nu_n/2) / Gamma_2(nu/2) |psi|^(nu/2) / |psi_n|^(nu_n/2) lam / lam_n."""
        _, lam_n, psi_n, nu_n = self.posterior_params(ys, sums)
        psi, nu = self._psi(), self.nu
        log_det = math.log(psi[0, 0] * psi[1, 1] - psi[0, 1] * psi[1, 0])
        log_det_n = math.log(psi_n[0, 0] * psi_n[1, 1] - psi_n[0, 1] * psi_n[1, 0])
        return (math.lgamma(0.5 * nu_n) + math.lgamma(0.5 * nu_n - 0.5)
                - math.lgamma(0.5 * nu) - math.lgamma(0.5 * nu - 0.5)
                + 0.5 * (nu * log_det - nu_n * log_det_n) + math.log(self.lam / lam_n)
                - (nu_n - nu) * math.log(math.pi))

    def log_prior_density(self, atom):
        """log N2(m | mu0, Sigma/lam) + log IW(Sigma | psi, nu), where for
        p = 2: log IW = (nu/2) log|psi| - nu log 2 - log Gamma_2(nu/2)
        - ((nu+3)/2) log|Sigma| - tr(psi Sigma^-1)/2."""
        m, sigma = atom
        s11, s21, s22 = sigma[0][0], sigma[1][0], sigma[1][1]
        chol = _cholesky2(s11, s21, s22)
        cov = _cholesky2(s11 / self.lam, s21 / self.lam, s22 / self.lam)
        if chol is None or cov is None:
            raise np.linalg.LinAlgError("Sigma is not positive definite")
        lp = _log_normal2(m[0] - self.mu0[0], m[1] - self.mu0[1], *cov,
                          -LOG_2PI - math.log(cov[0]) - math.log(cov[2]))
        l11, l21, l22 = chol
        log_det = 2.0 * (math.log(l11) + math.log(l22))
        # tr(psi Sigma^-1) = |L^-1 C|_F^2 with C the Cholesky factor of psi
        c11, c21, c22 = _cholesky2(self.psi[0][0], self.psi[1][0], self.psi[1][1])
        y11, y21 = _tril_solve(l11, l21, l22, c11, c21)
        y22 = c22 / l22
        trace = y11 * y11 + y21 * y21 + y22 * y22
        nu = self.nu
        log_gamma2 = 0.5 * math.log(math.pi) + math.lgamma(0.5 * nu) + math.lgamma(0.5 * nu - 0.5)
        lp += (nu * (math.log(c11) + math.log(c22)) - nu * math.log(2.0) - log_gamma2
               - 0.5 * (nu + 3.0) * log_det - 0.5 * trace)
        return float(lp)


MixtureKernel = Union[UnivariateNormalGamma, BivariateNormalInvWishart]


def default_kernel(data: np.ndarray) -> MixtureKernel:
    """Kernel with the reference hyperparameters: shapes 0.5, relative
    precision 1/100, location centred at the sample mean (identity scale
    matrix and 2 degrees of freedom in the bivariate case)."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        return UnivariateNormalGamma(mu0=float(data.mean()), lam=0.01, a=0.5, b=0.5)
    if data.ndim == 2 and data.shape[1] == 2:
        return BivariateNormalInvWishart(
            mu0=tuple(data.mean(axis=0)), lam=0.01, psi=((1.0, 0.0), (0.0, 1.0)), nu=2.0
        )
    raise ValueError("data must be univariate or bivariate")


# ---------------------------------------------------------------------------
# configuration and state

@dataclass(frozen=True)
class RandomRho:
    """Dirichlet-driven prior with Be(1, theta) base and a uniform prior on
    the tie probability rho, so beta = (1 - rho)/rho is resampled each sweep."""

    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError("theta must be positive and finite")


PriorSpec = Union[SpeciesDriven, RandomRho]


@dataclass
class FitConfig:
    prior: PriorSpec
    kernel: MixtureKernel
    iterations: int = 10_000
    burn_in: int = 2_000
    thin: int = 4
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.prior, (SpeciesDriven, RandomRho)):
            raise TypeError(
                f"prior must be a SpeciesDriven or RandomRho, got {type(self.prior).__name__}")
        for name in ("iterations", "burn_in", "thin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("need 0 <= burn_in < iterations")


@dataclass
class GibbsState:
    """All latent state of one chain. d is 0-based; weights is the cached
    stick-breaking transform of the length values; infeasible_slices counts
    the class values `update_lengths` redrew; map_score is the collapsed
    score `fit` stores on a retained snapshot (`map_select`)."""

    u: np.ndarray
    d: np.ndarray
    lengths: LengthPrefix
    weights: np.ndarray
    atoms: list
    rho: Optional[float] = None
    log_score: float = float("nan")
    infeasible_slices: int = 0
    map_score: float = float("nan")

    @property
    def phi(self) -> int:
        return len(self.lengths)

    def kn(self) -> int:
        return int(np.count_nonzero(np.bincount(self.d))) if len(self.d) else 0

    def snapshot(self) -> "GibbsState":
        return replace(self, u=self.u.copy(), d=self.d.copy(), lengths=self.lengths.copy(),
                       weights=self.weights.copy(), atoms=list(self.atoms))

    def validate(self) -> None:
        self.lengths.validate()
        w = sb_transform(self.lengths.values)
        if np.max(np.abs(w - self.weights), initial=0.0) > 1e-12:
            raise ValueError("cached weights inconsistent with lengths")
        if len(self.atoms) < self.phi:
            raise ValueError("fewer atoms than sticks")
        if len(self.u):
            if np.any(self.u >= self.weights[self.d]):
                raise ValueError("slice invariant u_k < w_{d_k} violated")
            if self.weights.sum() < np.max(1.0 - self.u) - 1e-12:
                raise ValueError("truncation level too small for the slices")


def _resolve(prior: PriorSpec, rho: Optional[float]) -> SpeciesDriven:
    """The length law of the current sweep."""
    if isinstance(prior, RandomRho):
        if rho is None or not (0.0 < rho < 1.0):
            raise ValueError("RandomRho prior needs rho in (0, 1)")
        return dsb((1.0 - rho) / rho, prior.theta)
    return prior


def initial_state(data: np.ndarray, config: FitConfig, rng: np.random.Generator) -> GibbsState:
    """Everything in one component to start; the first sweeps expand it."""
    n = len(data)
    rho = None
    if isinstance(config.prior, RandomRho):
        rho = min(max(rng.random(), 1e-12), 1.0 - 1e-12)
    lengths = sample_lengths_prefix(_resolve(config.prior, rho), 1, rng)
    weights = sb_transform(lengths.values)
    atoms = [config.kernel.sample_prior(rng)]
    state = GibbsState(u=np.zeros(n), d=np.zeros(n, dtype=np.int64), lengths=lengths,
                       weights=weights, atoms=atoms, rho=rho)
    return update_slices(state, rng)


# ---------------------------------------------------------------------------
# Gibbs steps

def update_slices(state: GibbsState, rng: np.random.Generator) -> GibbsState:
    if len(state.u):
        r = rng.random(len(state.u))
        r[r == 0.0] = 0.5  # keep u strictly positive
        r *= state.weights[state.d]
        state.u = r
    return state


def _truncate_prefix(prefix: LengthPrefix, keep: int) -> LengthPrefix:
    """First `keep` positions of the prefix, slots renumbered by order of
    first appearance; the tie structure is carried over, not rebuilt from
    float comparisons."""
    out = LengthPrefix()
    slot_map = {}
    for pos in range(keep):
        old_slot = prefix.atom_index[pos]
        if old_slot not in slot_map:
            slot_map[old_slot] = len(slot_map)
            out.append(slot_map[old_slot], prefix.distinct[old_slot])
        else:
            out.append(slot_map[old_slot])
    return out


def ensure_truncation(
    state: GibbsState,
    spec: SpeciesDriven,
    kernel: MixtureKernel,
    rng: np.random.Generator,
    min_phi: int = 1,
) -> GibbsState:
    """Resize the instantiated sticks/atoms so the weight prefix covers
    max_k(1 - u_k): extend with conditional prior draws (atoms from the base
    measure), and trim sticks the slices no longer reach."""
    threshold = float(np.max(1.0 - state.u)) if len(state.u) else 0.0
    prefix = state.lengths

    prefix, weights = extend_weights_until(prefix, spec, min(threshold, 1.0 - 1e-15), rng)
    if len(prefix) < min_phi:
        _extend(prefix, spec, min_phi - len(prefix), rng)
        weights = sb_transform(prefix.values)

    # smallest prefix still covering the slices (never below an allocated slot)
    cum = np.cumsum(weights)
    needed = int(np.searchsorted(cum, threshold)) + 1 if threshold > 0 else 1
    keep = max(needed, min_phi, (int(state.d.max()) + 1) if len(state.d) else 1)
    keep = min(keep, len(prefix))
    if keep < len(prefix):
        prefix = _truncate_prefix(prefix, keep)
        weights = sb_transform(prefix.values)

    while len(state.atoms) < len(prefix):
        state.atoms.append(kernel.sample_prior(rng))
    del state.atoms[len(prefix):]

    state.lengths = prefix
    state.weights = weights
    return state


def _blocks(data, d, phi):
    """The data of each of the phi sticks in data order, by one stable sort
    by allocation.  Labels in the narrowest type that holds them make the
    sort a radix sort (up to 65536 sticks)."""
    counts = np.bincount(d, minlength=phi)
    order = np.argsort(d.astype(np.min_scalar_type(len(counts))), kind="stable")
    return np.split(data[order], np.cumsum(counts)[:-1])


def update_atoms(state: GibbsState, data, kernel: MixtureKernel, rng) -> GibbsState:
    """Draw each stick's atom from its conjugate posterior given the data
    allocated to it; an empty stick takes a prior draw.  One stable sort by
    allocation lays every block out contiguously in data order."""
    blocks = _blocks(np.asarray(data, dtype=float), state.d, state.phi)
    for j, ys in enumerate(blocks):
        state.atoms[j] = kernel.sample_posterior(ys, rng)
    return state


def update_allocations(state: GibbsState, data, kernel: MixtureKernel, rng) -> GibbsState:
    """Draw each allocation from p(d_k = j) ∝ K(y_k | theta_j) 1{u_k < w_j}.

    Datum k admits exactly the sticks heavier than u_k (Walker 2007; Kalli,
    Griffin & Walker 2011).  A datum with u_k at or above the second largest
    weight admits only the heaviest stick and takes it unevaluated.  The m
    others share one pass over the K sticks heavier than the smallest slice,
    kept in stick order, masked per datum and laid out stick-major, so every
    reduction runs over contiguous length-m vectors; the cost is O(n + m K),
    not O(n phi).  The pass works in place in the kernel's one K x m buffer,
    and only admissible entries reach the peak and `exp`: masked-out entries
    never meet numpy's slow paths for -inf and subnormal results.  Each
    draw inverts its own running sums: the uniform is scaled by the last of
    them, which is at least 1 (the peak stick's term) and exceeds the scaled
    uniform, and inadmissible sticks add exact zeros, so the first running
    sum above the draw is a stick of positive probability.
    """
    n = len(state.u)
    if n == 0:
        return state
    phi = state.phi
    weights = state.weights
    u = state.u
    by_weight = weights.argsort()
    if not u.max() < weights[by_weight[-1]]:
        raise RuntimeError("empty slice support: truncation level too small")
    uniforms = rng.random(n)
    # the heaviest stick is unique whenever some datum admits it alone
    d = by_weight[-1:].repeat(n)
    multi = (u < weights[by_weight[-2]]).nonzero()[0] if phi > 1 else ()
    if len(multi) == 0:
        state.d = d
        return state

    top = (weights > u.min()).nonzero()[0]
    y = np.asarray(data, dtype=float)[multi]
    # the kernel's (m, K) matrix is the transpose of its stick-major buffer,
    # which becomes the running sums in place
    cum = kernel.log_pdf_matrix(y, [state.atoms[j] for j in top]).T
    admissible = weights[top][:, None] > u[multi]
    cum -= np.max(cum, axis=0, where=admissible, initial=-np.inf)
    np.exp(cum, out=cum, where=admissible)
    np.putmask(cum, ~admissible, 0.0)
    for i in range(1, len(top)):
        cum[i] += cum[i - 1]
    draws = uniforms[multi] * cum[-1]
    # a count below len(top) fits the narrowest type that holds len(top)
    d[multi] = top[(cum <= draws).sum(axis=0, dtype=np.min_scalar_type(len(top)))]
    state.d = d
    return state


def _beta_logpdf(x, a, b):
    """log Be(x | a, b), the expression scipy.stats.beta evaluates."""
    return xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x) - betaln(a, b)


def _log_beta(x, y):
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def update_lengths(state: GibbsState, spec: SpeciesDriven, rng: np.random.Generator) -> GibbsState:
    """Draw the lengths of the sticks up to the last occupied one,
    k = max d + 1, given the allocations, with the slices and the later
    sticks integrated out: a partially collapsed Gibbs step (van Dyk & Park
    2008).

    With r_j the data on stick j, t_j those on later sticks, and N_s, M_s
    their sums over tie class s, the partition has the law
    p(pi | d) ∝ EPPF(pi) prod_s B(a + N_s, b + M_s) / B(a, b).  One pass of
    Neal's (2000) algorithm 3 moves each position j: it joins class s (sums
    without j) with weight existing_s B(a+N_s+r_j, b+M_s+t_j) / B(a+N_s, b+M_s)
    or opens one with weight new_w B(a+r_j, b+t_j) / B(a, b), (existing,
    new_w) the prediction-rule weights.  Each class value is then drawn
    exactly from Be(a + N_s, b + M_s), and redrawn, counted in
    infeasible_slices, if it rounds onto 0 or 1 or equals another's.  The
    sticks past k are drawn again from the prediction rule, as many as there
    were, keeping their atoms: given d those are prior draws apart from the
    lengths."""
    a, b = spec.base_a, spec.base_b
    n = len(state.d)
    k = int(state.d.max()) + 1 if n else 1
    r = np.bincount(state.d, minlength=k)
    t = (n - np.cumsum(r)).tolist()
    r = r.tolist()
    prefix = _truncate_prefix(state.lengths, k)
    slots, counts = prefix.atom_index, prefix.counts
    sum_r, sum_t = [0] * len(counts), [0] * len(counts)
    for s, r_j, t_j in zip(slots, r, t):
        sum_r[s] += r_j
        sum_t[s] += t_j
    # log B(a + N_s, b + M_s) per slot, kept current as positions move
    log_b = [_log_beta(a + n_s, b + m_s) for n_s, m_s in zip(sum_r, sum_t)]
    log_b0 = _log_beta(a, b)

    def move(j, s, sign):
        counts[s] += sign
        sum_r[s] += sign * r[j]
        sum_t[s] += sign * t[j]
        log_b[s] = _log_beta(a + sum_r[s], b + sum_t[s])

    for j, (r_j, t_j) in enumerate(zip(r, t)):
        move(j, slots[j], -1)
        active = [c for c, m in enumerate(counts) if m]
        existing, new_w = spec.eppf.prediction_weights([counts[c] for c in active])
        logs = [math.log(p) + _log_beta(a + sum_r[c] + r_j, b + sum_t[c] + t_j) - log_b[c]
                if p > 0.0 else -math.inf for c, p in zip(active, existing.tolist())]
        logs.append(math.log(new_w) + _log_beta(a + r_j, b + t_j) - log_b0
                    if new_w > 0.0 else -math.inf)
        top = max(logs)
        weights = [math.exp(x - top) for x in logs]
        # pick < sum(weights), the last running sum, so the loop always breaks
        pick = rng.random() * sum(weights)
        acc = 0.0
        for choice, weight in enumerate(weights):
            acc += weight
            if pick < acc:
                break
        s = slots[j]
        if choice < len(active):
            s = active[choice]
        elif counts[s]:  # a new class, in position j's own slot if j left it empty
            s = len(counts)
            for seq in (prefix.distinct, counts, sum_r, sum_t, log_b):
                seq.append(0)
        slots[j] = s
        move(j, s, 1)

    drawn = []
    for s in dict.fromkeys(slots):  # the classes in order of first appearance
        x = rng.beta(a + sum_r[s], b + sum_t[s])
        while not 0.0 < x < 1.0 or x in drawn:
            state.infeasible_slices += 1
            x = rng.beta(a + sum_r[s], b + sum_t[s])
        drawn.append(x)
        prefix.distinct[s] = x
    # drop emptied slots, renumbering in order of first appearance
    prefix = _truncate_prefix(prefix, k)
    if state.phi > k:
        _extend(prefix, spec, state.phi - k, rng)
    state.lengths = prefix
    state.weights = sb_transform(prefix.values)
    return state


def _swap_labels(state: GibbsState, spec: SpeciesDriven, kernel: MixtureKernel,
                 rng: np.random.Generator) -> None:
    """Label swaps (Papaspiliopoulos & Roberts 2008) with the slices
    integrated out: for j = 0, 1, ... in turn, sticks j and j + 1 exchange
    lengths, atoms and data labels with probability
    min(1, (1 - v_{j+1})^{n_j} / (1 - v_j)^{n_{j+1}}), the lengths being
    exchangeable.  Two empty sticks are left as they are, so the scan ends
    at the last occupied stick, drawing one more stick and atom from the
    prior if a cluster moves past the instantiated ones.  An empty stick
    before an occupied one always swaps, so clusters close up the empty
    sticks that the length step leaves short between them."""
    n = np.bincount(state.d, minlength=state.phi).tolist()
    slots, values = state.lengths.atom_index, state.lengths.distinct
    at = list(range(state.phi))  # the stick now at each position
    j = 0
    while any(n[j:]):
        if j + 1 == len(at):
            _extend(state.lengths, spec, 1, rng)
            state.atoms.append(kernel.sample_prior(rng))
            n.append(0)
            at.append(j + 1)
        if n[j] or n[j + 1]:
            log_r = (n[j] * math.log1p(-values[slots[j + 1]])
                     - n[j + 1] * math.log1p(-values[slots[j]]))
            if log_r >= 0.0 or rng.random() < math.exp(log_r):
                for seq in (n, slots, state.atoms, at):
                    seq[j], seq[j + 1] = seq[j + 1], seq[j]
        j += 1
    if at != list(range(state.phi)) or len(at) > len(state.weights):
        position = np.empty(len(at), dtype=np.int64)
        position[at] = np.arange(len(at))
        state.d = position[state.d]
        state.weights = sb_transform(state.lengths.values)


def _split_merge(state: GibbsState, data: np.ndarray, spec: SpeciesDriven,
                 kernel: MixtureKernel, rng: np.random.Generator) -> None:
    """One split-merge move (Jain & Neal 2004) on the allocations given the
    tie partition of the lengths, with the length values, the slices and the
    atoms of the two sticks integrated out: its target is
    prod_s B(a + N_s, b + M_s) prod_j m(y_{S_j}), in the notation of
    `update_lengths`, which then moves the partition given the new d.

    Two data i != l are drawn.  If both are on stick c, l and part of c move
    to an empty stick e, drawn uniformly from the empty sticks up to one past
    the last occupied (a stick past the instantiated ones is drawn from the
    prior first); if they are on sticks c and e, e merges into c.  Each other
    datum of the two clusters goes to e with probability
    K(y | theta_e) / (K(y | theta_c) + K(y | theta_e)), the launch atoms the
    posterior centres of the data nearer to y_i and of those nearer to y_l:
    they depend only on i, l and the union of the two clusters, so a merge
    replays the proposal of its reverse split.  An accepted move draws both
    atoms from their posteriors (the emptied stick's from the prior)."""
    n = len(state.d)
    if n < 2:
        return
    d = state.d
    i = int(rng.integers(n))
    l = int(rng.integers(n - 1))
    l += l >= i
    c, e = int(d[i]), int(d[l])
    split = c == e
    merged = np.bincount(d)
    if not split:
        merged[c] += merged[e]
        merged[e] = 0
        merged = merged[:merged.nonzero()[0][-1] + 1]
    if rng.random() * merged[c] >= SPLIT_MERGE_DATA:
        return
    empty = (merged == 0).nonzero()[0].tolist() + [len(merged)]
    if split:
        e = empty[int(rng.integers(len(empty)))]
        if e == state.phi:
            _extend(state.lengths, spec, 1, rng)
            state.atoms.append(kernel.sample_prior(rng))
    elif e > len(merged):  # the reverse split cannot pick e
        return

    members = ((d == c) if split else (d == c) | (d == e)).nonzero()[0]
    pos_i, pos_l = members.searchsorted((i, l))
    ys = data[members]
    stats = kernel.suff(ys)
    total = stats.sum(axis=1)

    def proposal():
        """The log odds of stick e per datum, those of the anchors pinned."""
        z = stats[1:1 + kernel.dim]  # the data about mu0, one row per coordinate
        proj = (z[:, pos_l] - z[:, pos_i]) @ z
        near_l = proj > 0.5 * (proj[pos_i] + proj[pos_l])  # nearer to y_l than to y_i
        near_l[pos_i], near_l[pos_l] = False, True
        sums = stats @ near_l
        logp = kernel.log_pdf_matrix(ys, [kernel.central_atom(total - sums),
                                          kernel.central_atom(sums)])
        diff = logp[:, 1] - logp[:, 0]
        # log odds past 700 are proposed as 700: exp(-700) is still a normal
        # float, and subnormal results take numpy's slow path
        diff[[pos_i, pos_l]] = -700.0, 700.0
        return diff, np.minimum(np.abs(diff), 700.0)

    if split:
        diff, odds = proposal()
        tail = np.exp(-odds)  # the odds of the less likely side
        to_e = (diff > 0.0) != (rng.random(len(ys)) * (1.0 + tail) < tail)
        to_e[pos_i], to_e[pos_l] = False, True
    else:
        to_e = d[members] == e
    moved = stats @ to_e
    kept = total - moved
    a, b = spec.base_a, spec.base_b

    def log_b(r):
        """sum_s log B(a + N_s, b + M_s) over the tie classes, given the
        per-stick counts r: scalar arithmetic, as k is small."""
        sums, left = {}, n
        for s, r_j in zip(state.lengths.atom_index, r):
            left -= r_j
            n_s, m_s = sums.get(s, (0, 0))
            sums[s] = (n_s + r_j, m_s + left)
        return sum(_log_beta(a + n_s, b + m_s) for n_s, m_s in sums.values())

    # the per-stick counts of the merged and of the split allocation
    r = merged.tolist() + [0] * (e + 1 - len(merged))
    parts = list(r)
    parts[c] -= int(moved[0])
    parts[e] += int(moved[0])
    log_ratio = (kernel.log_marginal(None, kept) + kernel.log_marginal(None, moved)
                 - kernel.log_marginal(None, total) + log_b(parts) - log_b(r)
                 + math.log(len(empty)))
    threshold = -rng.exponential()
    if not split:
        if threshold >= -log_ratio:  # log q <= 0 bounds the merge's ratio
            return
        diff, odds = proposal()
        tail = np.exp(-odds)
    # log q: log(1 / (1 + tail)) per datum, less the odds where it took the less likely side
    log_q = -float(np.log1p(tail).sum()) - float(odds @ (to_e != (diff > 0.0)))
    if threshold >= (log_ratio - log_q if split else log_q - log_ratio):
        return
    if split:
        d[members[to_e]] = e
        state.atoms[c] = kernel.sample_posterior(None, rng, kept)
        state.atoms[e] = kernel.sample_posterior(None, rng, moved)
    else:
        d[members] = c
        state.atoms[c] = kernel.sample_posterior(None, rng, total)
        state.atoms[e] = kernel.sample_prior(rng)


def _rho_log_conditional(rho, m, k_distinct):
    if not 0.0 < rho < 1.0:
        return -np.inf
    lp = (k_distinct - 1) * math.log1p(-rho) + (m - k_distinct) * math.log(rho)
    if m >= 2:
        lp -= float(np.sum(np.log1p(np.arange(m - 1) * rho)))
    return lp


def _slice_sample_logit(x0, log_f, rng):
    """One slice-sampling move from x0 (Neal 2003): step out without a
    limit, which ends because log_f falls to -inf at both ends, then shrink."""
    y = log_f(x0) - rng.exponential()
    left = x0 - LOGIT_STEP_WIDTH * rng.random()
    right = left + LOGIT_STEP_WIDTH
    while log_f(left) > y:
        left -= LOGIT_STEP_WIDTH
    while log_f(right) > y:
        right += LOGIT_STEP_WIDTH
    while True:
        x1 = left + rng.random() * (right - left)
        if log_f(x1) > y:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1


def update_rho(state: GibbsState, rng: np.random.Generator) -> GibbsState:
    """Resample the tie probability from its full conditional given the tie
    pattern of the instantiated lengths, by slice sampling on the logit scale."""
    m = state.phi
    k_distinct = len(state.lengths.distinct)

    def log_f(x):
        if x < -700.0:
            # rho < 1e-304 and e^-x nears overflow: the support ends here, as
            # it ends at x = 37 on the right, where rho rounds to 1.0
            return -np.inf
        rho = 1.0 / (1.0 + math.exp(-x))
        lp = _rho_log_conditional(rho, m, k_distinct)
        if lp == -np.inf:
            return -np.inf
        return lp + math.log(rho) + math.log1p(-rho)  # logit Jacobian

    x0 = math.log(state.rho / (1.0 - state.rho))
    x1 = _slice_sample_logit(x0, log_f, rng)
    state.rho = 1.0 / (1.0 + math.exp(-x1))
    return state


def complete_data_log_score(
    state: GibbsState,
    data,
    kernel: MixtureKernel,
    spec: SpeciesDriven,
) -> float:
    """log of the complete-data likelihood times the prior density of the
    instantiated sticks and atoms; -inf if any slice indicator is violated."""
    n = len(state.u)
    score = 0.0
    if n:
        if np.any(state.u >= state.weights[state.d]):
            return -np.inf
        score += float(kernel.log_pdf_at(data, state.atoms[: state.phi], state.d).sum())
    for atom in state.atoms[: state.phi]:
        score += kernel.log_prior_density(atom)
    lp = spec.eppf.log_eppf(state.lengths.counts)
    if lp == -np.inf:
        return -np.inf
    score += lp
    distinct = np.asarray(state.lengths.distinct)
    score += float(np.sum(_beta_logpdf(distinct, spec.base_a, spec.base_b)))
    return score


def gibbs_sweep(
    state: GibbsState,
    data,
    config: FitConfig,
    rng: np.random.Generator,
    min_phi: int = 1,
) -> GibbsState:
    """One full sweep; restores every state invariant before returning.  The
    split-merge move, the lengths and the label swaps come first, with the
    slices integrated out, so that the slices drawn next need one
    truncation step."""
    spec = _resolve(config.prior, state.rho)
    kernel = config.kernel
    _split_merge(state, np.asarray(data, dtype=float), spec, kernel, rng)
    update_lengths(state, spec, rng)
    _swap_labels(state, spec, kernel, rng)
    update_slices(state, rng)
    ensure_truncation(state, spec, kernel, rng, min_phi=min_phi)
    update_allocations(state, data, kernel, rng)
    update_atoms(state, data, kernel, rng)
    if isinstance(config.prior, RandomRho):
        update_rho(state, rng)
        spec = _resolve(config.prior, state.rho)
    state.log_score = complete_data_log_score(state, data, kernel, spec)
    return state


# ---------------------------------------------------------------------------
# posterior estimators

def _admissibility_coefficients(sample: GibbsState) -> np.ndarray:
    """Per-component coefficient (1/n) sum_k 1{j in A_k} / |A_k| with
    A_k = {j : u_k < w_j}, the sticks heavier than u_k: prefix sums of
    1/|A_k| over the sorted slices, with no n x phi array."""
    u = np.sort(sample.u)
    w = sample.weights
    sizes = len(w) - np.searchsorted(np.sort(w), u, side="right")
    if sizes[-1] == 0:
        raise RuntimeError("a datum has no admissible component")
    share = np.concatenate(([0.0], np.cumsum(1.0 / sizes)))
    return share[np.searchsorted(u, w, side="left")] / len(u)


def eap_density(samples: Sequence[GibbsState], kernel: MixtureKernel, grid) -> np.ndarray:
    """Expected-a-posteriori density on the grid: the average over sweeps and
    data of the admissible-component mixture, one log_pdf_matrix call per
    sweep over the components with a positive coefficient."""
    if len(samples) == 0:
        raise ValueError("need at least one retained sweep")
    grid = np.asarray(grid, dtype=float)
    out = np.zeros(grid.shape[0])
    for sample in samples:
        coef = _admissibility_coefficients(sample)
        used = np.flatnonzero(coef)
        dens = kernel.log_pdf_matrix(grid, [sample.atoms[j] for j in used])
        np.exp(dens, out=dens)
        out += dens @ coef[used]
    return out / len(samples)


def map_select(samples) -> int:
    """Index of the sweep with the highest collapsed score (`map_score`, which
    `fit` stores); sweeps without one are left out, and if none has one, the
    highest complete-data `log_score` wins.  The earliest sweep wins ties."""
    if len(samples) == 0:
        raise ValueError("need at least one retained sweep")
    scored = [i for i, s in enumerate(samples) if not math.isnan(s.map_score)]
    if scored:
        return max(scored, key=lambda i: (samples[i].map_score, -i))
    return max(range(len(samples)), key=lambda i: (samples[i].log_score, -i))


def cluster_assign(sample: GibbsState, data, kernel: MixtureKernel) -> np.ndarray:
    """Cluster labels from one sweep: each datum goes to the admissible
    component with the highest coefficient-weighted density at that datum
    (smallest index on ties)."""
    coef = _admissibility_coefficients(sample)
    logp = kernel.log_pdf_matrix(data, sample.atoms[: sample.phi])
    with np.errstate(divide="ignore"):
        scores = np.log(coef)[None, :] + logp
    return np.argmax(scores, axis=1)


def posterior_kn(result: "FitResult") -> KnSummary:
    """Empirical pmf of the distinct-allocation count over every retained
    sweep of a fit (its trace), not only the thinned snapshots."""
    if len(result.trace) == 0:
        raise ValueError("need at least one retained sweep")
    counts = Counter(rec.kn for rec in result.trace)
    total = len(result.trace)
    pmf = {k: c / total for k, c in sorted(counts.items())}
    return KnSummary(n=len(result.samples[0].d), pmf=pmf, replicates=total)


# ---------------------------------------------------------------------------
# driver

@dataclass
class TraceRecord:
    sweep: int
    kn: int
    rho: Optional[float]
    log_score: float


@dataclass
class FitResult:
    """Retained snapshots and trace of one chain; infeasible_slices is its
    count of redrawn class values (`GibbsState`), and unscored_samples the
    snapshots without a collapsed score (max d above ENUMERATION_CAP)."""

    samples: List[GibbsState]
    trace: List[TraceRecord]
    config: FitConfig
    infeasible_slices: int = 0
    unscored_samples: int = 0


def _score_samples(samples, data, config) -> int:
    """Store on each snapshot its collapsed score log P[d | rho] + sum_j
    log m(y_{S_j}), with P the exact allocation probability (cached on the
    counts, all it reads) and m the block marginal; return how many
    snapshots go unscored because max d exceeds ENUMERATION_CAP."""
    cache = {}
    unscored = 0
    for sample in samples:
        r = np.bincount(sample.d)
        if len(r) > ENUMERATION_CAP:
            unscored += 1
            continue
        key = (tuple(r.tolist()), sample.rho)
        if key not in cache:
            spec = _resolve(config.prior, sample.rho)
            cache[key] = _log_partition_sum(r, len(sample.d) - np.cumsum(r), spec.eppf,
                                            spec.base_a, spec.base_b)
        sample.map_score = cache[key] + sum(config.kernel.log_marginal(ys)
                                            for ys in _blocks(data, sample.d, len(r)))
    return unscored


def fit(
    data,
    config: FitConfig,
    check_invariants: bool = False,
) -> FitResult:
    """Run the sampler from default_rng(config.seed): burn-in then retained
    sweeps.  Every retained sweep emits a trace record; every thin-th retained
    sweep is stored in full, with its collapsed score (`map_select`)."""
    data = np.asarray(data, dtype=float)
    expected_dim = config.kernel.dim
    if expected_dim == 1 and data.ndim != 1:
        raise ValueError("univariate kernel needs 1-d data")
    if expected_dim == 2 and (data.ndim != 2 or data.shape[1] != 2):
        raise ValueError("bivariate kernel needs (n, 2) data")
    if len(data) == 0:
        raise ValueError("empty dataset")
    if not np.all(np.isfinite(data)):
        raise ValueError("data contain NaN or infinite values")
    rng = np.random.default_rng(config.seed)
    state = initial_state(data, config, rng)
    samples: List[GibbsState] = []
    trace: List[TraceRecord] = []
    for sweep in range(config.iterations):
        gibbs_sweep(state, data, config, rng)
        if check_invariants:
            state.validate()
        if sweep < config.burn_in:
            continue
        rec = TraceRecord(sweep=sweep, kn=state.kn(), rho=state.rho, log_score=state.log_score)
        trace.append(rec)
        if (sweep - config.burn_in) % config.thin == 0:
            samples.append(state.snapshot())
    unscored = _score_samples(samples, data, config)
    return FitResult(samples=samples, trace=trace, config=config,
                     infeasible_slices=state.infeasible_slices, unscored_samples=unscored)
