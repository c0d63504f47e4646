"""Slice-within-Gibbs sampler for mixture density estimation under
stick-breaking priors with exchangeable length variables.

One sweep updates: slice variables, the truncation level (extending sticks
and atoms as far as the slices require), length variables (with their tie
structure), allocations, kernel atoms, and optionally the tie probability.
The length conditionals read the slices only through the per-stick maxima
U_max[l] = max{u_k : d_k = l}, so they cost O(phi) per stick, not O(n).  The
length step runs on Python floats: after the O(n) pass for the maxima, a call
costs O(phi^2) scalar operations for the per-position conditionals plus at
most O(phi) per tie-class refresh trial, with no array built per move.
Posterior summaries (EAP density, MAP sweep, clusters, K_n) are computed
from retained sweeps.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln, xlog1py, xlogy

from .analytics import KnSummary
from .eppf import IdenticalDegenerate
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

    def posterior_params(self, ys: np.ndarray):
        m = len(ys)
        if m == 0:
            return (self.mu0, self.lam, self.a, self.b)
        ybar = float(np.mean(ys))
        ss = float(np.sum((ys - ybar) ** 2))
        lam_n = self.lam + m
        mu_n = (self.lam * self.mu0 + m * ybar) / lam_n
        a_n = self.a + 0.5 * m
        b_n = self.b + 0.5 * ss + 0.5 * self.lam * m * (ybar - self.mu0) ** 2 / lam_n
        return (mu_n, lam_n, a_n, b_n)

    def sample_posterior(self, ys, rng):
        mu_n, lam_n, a_n, b_n = self.posterior_params(np.asarray(ys, dtype=float))
        tau = rng.gamma(a_n, 1.0 / b_n)
        m = rng.normal(mu_n, 1.0 / math.sqrt(lam_n * tau))
        return (m, tau)

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

    def posterior_params(self, ys: np.ndarray):
        m = len(ys)
        if m == 0:
            return (self._mu0(), self.lam, self._psi(), self.nu)
        ybar = ys.mean(axis=0)
        centered = ys - ybar
        s = centered.T @ centered
        lam_n = self.lam + m
        mu_n = (self.lam * self._mu0() + m * ybar) / lam_n
        nu_n = self.nu + m
        dev = (ybar - self._mu0()).reshape(2, 1)
        psi_n = self._psi() + s + (self.lam * m / lam_n) * (dev @ dev.T)
        return (mu_n, lam_n, psi_n, nu_n)

    def sample_posterior(self, ys, rng):
        ys = np.asarray(ys, dtype=float).reshape(-1, 2)
        mu_n, lam_n, psi_n, nu_n = self.posterior_params(ys)
        return self._draw(mu_n, lam_n, psi_n, nu_n, rng)

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
    stick-breaking transform of the length values."""

    u: np.ndarray
    d: np.ndarray
    lengths: LengthPrefix
    weights: np.ndarray
    atoms: list
    rho: Optional[float] = None
    log_score: float = float("nan")
    infeasible_slices: int = 0

    @property
    def phi(self) -> int:
        return len(self.lengths)

    def kn(self) -> int:
        return int(np.count_nonzero(np.bincount(self.d))) if len(self.d) else 0

    def snapshot(self) -> "GibbsState":
        return GibbsState(
            u=self.u.copy(),
            d=self.d.copy(),
            lengths=self.lengths.copy(),
            weights=self.weights.copy(),
            atoms=list(self.atoms),
            rho=self.rho,
            log_score=self.log_score,
            infeasible_slices=self.infeasible_slices,
        )

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


def update_atoms(state: GibbsState, data, kernel: MixtureKernel, rng) -> GibbsState:
    """Draw each stick's atom from its conjugate posterior given the data
    allocated to it; an empty stick takes a prior draw.  One stable sort by
    allocation lays every block out contiguously in data order."""
    data = np.asarray(data, dtype=float)
    counts = np.bincount(state.d, minlength=state.phi)
    # labels in the narrowest type that holds them make the stable sort a
    # radix sort (up to 65536 sticks)
    labels = state.d.astype(np.min_scalar_type(len(counts)))
    blocks = data[np.argsort(labels, kind="stable")]
    ends = np.cumsum(counts)
    start = 0
    for j in range(state.phi):
        state.atoms[j] = kernel.sample_posterior(blocks[start:ends[j]], rng)
        start = ends[j]
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


def _beta_log_kernel(x, a, b):
    """log Be(x | a, b) + log B(a, b)."""
    return xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x)


def _beta_logpdf(x, a, b):
    """log Be(x | a, b), the expression scipy.stats.beta evaluates."""
    return _beta_log_kernel(x, a, b) - betaln(a, b)


def _slice_maxima(state: GibbsState) -> np.ndarray:
    """U_max[l] = max{u_k : d_k = l} per instantiated stick, 0 on sticks that
    hold no datum (every slice is positive).  The length conditionals depend
    on the slices only through these maxima (Kalli, Griffin & Walker 2011)."""
    umax = np.zeros(state.phi)
    np.maximum.at(umax, state.d, state.u)
    return umax


def _ratio(num, den):
    """num / den for num > 0, inf when den has underflowed to 0 (as numpy
    divides; Python floats would raise)."""
    return num / den if den > 0.0 else math.inf


def length_conditional_options(spec: SpeciesDriven, distinct, counts_minus, a_j, b_j):
    """Mixture weights of one stick's full conditional on the interval
    (a_j, b_j): one entry per other-stick distinct value (masked to the
    interval), then the truncated-base branch mass.

    Returns (active slot ids, option weights, cdf at a_j, cdf at b_j); the
    last option weight is the new-value branch.
    """
    active = [s for s in range(len(distinct)) if counts_minus[s] > 0]
    existing, new_w = spec.eppf.prediction_weights([counts_minus[s] for s in active])
    cdf_a = float(betainc(spec.base_a, spec.base_b, a_j))
    cdf_b = float(betainc(spec.base_a, spec.base_b, b_j))
    opt_w = [
        float(existing[i]) if a_j < distinct[s] < b_j else 0.0
        for i, s in enumerate(active)
    ]
    opt_w.append(float(new_w) * (cdf_b - cdf_a))
    return active, opt_w, cdf_a, cdf_b


def _resample_position(prefix: LengthPrefix, j, a_j, b_j, spec: SpeciesDriven, rng) -> bool:
    """Draw position j of the prefix from its full conditional on (a_j, b_j),
    in place.  False, with the prefix as it was, when the conditional is
    numerically empty or no free double is left in the interval."""
    distinct, counts = prefix.distinct, prefix.counts
    slot_j = prefix.atom_index[j]
    counts[slot_j] -= 1
    active, opt_w, cdf_a, cdf_b = length_conditional_options(spec, distinct, counts, a_j, b_j)
    total = sum(opt_w)
    if total <= 0.0:
        counts[slot_j] += 1
        return False

    pick = rng.random() * total
    acc = 0.0
    choice = len(opt_w) - 1
    for i, wgt in enumerate(opt_w):
        acc += wgt
        if pick < acc:
            choice = i
            break

    if choice < len(active):
        new_slot = active[choice]
    else:
        q = cdf_a + rng.random() * (cdf_b - cdf_a)
        new_val = float(betaincinv(spec.base_a, spec.base_b, q))
        hi = math.nextafter(b_j, 0.0)
        new_val = min(max(new_val, math.nextafter(a_j, 1.0), 1e-300), hi)
        # emptied slots are dropped at the end, so only live values collide
        taken = {x for x, c in zip(distinct, counts) if c > 0}
        while new_val in taken and new_val < hi:
            new_val = math.nextafter(new_val, 1.0)
        if new_val in taken:
            counts[slot_j] += 1
            return False
        new_slot = len(distinct)
        distinct.append(new_val)
        counts.append(0)
    counts[new_slot] += 1
    prefix.atom_index[j] = new_slot
    return True


def update_lengths(state: GibbsState, spec: SpeciesDriven, rng: np.random.Generator) -> GibbsState:
    """Resample each length variable from its full conditional: a mixture of
    point masses at the other sticks' distinct values and a truncated Beta,
    restricted to the interval the slice indicators leave open; then refresh
    each tie class's value (`_refresh_distinct_values`).

    The step runs on Python floats: the slice maxima, lengths and weights
    are read into lists once, and a move at position j recomputes the
    weights from j on only."""
    prefix = state.lengths
    phi = len(prefix)
    umax = _slice_maxima(state).tolist()
    v = prefix.values.tolist()
    w = state.weights.tolist()

    # a single shared value: the per-position conditionals are point masses
    # at the current value, so only the joint class refresh can move it
    if not (isinstance(spec.eppf, IdenticalDegenerate) and len(prefix.distinct) == 1):
        work = prefix.copy()
        later = [l for l in range(phi) if umax[l] > 0.0]  # occupied sticks after j
        prefix_prod = 1.0  # prod_{i<j} (1 - v_i)
        for j in range(phi):
            if later and later[0] == j:
                later = later[1:]
            # interval (a_j, b_j) keeping every slice indicator satisfied;
            # empty sticks are left out, their weights may have underflowed to 0
            a_j = _ratio(umax[j], prefix_prod) if umax[j] > 0.0 else 0.0
            b_j = 1.0
            if later:
                b_j = 1.0 - (1.0 - v[j]) * max([_ratio(umax[l], w[l]) for l in later])
            if not (math.nextafter(a_j, 1.0) < b_j  # some double strictly inside
                    and _resample_position(work, j, a_j, b_j, spec, rng)):
                state.infeasible_slices += 1
            elif work.distinct[work.atom_index[j]] != v[j]:
                v[j] = work.distinct[work.atom_index[j]]
                # sb_transform's sequential products from j on: the same bits
                prod = prefix_prod
                for l in range(j, phi):
                    w[l] = v[l] * prod
                    prod *= 1.0 - v[l]
            prefix_prod *= 1.0 - v[j]
        # drop emptied slots, renumbering in order of first appearance
        state.lengths = _truncate_prefix(work, phi)

    _refresh_distinct_values(state.lengths, v, w, umax, spec, rng)
    state.weights = np.array(w)
    return state


def _refresh_distinct_values(prefix, v, w, umax, spec, rng):
    """Resample each tie class's value from the base density restricted by
    the slice indicators, moving all positions of the class together.

    Given the tie pattern, the distinct values are iid from the base measure
    times the indicator constraints, so this is an exact conditional update.
    Without it a class can only change value by dissolving; in particular the
    single-block (Geometric) case would never move its shared length at all.
    A trial value is feasible when every occupied stick keeps U_max[l] < w_l.
    Only the weights from the class's first position on change, so a trial
    computes those and stops at the first slice it violates: O(phi) float
    operations per shrink step.  The prefix's distinct values and the
    lengths `v` and weights `w` (lists) are updated in place.  Shrinkage
    needs no step cap (Neal 2003): the bracket always strictly holds the
    class's value x0, which lies in the slice, so a draw of x0 itself ends
    the step, unchanged, once the bracket is a few ulps wide.
    """
    a, b = spec.base_a, spec.base_b
    log_beta = betaln(a, b)
    for slot, x0 in enumerate(prefix.distinct):
        start = prefix.atom_index.index(slot)
        in_class = [s == slot for s in prefix.atom_index[start:]]
        prod = 1.0  # prod_{i<start} (1 - v_i), which no trial changes
        for x in v[:start]:
            prod *= 1.0 - x
        level = _beta_log_kernel(x0, a, b) - log_beta - rng.exponential()
        left, right = 0.0, 1.0
        while True:
            x1 = left + rng.random() * (right - left)
            if x1 == x0:
                break
            # the draw can round onto an end of (0, 1), where the density
            # may be infinite; a length must stay strictly inside
            if (0.0 < x1 < 1.0
                    and x1 not in prefix.distinct
                    and _beta_log_kernel(x1, a, b) - log_beta > level):
                trial = _class_trial(x1, in_class, v[start:], umax[start:], prod)
                if trial is not None:
                    prefix.distinct[slot] = x1
                    v[start:] = [x1 if member else x for member, x in zip(in_class, v[start:])]
                    w[start:] = trial
                    break
            if x1 < x0:
                left = x1
            else:
                right = x1


def _class_trial(x, in_class, values, slices, prod):
    """Weights of the sticks holding `values`, the class members set to x,
    after sticks that leave the residual prod, by sb_transform's sequential
    products; None at the first occupied stick whose slice maximum they do
    not exceed."""
    out = []
    for member, value, s in zip(in_class, values, slices):
        if member:
            value = x
        weight = value * prod
        if s >= weight and s > 0.0:
            return None
        out.append(weight)
        prod *= 1.0 - value
    return out


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
    """One full sweep; restores every state invariant before returning."""
    spec = _resolve(config.prior, state.rho)
    kernel = config.kernel
    update_slices(state, rng)
    ensure_truncation(state, spec, kernel, rng, min_phi=min_phi)
    update_lengths(state, spec, rng)
    # length moves can shrink the covered mass, so top the truncation back up
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
    """Index of the sweep with the highest complete-data log score; earliest
    sweep wins ties."""
    if len(samples) == 0:
        raise ValueError("need at least one retained sweep")
    scores = [s.log_score for s in samples]
    if any(math.isnan(score) for score in scores):
        raise ValueError("sample lacks a stored score")
    return max(range(len(scores)), key=lambda i: (scores[i], -i))


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
    samples: List[GibbsState]
    trace: List[TraceRecord]
    config: FitConfig
    infeasible_slices: int = 0


def fit(
    data,
    config: FitConfig,
    check_invariants: bool = False,
) -> FitResult:
    """Run the sampler from default_rng(config.seed): burn-in then retained
    sweeps.  Every retained sweep emits a trace record; every thin-th retained
    sweep is stored in full."""
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
    return FitResult(samples=samples, trace=trace, config=config,
                     infeasible_slices=state.infeasible_slices)
