"""Slice-within-Gibbs sampler for mixture density estimation under
stick-breaking priors with exchangeable length variables.

One sweep updates: slice variables, the truncation level (extending sticks
and atoms as far as the slices require), length variables (with their tie
structure), allocations, kernel atoms, and optionally the tie probability.
The length conditionals read the slices only through the per-stick maxima
U_max[l] = max{u_k : d_k = l}, so they cost O(phi) per stick, not O(n).
Posterior summaries (EAP density, MAP sweep, clusters, K_n) are computed
from retained sweeps.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln, xlog1py, xlogy
from scipy.stats import invwishart

from .analytics import KnSummary
from .eppf import Dirichlet, EppfModel, IdenticalDegenerate
from .sticks import (
    IidBeta,
    LengthPrefix,
    SharedBeta,
    SpeciesDriven,
    _extend,
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

    def log_pdf_matrix(self, data, atoms):
        y = np.asarray(data, dtype=float).reshape(-1)
        means = np.array([a[0] for a in atoms])
        taus = np.array([a[1] for a in atoms])
        z = (y[:, None] - means[None, :]) ** 2
        return 0.5 * (np.log(taus)[None, :] - LOG_2PI) - 0.5 * taus[None, :] * z

    def log_pdf_at(self, data, atoms, d):
        """Log density of each datum at its own atom: row i of
        log_pdf_matrix read at column d[i], with the same arithmetic."""
        y = np.asarray(data, dtype=float).reshape(-1)
        means = np.array([a[0] for a in atoms])
        taus = np.array([a[1] for a in atoms])
        z = (y - means[d]) ** 2
        return (0.5 * (np.log(taus) - LOG_2PI))[d] - (0.5 * taus)[d] * z

    def pdf_grid(self, grid, atom):
        m, tau = atom
        g = np.asarray(grid, dtype=float).reshape(-1)
        return np.sqrt(tau / (2.0 * math.pi)) * np.exp(-0.5 * tau * (g - m) ** 2)

    def log_prior_density(self, atom):
        m, tau = atom
        lp = 0.5 * (math.log(self.lam * tau) - LOG_2PI) - 0.5 * self.lam * tau * (m - self.mu0) ** 2
        lp += self.a * math.log(self.b) - gammaln(self.a) + (self.a - 1.0) * math.log(tau) - self.b * tau
        return float(lp)


@dataclass(frozen=True)
class BivariateNormalInvWishart:
    """Bivariate Gaussian kernel N2(y | m, Sigma) with Normal-inverse-Wishart
    base: m | Sigma ~ N2(mu0, Sigma/lam), Sigma ~ IW(psi, nu)."""

    mu0: tuple
    lam: float
    psi: tuple
    nu: float

    dim = 2

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        psi = np.asarray(self.psi, dtype=float)
        if psi.shape != (2, 2) or not np.allclose(psi, psi.T):
            raise ValueError("psi must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(psi).min() <= 0:
            raise ValueError("psi must be positive definite")
        if self.nu <= 1:
            raise ValueError("nu must exceed dimension - 1 = 1")

    def _psi(self):
        return np.asarray(self.psi, dtype=float)

    def _mu0(self):
        return np.asarray(self.mu0, dtype=float)

    def _draw(self, mu, lam, psi, nu, rng):
        for jitter in (0.0, 1e-8):
            scale = psi + jitter * np.eye(2)
            if np.linalg.eigvalsh(scale).min() > 0:
                sigma = invwishart.rvs(df=nu, scale=scale, random_state=rng)
                m = rng.multivariate_normal(mu, sigma / lam)
                return (m, np.asarray(sigma))
        raise np.linalg.LinAlgError("posterior scale matrix is not positive definite")

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

    def log_pdf_matrix(self, data, atoms):
        y = np.asarray(data, dtype=float).reshape(-1, 2)
        out = np.empty((y.shape[0], len(atoms)))
        for j, (m, sigma) in enumerate(atoms):
            out[:, j] = self._log_pdf(y, m, sigma)
        return out

    def log_pdf_at(self, data, atoms, d):
        """Log density of each datum at its own atom, one occupied atom at
        a time."""
        y = np.asarray(data, dtype=float).reshape(-1, 2)
        out = np.empty(y.shape[0])
        for j in np.unique(d):
            rows = d == j
            m, sigma = atoms[j]
            out[rows] = self._log_pdf(y[rows], m, sigma)
        return out

    @staticmethod
    def _log_pdf(y, m, sigma):
        chol = np.linalg.cholesky(sigma)
        diff = y - m
        sol = np.linalg.solve(chol, diff.T)
        maha = np.sum(sol ** 2, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        return -LOG_2PI - 0.5 * logdet - 0.5 * maha

    def pdf_grid(self, grid, atom):
        pts = np.asarray(grid, dtype=float).reshape(-1, 2)
        m, sigma = atom
        return np.exp(self._log_pdf(pts, m, sigma))

    def log_prior_density(self, atom):
        m, sigma = atom
        mu0 = self._mu0()
        cov = sigma / self.lam
        chol = np.linalg.cholesky(cov)
        diff = (np.asarray(m) - mu0).reshape(2)
        sol = np.linalg.solve(chol, diff)
        lp = -LOG_2PI - np.sum(np.log(np.diag(chol))) - 0.5 * np.sum(sol ** 2)
        lp += invwishart.logpdf(sigma, df=self.nu, scale=self._psi())
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
    rho_lo: float = 0.0
    rho_hi: float = 1.0

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if not (0.0 <= self.rho_lo < self.rho_hi <= 1.0):
            raise ValueError("need 0 <= rho_lo < rho_hi <= 1")


PriorSpec = Union[IidBeta, SharedBeta, SpeciesDriven, RandomRho]


@dataclass
class FitConfig:
    prior: PriorSpec
    kernel: MixtureKernel
    iterations: int = 10_000
    burn_in: int = 2_000
    thin: int = 4
    seed: int = 0

    def __post_init__(self):
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
        return int(len(np.unique(self.d))) if len(self.d) else 0

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


def _resolve(prior: PriorSpec, rho: Optional[float]):
    """(eppf model, base a, base b) for the current sweep."""
    if isinstance(prior, RandomRho):
        if rho is None or not (0.0 < rho < 1.0):
            raise ValueError("RandomRho prior needs rho in (0, 1)")
        return Dirichlet((1.0 - rho) / rho), 1.0, prior.theta
    model = prior.eppf_model()
    a, b = prior.base()
    return model, a, b


def initial_state(data: np.ndarray, config: FitConfig, rng: np.random.Generator) -> GibbsState:
    """Everything in one component to start; the first sweeps expand it."""
    n = len(data)
    rho = None
    if isinstance(config.prior, RandomRho):
        rho = rng.uniform(config.prior.rho_lo, config.prior.rho_hi)
        rho = min(max(rho, 1e-12), 1.0 - 1e-12)
    model, a, b = _resolve(config.prior, rho)
    lengths = sample_lengths_prefix(SpeciesDriven(model, a, b), 1, rng)
    weights = sb_transform(lengths.values)
    atoms = [config.kernel.sample_prior(rng)]
    d = np.zeros(n, dtype=np.int64)
    if n:
        r = rng.random(n)
        r[r == 0.0] = 0.5
        u = r * weights[0]
    else:
        u = np.empty(0)
    return GibbsState(u=u, d=d, lengths=lengths, weights=weights, atoms=atoms, rho=rho)


# ---------------------------------------------------------------------------
# Gibbs steps

def update_slices(state: GibbsState, rng: np.random.Generator) -> GibbsState:
    if len(state.u):
        r = rng.random(len(state.u))
        r[r == 0.0] = 0.5  # keep u strictly positive
        state.u = r * state.weights[state.d]
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
    model: EppfModel,
    base_a: float,
    base_b: float,
    kernel: MixtureKernel,
    rng: np.random.Generator,
    min_phi: int = 1,
) -> GibbsState:
    """Resize the instantiated sticks/atoms so the weight prefix covers
    max_k(1 - u_k): extend with conditional prior draws (atoms from the base
    measure), and trim sticks the slices no longer reach."""
    threshold = float(np.max(1.0 - state.u)) if len(state.u) else 0.0
    spec = SpeciesDriven(model, base_a, base_b)
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
    data = np.asarray(data, dtype=float)
    for j in range(state.phi):
        block = data[state.d == j] if len(data) else data[:0]
        state.atoms[j] = kernel.sample_posterior(block, rng)
    return state


def update_allocations(state: GibbsState, data, kernel: MixtureKernel, rng) -> GibbsState:
    n = len(state.u)
    if n == 0:
        return state
    logp = kernel.log_pdf_matrix(data, state.atoms[: state.phi])
    admissible = state.u[:, None] < state.weights[None, :]
    if not np.all(admissible.any(axis=1)):
        raise RuntimeError("empty slice support: truncation level too small")
    shifted = logp - np.max(np.where(admissible, logp, -np.inf), axis=1, keepdims=True)
    probs = np.where(admissible, np.exp(shifted), 0.0)
    totals = probs.sum(axis=1)
    draws = rng.random(n) * totals
    d = (np.cumsum(probs, axis=1) <= draws[:, None]).sum(axis=1)
    d = np.minimum(d, state.phi - 1)
    rows = np.arange(n)
    bad = probs[rows, d] == 0.0  # float round-off at the categorical boundary
    if bad.any():
        d[bad] = np.argmax(probs[bad], axis=1)
    state.d = d.astype(np.int64)
    return state


def _beta_logpdf(x, a, b):
    """log Be(x | a, b), the expression scipy.stats.beta evaluates."""
    return xlog1py(b - 1.0, -x) + xlogy(a - 1.0, x) - betaln(a, b)


def _slice_maxima(state: GibbsState) -> np.ndarray:
    """U_max[l] = max{u_k : d_k = l} per instantiated stick, 0 on sticks that
    hold no datum (every slice is positive).  The length conditionals depend
    on the slices only through these maxima (Kalli, Griffin & Walker 2011)."""
    umax = np.zeros(state.phi)
    np.maximum.at(umax, state.d, state.u)
    return umax


def length_conditional_options(model, base_a, base_b, distinct, counts_minus, a_j, b_j):
    """Mixture weights of one stick's full conditional on the interval
    (a_j, b_j): one entry per other-stick distinct value (masked to the
    interval), then the truncated-base branch mass.

    Returns (active slot ids, option weights, cdf at a_j, cdf at b_j); the
    last option weight is the new-value branch.
    """
    active = [s for s in range(len(distinct)) if counts_minus[s] > 0]
    existing, new_w = model.prediction_weights([counts_minus[s] for s in active])
    cdf_a = float(betainc(base_a, base_b, a_j))
    cdf_b = float(betainc(base_a, base_b, b_j))
    opt_w = [
        float(existing[i]) if a_j < distinct[s] < b_j else 0.0
        for i, s in enumerate(active)
    ]
    opt_w.append(float(new_w) * (cdf_b - cdf_a))
    return active, opt_w, cdf_a, cdf_b


def update_lengths(
    state: GibbsState,
    model: EppfModel,
    base_a: float,
    base_b: float,
    rng: np.random.Generator,
) -> GibbsState:
    """Resample each length variable from its full conditional: a mixture of
    point masses at the other sticks' distinct values and a truncated Beta,
    restricted to the interval the slice indicators leave open."""
    prefix = state.lengths
    phi = len(prefix)
    v = prefix.values
    weights = state.weights.copy()
    umax = _slice_maxima(state)

    if isinstance(model, IdenticalDegenerate) and len(prefix.distinct) == 1:
        # single shared value: per-position conditionals are point masses at
        # the current value, so only the joint class refresh can move it
        _refresh_distinct_values(state, umax, base_a, base_b, rng)
        return state

    occupied = np.flatnonzero(umax)
    atom_index = list(prefix.atom_index)
    distinct = list(prefix.distinct)
    counts = list(prefix.counts)

    prefix_prod = 1.0  # prod_{i<j} (1 - v_i)
    for j in range(phi):
        # interval (a_j, b_j) keeping every slice indicator satisfied; empty
        # sticks are left out, their weights may have underflowed to 0
        a_j = float(umax[j]) / prefix_prod if umax[j] > 0.0 else 0.0
        b_j = 1.0
        later = occupied[occupied > j]
        if len(later):
            b_j = 1.0 - (1.0 - v[j]) * float(np.max(umax[later] / weights[later]))
        if not a_j < b_j:
            state.infeasible_slices += 1
            prefix_prod *= 1.0 - v[j]
            continue

        slot_j = atom_index[j]
        counts[slot_j] -= 1
        active, opt_w, cdf_a, cdf_b = length_conditional_options(
            model, base_a, base_b, distinct, counts, a_j, b_j
        )
        total = sum(opt_w)
        if total <= 0.0:
            # numerically empty conditional; keep the current value
            counts[slot_j] += 1
            state.infeasible_slices += 1
            prefix_prod *= 1.0 - v[j]
            continue

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
            new_val = distinct[new_slot]
        else:
            q = cdf_a + rng.random() * (cdf_b - cdf_a)
            new_val = float(betaincinv(base_a, base_b, q))
            new_val = min(max(new_val, np.nextafter(a_j, 1.0)), np.nextafter(b_j, 0.0))
            new_val = min(max(new_val, 1e-300), 1.0 - 1e-16)
            while new_val in distinct:
                new_val = np.nextafter(new_val, 1.0)
            new_slot = len(distinct)
            distinct.append(new_val)
            counts.append(0)
        counts[new_slot] += 1
        atom_index[j] = new_slot
        v[j] = distinct[new_slot]
        weights = sb_transform(v)
        prefix_prod *= 1.0 - v[j]

    # drop emptied slots, renumbering in order of first appearance
    state.lengths = _truncate_prefix(LengthPrefix(atom_index, distinct, counts), phi)
    state.weights = sb_transform(state.lengths.values)
    _refresh_distinct_values(state, umax, base_a, base_b, rng)
    return state


def _refresh_distinct_values(state, umax, base_a, base_b, rng, max_shrink=60):
    """Resample each tie class's value from the base density restricted by
    the slice indicators, moving all positions of the class together.

    Given the tie pattern, the distinct values are iid from the base measure
    times the indicator constraints, so this is an exact conditional update.
    Without it a class can only change value by dissolving; in particular the
    single-block (Geometric) case would never move its shared length at all.
    A trial value is feasible when every occupied stick keeps U_max[l] < w_l.
    """
    prefix = state.lengths
    occupied = np.flatnonzero(umax)
    slice_max = umax[occupied]
    v = prefix.values
    for slot in range(len(prefix.distinct)):
        positions = np.flatnonzero(np.asarray(prefix.atom_index) == slot)

        def feasible(x):
            trial = v.copy()
            trial[positions] = x
            w = sb_transform(trial)
            if np.any(slice_max >= w[occupied]):
                return None
            return w

        x0 = prefix.distinct[slot]
        level = _beta_logpdf(x0, base_a, base_b) - rng.exponential()
        left, right = 0.0, 1.0
        for _ in range(max_shrink):
            x1 = left + rng.random() * (right - left)
            if (x1 not in prefix.distinct
                    and _beta_logpdf(x1, base_a, base_b) > level):
                w = feasible(x1)
                if w is not None:
                    prefix.distinct[slot] = float(x1)
                    v[positions] = x1
                    state.weights = w
                    break
            if x1 < x0:
                left = x1
            else:
                right = x1
            if right - left < 1e-300:
                break


def _rho_log_conditional(rho, m, k_distinct, lo, hi):
    if not (lo < rho < hi) or not (0.0 < rho < 1.0):
        return -np.inf
    lp = (k_distinct - 1) * math.log1p(-rho) + (m - k_distinct) * math.log(rho)
    if m >= 2:
        lp -= float(np.sum(np.log1p(np.arange(m - 1) * rho)))
    return lp


def _slice_sample_logit(x0, log_f, rng, width=2.0, max_steps=20):
    y = log_f(x0) - rng.exponential()
    left = x0 - width * rng.random()
    right = left + width
    steps = max_steps
    while steps > 0 and log_f(left) > y:
        left -= width
        steps -= 1
    steps = max_steps
    while steps > 0 and log_f(right) > y:
        right += width
        steps -= 1
    while True:
        x1 = left + rng.random() * (right - left)
        if log_f(x1) > y:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1


def update_rho(state: GibbsState, prior: RandomRho, rng: np.random.Generator) -> GibbsState:
    """Resample the tie probability from its full conditional given the tie
    pattern of the instantiated lengths, by slice sampling on the logit scale."""
    m = state.phi
    k_distinct = len(state.lengths.distinct)

    def log_f(x):
        rho = 1.0 / (1.0 + math.exp(-x))
        lp = _rho_log_conditional(rho, m, k_distinct, prior.rho_lo, prior.rho_hi)
        if lp == -np.inf:
            return -np.inf
        return lp + math.log(rho) + math.log1p(-rho)  # logit Jacobian

    rho0 = min(max(state.rho, 1e-12), 1.0 - 1e-12)
    x0 = math.log(rho0 / (1.0 - rho0))
    if log_f(x0) == -np.inf:
        mid = 0.5 * (prior.rho_lo + prior.rho_hi)
        x0 = math.log(mid / (1.0 - mid))
    x1 = _slice_sample_logit(x0, log_f, rng)
    state.rho = 1.0 / (1.0 + math.exp(-x1))
    return state


def complete_data_log_score(
    state: GibbsState,
    data,
    kernel: MixtureKernel,
    model: EppfModel,
    base_a: float,
    base_b: float,
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
    lp = model.log_eppf(state.lengths.counts)
    if lp == -np.inf:
        return -np.inf
    score += lp
    score += float(np.sum(_beta_logpdf(np.asarray(state.lengths.distinct), base_a, base_b)))
    return score


def gibbs_sweep(
    state: GibbsState,
    data,
    config: FitConfig,
    rng: np.random.Generator,
    min_phi: int = 1,
) -> GibbsState:
    """One full sweep; restores every state invariant before returning."""
    model, base_a, base_b = _resolve(config.prior, state.rho)
    kernel = config.kernel
    update_slices(state, rng)
    ensure_truncation(state, model, base_a, base_b, kernel, rng, min_phi=min_phi)
    update_lengths(state, model, base_a, base_b, rng)
    # length moves can shrink the covered mass, so top the truncation back up
    ensure_truncation(state, model, base_a, base_b, kernel, rng, min_phi=min_phi)
    update_allocations(state, data, kernel, rng)
    update_atoms(state, data, kernel, rng)
    if isinstance(config.prior, RandomRho):
        update_rho(state, config.prior, rng)
        model, base_a, base_b = _resolve(config.prior, state.rho)
    state.log_score = complete_data_log_score(state, data, kernel, model, base_a, base_b)
    return state


# ---------------------------------------------------------------------------
# posterior estimators

def _admissibility_coefficients(sample: GibbsState) -> np.ndarray:
    """Per-component coefficient (1/n) sum_k 1{j in A_k} / |A_k| with
    A_k = {j : u_k < w_j}."""
    adm = sample.u[:, None] < sample.weights[None, :]
    sizes = adm.sum(axis=1)
    if np.any(sizes == 0):
        raise RuntimeError("a datum has no admissible component")
    return (adm / sizes[:, None]).sum(axis=0) / len(sample.u)


def eap_density(samples: Sequence[GibbsState], kernel: MixtureKernel, grid) -> np.ndarray:
    """Expected-a-posteriori density on the grid: the average over sweeps and
    data of the admissible-component mixture."""
    if len(samples) == 0:
        raise ValueError("need at least one retained sweep")
    grid = np.asarray(grid, dtype=float)
    npts = grid.shape[0]
    out = np.zeros(npts)
    for sample in samples:
        coef = _admissibility_coefficients(sample)
        dens = np.zeros(npts)
        for j, c in enumerate(coef):
            if c > 0.0:
                dens += c * kernel.pdf_grid(grid, sample.atoms[j])
        out += dens
    return out / len(samples)


def map_select(samples, data=None, kernel=None, prior=None) -> int:
    """Index of the sweep with the highest complete-data log score; earliest
    sweep wins ties.  Scores are recomputed when absent and the model
    context is supplied."""
    if len(samples) == 0:
        raise ValueError("need at least one retained sweep")
    scores = []
    for s in samples:
        score = s.log_score
        if math.isnan(score):
            if data is None or kernel is None or prior is None:
                raise ValueError("sample lacks a stored score; pass data, kernel and prior")
            model, a, b = _resolve(prior, s.rho)
            score = complete_data_log_score(s, data, kernel, model, a, b)
        scores.append(score)
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    return best


def cluster_assign(sample: GibbsState, data, kernel: MixtureKernel) -> np.ndarray:
    """Cluster labels from one sweep: each datum goes to the admissible
    component with the highest coefficient-weighted density at that datum
    (smallest index on ties)."""
    coef = _admissibility_coefficients(sample)
    logp = kernel.log_pdf_matrix(data, sample.atoms[: sample.phi])
    with np.errstate(divide="ignore"):
        scores = np.log(coef)[None, :] + logp
    return np.argmax(scores, axis=1)


def posterior_kn(samples: Sequence[GibbsState]) -> KnSummary:
    """Empirical pmf of the distinct-allocation count across retained sweeps."""
    if len(samples) == 0:
        raise ValueError("need at least one retained sweep")
    n = len(samples[0].d)
    from collections import Counter

    counts = Counter(s.kn() for s in samples)
    pmf = {k: c / len(samples) for k, c in sorted(counts.items())}
    return KnSummary(n=n, pmf=pmf, replicates=len(samples))


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
    rng: Optional[np.random.Generator] = None,
    trace_hook: Optional[Callable[[TraceRecord], None]] = None,
    check_invariants: bool = False,
) -> FitResult:
    """Run the sampler: burn-in then retained sweeps.  Every retained sweep
    emits a trace record; every thin-th retained sweep is stored in full."""
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
    if rng is None:
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
        if trace_hook is not None:
            trace_hook(rec)
        if (sweep - config.burn_in) % config.thin == 0:
            samples.append(state.snapshot())
    return FitResult(samples=samples, trace=trace, config=config,
                     infeasible_slices=state.infeasible_slices)
