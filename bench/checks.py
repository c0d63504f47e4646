"""Independent output checks for the esbmix benchmark.

Everything here is computed apart from the package under test: closed forms
from scipy.special, true densities from scipy.stats, quadrature from
scipy.integrate, and the Geyer (1992) initial-monotone-sequence ESS.  Only
numpy and scipy are imported, so the checkers can be tested on their own.
"""

import csv
import math

import numpy as np
from scipy import integrate, stats
from scipy.special import betaln


# ---------------------------------------------------------------------------
# chain diagnostics

def geyer_ess(x):
    """Effective sample size by Geyer's initial monotone sequence estimator.

    Autocorrelations are summed in adjacent pairs until a pair sum turns
    non-positive; the pair sums are then forced to be non-increasing.  A
    constant series has no measurable autocorrelation and returns its length.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 4:
        return float(n)
    centered = x - x.mean()
    if not np.any(centered):
        return float(n)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    rho = acov / acov[0]
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    tau = -1.0
    prev = math.inf
    for gamma in pairs:
        if gamma <= 0.0:
            break
        prev = min(prev, gamma)
        tau += 2.0 * prev
    return float(n / tau)


# ---------------------------------------------------------------------------
# closed forms

def crp_expected_kn(theta, n_max):
    """E[K_n], n = 1..n_max, for iid Be(1, theta) lengths (Dirichlet process):
    the sum over i < n of theta / (theta + i)."""
    return np.cumsum(theta / (theta + np.arange(n_max)))


def occupancy(d):
    """(r, t) of an allocation vector: r_i = #{l : d_l = i}, t_i = #{l : d_l > i}."""
    k = max(d)
    r = np.bincount(np.asarray(d) - 1, minlength=k)
    t = r[::-1].cumsum()[::-1] - r
    return r, t


def iid_allocation_closed_form(d, a, b):
    """P[d] for iid Be(a, b) lengths: the product of Beta moments
    E[v^r_i (1 - v)^t_i]."""
    r, t = occupancy(d)
    return math.exp(float(np.sum(betaln(a + r, b + t) - betaln(a, b))))


def identical_allocation_closed_form(d, a, b):
    """P[d] for one shared Be(a, b) length: E[v^sum(r) (1 - v)^sum(t)]."""
    r, t = occupancy(d)
    return math.exp(betaln(a + r.sum(), b + t.sum()) - betaln(a, b))


def geometric_expected_kn(n, a=1.0, b=1.0):
    """E[K_n] of the Geometric process with a Be(a, b) shared length:
    E over v of sum_j 1 - (1 - w_j)^n with w_j = v (1 - v)^(j-1), by
    quadrature on v."""

    def given_v(v):
        if v < 1e-4:
            # only pair collisions matter here: sum_j w_j^2 = v / (2 - v)
            return n - 0.5 * n * (n - 1) * v / (2.0 - v)
        if v >= 1.0:
            return 1.0
        j = np.arange(math.ceil(40.0 / v) + 1)
        log_w = math.log(v) + j * math.log1p(-v)
        return float(np.sum(-np.expm1(n * np.log1p(-np.exp(log_w)))))

    pdf = stats.beta(a, b).pdf
    val, _ = integrate.quad(lambda v: given_v(v) * pdf(v), 0.0, 1.0, limit=200,
                            points=[1e-4, 1e-3, 1e-2, 0.1])
    return val


# ---------------------------------------------------------------------------
# fit outputs

def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def l1_distance(density, truth, cell_area):
    """L1 distance of two densities tabulated on a regular grid."""
    return float(np.sum(np.abs(np.asarray(density) - np.asarray(truth))) * cell_area)


def rand_index(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    return (int((same_a == same_b).sum()) - n) / (n * (n - 1))


def check_fit_outputs(out, iterations, burn_in, truth_pdf, l1_limit, labels=None,
                      random_rho=False):
    """Check one `fit` output directory; returns (failures, summary)."""
    failures = []
    header, rows = read_csv(f"{out}/density.csv")
    vals = np.array(rows, dtype=float)
    if header[0] == "point":
        points, eap = vals[:, :1], vals[:, 1]
        cell = points[1, 0] - points[0, 0]
    else:
        points, eap = vals[:, :2], vals[:, 2]
        cell = (np.diff(np.unique(points[:, 0]))[0] * np.diff(np.unique(points[:, 1]))[0])
    l1 = l1_distance(eap, truth_pdf(points), cell)
    if not l1 < l1_limit:
        failures.append(f"EAP density L1 {l1:.4f} >= {l1_limit}")

    _, rows = read_csv(f"{out}/posterior_kn.csv")
    total = sum(float(p) for _, p in rows)
    if abs(total - 1.0) > 1e-9:
        failures.append(f"posterior_kn.csv sums to {total!r}")

    _, rows = read_csv(f"{out}/trace.csv")
    if len(rows) != iterations - burn_in:
        failures.append(f"trace.csv has {len(rows)} rows, expected {iterations - burn_in}")
    kn = np.array([int(r[1]) for r in rows])
    score = np.array([float(r[3]) for r in rows])
    if not np.all(np.isfinite(score)):
        failures.append("trace.csv holds a non-finite log score")
    summary = {"l1": l1, "ess_kn": geyer_ess(kn), "ess_log_score": geyer_ess(score),
               "ess_rho": 0.0}
    if random_rho:
        rho = np.array([float(r[2]) for r in rows])
        if not np.all((rho > 0.0) & (rho < 1.0)):
            failures.append("a rho record lies outside (0, 1)")
        summary["ess_rho"] = geyer_ess(rho)

    if labels is not None:
        _, rows = read_csv(f"{out}/clusters.csv")
        got = np.array([int(r[1]) for r in rows])
        ri = rand_index(got, labels)
        summary["rand_index"] = ri
        if not ri > 0.9:
            failures.append(f"MAP Rand index {ri:.4f} <= 0.9")
    return failures, summary


# ---------------------------------------------------------------------------
# prior analytics outputs

def check_kn_paths(paths):
    """Every K_n path starts at K_1 = 1 and rises by 0 or 1 per draw."""
    failures = []
    if not np.all(paths[:, 0] == 1):
        failures.append("a K_n path does not start at K_1 = 1")
    steps = np.diff(paths, axis=1)
    if not np.all((steps == 0) | (steps == 1)):
        failures.append("a K_n path is not monotone with unit steps")
    return failures


def check_crp_means(paths, theta, z_limit=5.0):
    """Path means of iid Be(1, theta) lengths against the closed form E[K_n]."""
    reps = paths.shape[0]
    means = paths.mean(axis=0)
    ses = paths.std(axis=0, ddof=1) / math.sqrt(reps)
    exact = crp_expected_kn(theta, paths.shape[1])
    z = float(np.max(np.abs(means - exact) / np.maximum(ses, 1e-12)))
    return ([] if z < z_limit else [f"E[K_n] worst |z| {z:.2f} >= {z_limit} at theta={theta}"]), z


def within(value, reference, rel=1e-9, what="value"):
    if abs(value - reference) <= rel * abs(reference):
        return []
    return [f"{what}: {value!r} vs {reference!r}"]
