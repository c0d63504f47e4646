"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Several criteria are
Monte Carlo checks at fixed seeds with the tolerances stated in their
assertions.
"""

import hashlib
import itertools
import math
import time

import numpy as np
from scipy import stats

import esbmix
from esbmix import (
    Dirichlet,
    FitConfig,
    IidBeta,
    PitmanYor,
    RandomRho,
    SharedBeta,
    allocation_probability,
    allocation_probability_dsb,
    cluster_assign,
    default_kernel,
    dsb,
    eap_density,
    fit,
    gauss_2f1_11,
    map_select,
    ordering_probability_dsb,
    ordering_probability_mc,
    sample_allocations,
    sample_kn,
    sample_length_pairs,
    sample_lengths_prefix,
    tv_distance,
)
from esbmix.analytics import kn_paths
from esbmix.eppf import check_addition_rule
from esbmix.mcmc import GibbsState, UnivariateNormalGamma, gibbs_sweep, initial_state
from esbmix.sticks import sb_transform


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------

def test_criterion_01_ordering_closed_form():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    details = []
    ok = True
    for beta, theta in ((1.0, 1.0), (9.0, 1.0), (1.0, 3.0), (0.25, 2.0)):
        closed = ordering_probability_dsb(beta, theta)
        est, se = ordering_probability_mc(dsb(beta, theta), 1_000_000, rng)
        ok = ok and abs(closed - est) < 3.0 * se
        details.append(f"({beta:g},{theta:g}) |{closed:.6f}-{est:.6f}|<3se")
        if theta == 1.0:
            target = (1.0 + beta * math.log(2.0)) / (1.0 + beta)
            ok = ok and abs(closed - target) < 1e-10
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report("criterion-1 ordering closed form vs MC",
           ok, "; ".join(details) + f"; runtime {elapsed:.1f}s < 60s")


def test_criterion_02_gauss_2f1_spot():
    val = gauss_2f1_11(3.0, 0.5)
    target = 4.0 * (1.0 - math.log(2.0))
    report("criterion-2 2F1(1,1;3;1/2) spot value",
           abs(val - target) < 1e-10, f"|{val!r} - {target!r}| = {abs(val-target):.2e}")


def test_criterion_03_addition_rule():
    rng = np.random.default_rng(103)
    models = [Dirichlet(0.5), Dirichlet(1.0), Dirichlet(3.0),
              PitmanYor(0.25, 0.5), PitmanYor(0.5, 1.0)]
    worst = 0.0
    for model in models:
        for _ in range(500):
            while True:
                sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 7)))]
                if sum(sizes) <= 10:
                    break
            worst = max(worst, check_addition_rule(model, sizes))
    report("criterion-3 EPPF addition rule",
           worst < 1e-12, f"max residual {worst:.3g} over 500 compositions x 5 models")


def test_criterion_04_allocation_probabilities():
    rng = np.random.default_rng(104)
    reps = 1_000_000
    worst_z, dual_worst = 0.0, 0.0
    n_checked = 0
    n_over_3 = 0
    for model in (Dirichlet(1.0), PitmanYor(0.5, 0.5)):
        spec = esbmix.SpeciesDriven(model, 1.0, 1.0)
        draws = sample_allocations(spec, 4, reps, rng)
        clipped = np.minimum(draws, 5)  # entries > 4 only need to miss
        for n in range(1, 5):
            codes = np.zeros(reps, dtype=np.int64)
            for i in range(n):
                codes = codes * 6 + clipped[:, i]
            freq_table = np.bincount(codes, minlength=6 ** n) / reps
            for d in itertools.product(range(1, 5), repeat=n):
                exact = allocation_probability(list(d), model, 1.0, 1.0)
                code = 0
                for x in d:
                    code = code * 6 + x
                freq = float(freq_table[code])
                se = math.sqrt(max(exact * (1 - exact), 1e-12) / reps)
                z = abs(freq - exact) / se
                worst_z = max(worst_z, z)
                n_over_3 += z >= 3.0
                n_checked += 1
                if isinstance(model, Dirichlet):
                    closed = allocation_probability_dsb(list(d), 1.0, 1.0)
                    dual_worst = max(dual_worst, abs(exact - closed) / max(exact, 1e-300))
    # 680 simultaneous comparisons: the expected maximum of that many
    # standard normals is ~3.4, so the per-vector 3-se rate is enforced
    # family-wise (same 0.27% error budget spread over all vectors)
    z_family = stats.norm.isf(0.00135 / n_checked)
    share_over_3 = n_over_3 / n_checked
    ok = worst_z < z_family and share_over_3 < 0.02 and dual_worst < 1e-10
    report("criterion-4 allocation partition sums",
           ok, f"{n_checked} d-vectors vs 1e6-rep MC; worst |z| {worst_z:.2f} < "
               f"family bound {z_family:.2f}; {n_over_3} over 3se "
               f"(chance-level); dual-path rel err {dual_worst:.2e} < 1e-10")


def test_criterion_05_tie_probabilities():
    rng = np.random.default_rng(105)
    reps = 1_000_000
    details = []
    ok = True
    for model in (Dirichlet(1.0), PitmanYor(0.5, 0.5)):
        rho = model.tie_probability()
        v1, v2 = sample_length_pairs(esbmix.SpeciesDriven(model, 1.0, 1.0), reps, rng)
        freq = float(np.mean(v1 == v2))
        se = math.sqrt(rho * (1 - rho) / reps)
        ok = ok and abs(freq - rho) < 3 * se
        blocks = 100
        rs = [np.corrcoef(v1[i::blocks], v2[i::blocks])[0, 1] for i in range(blocks)]
        corr, corr_se = float(np.mean(rs)), float(np.std(rs, ddof=1) / math.sqrt(blocks))
        ok = ok and abs(corr - rho) < 3 * corr_se
        details.append(f"{type(model).__name__}: tie {freq:.5f}~{rho:.5f}, corr {corr:.5f}")
    report("criterion-5 tie probabilities and correlation", ok, "; ".join(details))


def test_criterion_06_limit_recovery():
    rng = np.random.default_rng(106)
    reps = 100_000
    big = sample_kn(dsb(1000.0, 1.0), 20, reps, rng)
    iid = sample_kn(IidBeta(1.0, 1.0), 20, reps, rng)
    tv_dirichlet = tv_distance(big.pmf, iid.pmf)
    small = sample_kn(dsb(0.001, 1.0), 20, reps, rng)
    shared = sample_kn(SharedBeta(1.0, 1.0), 20, reps, rng)
    tv_geometric = tv_distance(small.pmf, shared.pmf)
    ok = tv_dirichlet < 0.05 and tv_geometric < 0.05
    report("criterion-6 weak limits (K20 pmf)",
           ok, f"TV(beta=1000, Dirichlet) = {tv_dirichlet:.4f}; "
               f"TV(beta=0.001, Geometric) = {tv_geometric:.4f}; both < 0.05")


def test_criterion_07_expected_kn_curves():
    rng = np.random.default_rng(107)
    reps = 20_000
    worst_z = 0.0
    for theta in (0.5, 1.0, 2.5, 4.0):
        paths = kn_paths(IidBeta(1.0, theta), 200, reps, rng)
        crp = np.cumsum([theta / (theta + i) for i in range(200)])
        means = paths.mean(axis=0)
        ses = paths.std(axis=0, ddof=1) / math.sqrt(reps)
        z = np.max(np.abs(means - crp) / np.maximum(ses, 1e-12))
        worst_z = max(worst_z, float(z))
    ok = worst_z < 3.0

    # conjectured ordering (checked empirically, not a theorem): Geometric
    # >= DSB(beta1) >= DSB(beta2) >= Dirichlet at n = 200 for beta1 < beta2
    theta = 1.0
    curves = {}
    for name, spec in (("geometric", SharedBeta(1.0, theta)),
                       ("dsb_b1", dsb(1.0 / 3.0, theta)),
                       ("dsb_b2", dsb(3.0, theta)),
                       ("dirichlet", IidBeta(1.0, theta))):
        paths = kn_paths(spec, 200, reps, rng)
        curves[name] = (paths[:, -1].mean(), paths[:, -1].std(ddof=1) / math.sqrt(reps))
    order = ["geometric", "dsb_b1", "dsb_b2", "dirichlet"]
    sep_ok = all(
        curves[a][0] - curves[b][0] > 3.0 * math.hypot(curves[a][1], curves[b][1])
        for a, b in zip(order, order[1:])
    )
    vals = ", ".join(f"{k} {curves[k][0]:.2f}" for k in order)
    report("criterion-7 E[K_n] curves vs urn oracle + conjecture ordering",
           ok and sep_ok, f"worst |z| {worst_z:.2f} < 3 over n<=200, theta grid; "
                          f"E[K_200]: {vals} (3-se separated)")


def test_criterion_08_prior_recovery():
    rng = np.random.default_rng(108)
    theta, beta = 1.0, 1.0
    spec = dsb(beta, theta)
    m = 10
    kern = UnivariateNormalGamma(0.0, 0.01, 0.5, 0.5)
    cfg = FitConfig(prior=spec, kernel=kern, iterations=10, burn_in=1, seed=0)
    prefix = sample_lengths_prefix(spec, m, rng)
    state = GibbsState(
        u=np.empty(0), d=np.empty(0, dtype=np.int64), lengths=prefix,
        weights=sb_transform(prefix.values), atoms=[kern.sample_prior(rng) for _ in range(m)],
    )
    sweeps = 100_000
    k_hits = np.zeros(m + 1)
    v1 = np.empty(sweeps)
    for s in range(sweeps):
        gibbs_sweep(state, np.empty(0), cfg, rng, min_phi=m)
        k_hits[len(state.lengths.distinct)] += 1
        v1[s] = state.lengths.values[0]
    chain_pmf = {k: k_hits[k] / sweeps for k in range(1, m + 1) if k_hits[k]}

    # independent prior oracle: under a Dirichlet driving measure the
    # new-value events are independent Bernoulli(beta/(beta+i))
    fresh = rng.random((sweeps, m - 1)) < beta / (beta + np.arange(1, m))
    k_prior = 1 + fresh.sum(axis=1)
    prior_pmf = {k: float(np.mean(k_prior == k)) for k in range(1, m + 1)}
    tv = tv_distance(chain_pmf, prior_pmf)

    ks = stats.kstest(v1[::20], stats.beta(1.0, theta).cdf)
    ok = tv < 0.03 and ks.pvalue > 0.01
    report("criterion-8 prior recovery (zero data)",
           ok, f"K TV {tv:.4f} < 0.03 over {sweeps} sweeps; "
               f"v1 KS p = {ks.pvalue:.3f} > 0.01")


def three_component_fixture(seed=20260809):
    rng = np.random.default_rng(seed)
    data = np.concatenate([
        rng.normal(-6.0, 1.0, 60),
        rng.normal(0.0, 1.0, 80),
        rng.normal(6.0, 1.0, 60),
    ])
    rng.shuffle(data)
    return data


def test_criterion_09_end_to_end_univariate_fit():
    data = three_component_fixture()
    kern = default_kernel(data)
    config = FitConfig(prior=dsb(1.0, 1.0), kernel=kern,
                       iterations=10_000, burn_in=2_000, thin=4, seed=7)
    started = time.monotonic()
    result = fit(data, config)
    elapsed = time.monotonic() - started

    counts = {}
    for rec in result.trace:
        counts[rec.kn] = counts.get(rec.kn, 0) + 1
    mode = max(counts, key=counts.get)

    grid = np.linspace(-12.0, 12.0, 481)
    dens = eap_density(result.samples, kern, grid)
    truth = (0.3 * stats.norm.pdf(grid, -6, 1) + 0.4 * stats.norm.pdf(grid, 0, 1)
             + 0.3 * stats.norm.pdf(grid, 6, 1))
    l1 = float(np.trapezoid(np.abs(dens - truth), grid))

    ok = mode in (3, 4) and l1 < 0.15 and elapsed < 300.0
    report("criterion-9 end-to-end univariate fit",
           ok, f"posterior K mode {mode} in {{3,4}}; EAP L1 {l1:.4f} < 0.15; "
               f"runtime {elapsed:.0f}s < 300s")


def rand_index(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    n = len(a)
    agree = int((same_a == same_b).sum()) - n
    return agree / (n * (n - 1))


def four_blob_fixture():
    # four 20-sigma-separated blobs of 75 points each; tight spreads keep
    # the fixed identity Wishart scale an effective split deterrent for the
    # complete-data MAP score
    rng = np.random.default_rng(110)
    centers = np.array([[5.0, 5.0], [-5.0, 5.0], [-5.0, -5.0], [5.0, -5.0]])
    truth = np.repeat(np.arange(4), 75)
    data = centers[truth] + 0.5 * rng.normal(size=(300, 2))
    perm = rng.permutation(300)
    return data[perm], truth[perm]


def test_criterion_10_random_rho_bivariate_fit():
    data, truth = four_blob_fixture()
    kern = default_kernel(data)
    config = FitConfig(prior=RandomRho(theta=1.0), kernel=kern,
                       iterations=6_000, burn_in=2_000, thin=4, seed=11)
    result = fit(data, config)

    rhos = np.array([rec.rho for rec in result.trace])
    rho_ok = bool(np.all((rhos > 0.0) & (rhos < 1.0))) and len(rhos) == 4000

    best = map_select(result.samples)
    labels = cluster_assign(result.samples[best], data, kern)
    n_clusters = len(np.unique(labels))
    ri = rand_index(labels, truth)
    ok = rho_ok and n_clusters == 4 and ri > 0.9
    report("criterion-10 random-rho bivariate fit",
           ok, f"rho trace in (0,1) ({len(rhos)} records); MAP clusters {n_clusters}; "
               f"Rand index {ri:.4f} > 0.9")


def test_criterion_11_determinism(tmp_path):
    import json

    from esbmix.cli import main

    rng = np.random.default_rng(111)
    data = np.concatenate([rng.normal(-3, 1, 30), rng.normal(3, 1, 30)])
    data_path = tmp_path / "data.csv"
    data_path.write_text("".join(f"{float(x)!r}\n" for x in data))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data": str(data_path),
        "prior": {"family": "dsb", "rho": 0.5, "theta": 1.0},
        "iterations": 300, "burn_in": 100, "thin": 4,
        "grid": {"min": -8.0, "max": 8.0, "points": 101},
    }))
    bodies = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        code = main(["fit", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "42"])
        assert code == 0
        bodies.append({
            name: (out / name).read_bytes()
            for name in ("density.csv", "posterior_kn.csv", "clusters.csv", "trace.csv")
        })
    identical = bodies[0] == bodies[1]
    report("criterion-11 determinism",
           identical, "fit CSVs byte-identical across two runs (config+seed fixed)")


def chain_digest(data, config, sweeps, record):
    """SHA-256 over repr(record(state)) after each of the first `sweeps`
    sweeps of the seeded chain that `fit(data, config)` runs."""
    rng = np.random.default_rng(config.seed)
    state = initial_state(data, config, rng)
    digest = hashlib.sha256()
    for _ in range(sweeps):
        gibbs_sweep(state, data, config, rng)
        digest.update(repr(record(state)).encode())
    return digest.hexdigest()


def test_seeded_chains_are_pinned():
    # Golden chains: 300 sweeps of the criterion-9 and criterion-10 chains
    # (numpy 2.4, scipy 1.17). A refactor or speed-up keeps both digests; a
    # change meant to alter the chain updates them and says so in CHANGES.md.
    # The bivariate chain pins K_n and rho only: its log score moves near
    # 1e-12 under any reordering of the 2x2 arithmetic.
    data = three_component_fixture()
    config = FitConfig(prior=dsb(1.0, 1.0), kernel=default_kernel(data),
                       iterations=300, burn_in=0, seed=7)
    univariate = chain_digest(
        data, config, 300, lambda s: (s.kn(), s.d.tolist(), s.lengths.values.tolist()))
    data, _ = four_blob_fixture()
    config = FitConfig(prior=RandomRho(theta=1.0), kernel=default_kernel(data),
                       iterations=300, burn_in=0, seed=11)
    bivariate = chain_digest(data, config, 300, lambda s: (s.kn(), s.rho))
    assert univariate == "7e596e7e82e99f7406f0ccb554ed8ed974ff847426f1e99fe8eb1e37be2e69dd"
    assert bivariate == "683ea2171bc0b01563cd34626d4af8c9ddbe81d80d24557fc510d1b2b6b86f6c"
