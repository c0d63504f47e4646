import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import gammaln, logsumexp

from esbmix.analytics import (
    ENUMERATION_CAP,
    AllocationVector,
    allocation_probability,
    allocation_probability_dsb,
    allocation_probability_mc,
    conditional_ordering_probability,
    conditional_ordering_probability_dsb,
    enumerate_partitions,
    expected_kn_curve,
    kn_paths,
    ordering_probability_dsb,
    ordering_probability_general,
    ordering_probability_mc,
    sample_allocations,
    sample_kn,
    truncated_pair_mass,
    tv_distance,
    weight_ordering_c,
    _first_arrival_paths,
    _symmetric_residual_moment,
)
from esbmix.eppf import Dirichlet, IdenticalDegenerate, IidDegenerate, PitmanYor
from esbmix.numerics import log_beta_moment
from esbmix.sticks import (
    ExtensionCapError,
    IidBeta,
    LengthPrefix,
    SharedBeta,
    SpeciesDriven,
    dsb,
    sample_lengths_prefix,
)


def test_allocation_vector_stats():
    av = AllocationVector((1, 1, 2))
    assert av.k == 2
    assert av.r.tolist() == [2, 1]
    assert av.t.tolist() == [1, 0]
    av = AllocationVector((3,))
    assert av.r.tolist() == [0, 0, 1]
    assert av.t.tolist() == [1, 1, 0]
    assert av.r.sum() == 1
    with pytest.raises(ValueError):
        AllocationVector((0, 1))
    with pytest.raises(ValueError):
        AllocationVector(())


def test_allocation_vector_stores_int_indices():
    av = AllocationVector((1.0, np.int64(2), 2))
    assert av.d == (1, 2, 2) and all(type(x) is int for x in av.d)
    for bad in ((True, 2), (1, np.True_), (1.5,), (math.nan,), (math.inf,), ("1",)):
        with pytest.raises(ValueError, match="positive integers"):
            AllocationVector(bad)


def test_exact_sums_accept_integral_floats():
    model = Dirichlet(1.0)
    assert (allocation_probability([1.0, 2.0], model, 1.0, 1.0)
            == allocation_probability([1, 2], model, 1.0, 1.0))
    assert (allocation_probability_dsb([1.0, 2.0], 1.0, 1.0)
            == allocation_probability_dsb([1, 2], 1.0, 1.0))


def test_ordering_dsb_theta_one_closed_form():
    for beta in (0.25, 1.0, 9.0, 40.0):
        expected = (1.0 + beta * math.log(2.0)) / (1.0 + beta)
        assert ordering_probability_dsb(beta, 1.0) == pytest.approx(expected, abs=1e-10)


def test_ordering_dsb_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ordering_probability_dsb(bad, 1.0)
        with pytest.raises(ValueError):
            ordering_probability_dsb(1.0, bad)


def test_ordering_dsb_beta_to_zero_limit():
    assert ordering_probability_dsb(1e-12, 2.7) == pytest.approx(1.0, abs=1e-10)


def test_ordering_dsb_monotone_decreasing_in_beta():
    for theta in (0.5, 1.0, 4.0):
        vals = [ordering_probability_dsb(b, theta) for b in (1e-9, 0.1, 0.5, 1, 3, 10, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0, abs=1e-8)


def test_ordering_dsb_matches_monte_carlo():
    rng = np.random.default_rng(21)
    for beta, theta in ((9.0, 2.0), (1.0, 3.0)):
        closed = ordering_probability_dsb(beta, theta)
        est, se = ordering_probability_mc(dsb(beta, theta), 1_000_000, rng)
        assert abs(closed - est) < 3.0 * se


def test_ordering_general_identical_is_one():
    assert ordering_probability_general(IdenticalDegenerate(), 2.0, 5.0) == 1.0


def test_ordering_general_matches_dsb_specialization():
    for beta, theta in ((0.5, 1.0), (2.0, 3.5)):
        a = ordering_probability_general(Dirichlet(beta), 1.0, theta)
        b = ordering_probability_dsb(beta, theta)
        assert a == pytest.approx(b, rel=1e-12)


def test_ordering_general_pitman_yor_closed_form():
    # [1 - alpha + (beta + alpha) log 2] / (beta + 1) for the Be(1,1) base
    alpha, beta = 0.5, 0.5
    expected = (1 - alpha + (beta + alpha) * math.log(2.0)) / (beta + 1.0)
    assert ordering_probability_general(PitmanYor(alpha, beta), 1.0, 1.0) == pytest.approx(
        expected, rel=1e-10
    )


def test_ordering_general_mc_base_against_quadrature():
    # E[F(c(v))] for a Be(2,3) base via quadrature is the independent oracle
    a, b = 2.0, 3.0
    dist = stats.beta(a, b)

    def integrand(v):
        return dist.cdf(min(1.0, v / (1.0 - v))) * dist.pdf(v)

    oracle, _ = integrate.quad(integrand, 0.0, 0.5, limit=200)
    oracle += dist.sf(0.5)  # c(v) = 1 above one half
    rho = 0.3
    model = PitmanYor(0.4, 1.0)
    assert model.tie_probability() == pytest.approx(0.3)
    rng = np.random.default_rng(22)
    draws = 400_000
    est = ordering_probability_general(model, a, b, mc_draws=draws, rng=rng)
    expected = rho + (1 - rho) * oracle
    # binomial-style bound on the Monte Carlo error of the expectation
    se = (1 - rho) * math.sqrt(0.25 / draws)
    assert abs(est - expected) < 4 * se


def test_weight_ordering_c():
    assert weight_ordering_c(0.6) == 1.0
    assert weight_ordering_c(0.25) == pytest.approx(1 / 3)
    assert weight_ordering_c(1.0) == 1.0


def test_conditional_ordering_c_saturated():
    prefix = LengthPrefix([0], [0.6], [1])
    assert conditional_ordering_probability(prefix, Dirichlet(2.0), 1.0, 1.0) == pytest.approx(1.0)


def test_conditional_ordering_single_value_prefix():
    # prefix (0.25) under Dirichlet(1), Be(1,1): the tied option always
    # qualifies since v <= c(v), giving 1/2 + 1/2 * 1/3 = 2/3; verified by
    # first-principles Monte Carlo of the prediction rule
    prefix = LengthPrefix([0], [0.25], [1])
    val = conditional_ordering_probability(prefix, Dirichlet(1.0), 1.0, 1.0)
    assert val == pytest.approx(2 / 3, rel=1e-12)
    rng = np.random.default_rng(23)
    tie = rng.random(400_000) < 0.5
    v2 = np.where(tie, 0.25, rng.random(400_000))
    freq = np.mean(0.25 >= v2 * 0.75)
    assert abs(freq - val) < 3 * math.sqrt(val * (1 - val) / 400_000)


def test_conditional_ordering_dual_path():
    rng = np.random.default_rng(24)
    for beta, theta in ((1.0, 1.0), (2.5, 3.0)):
        spec = dsb(beta, theta)
        for _ in range(25):
            prefix = sample_lengths_prefix(spec, int(rng.integers(1, 7)), rng)
            generic = conditional_ordering_probability(prefix, Dirichlet(beta), 1.0, theta)
            closed = conditional_ordering_probability_dsb(prefix, beta, theta)
            assert generic == pytest.approx(closed, rel=1e-10)


def test_conditional_ordering_frozen_prefix_mc():
    rng = np.random.default_rng(25)
    spec = dsb(1.5, 2.0)
    prefix = sample_lengths_prefix(spec, 3, rng)
    val = conditional_ordering_probability(prefix, Dirichlet(1.5), 1.0, 2.0)
    reps = 100_000
    hits = 0
    vj = prefix.values[-1]
    c = weight_ordering_c(vj)
    existing, new_w = Dirichlet(1.5).prediction_weights(prefix.counts)
    options = np.array(prefix.distinct)
    probs = np.append(existing, new_w)
    choices = rng.choice(len(probs), size=reps, p=probs / probs.sum())
    vnext = np.where(
        choices < len(options),
        options[np.minimum(choices, len(options) - 1)],
        rng.beta(1.0, 2.0, size=reps),
    )
    hits = np.mean(vnext <= c)
    assert abs(hits - val) < 3 * math.sqrt(max(val * (1 - val), 1e-12) / reps) + 1e-9


def test_allocation_probability_first_weight():
    # P[d = 1] = E[w_1] = E[v_1], the Be(1, theta) mean
    for theta in (1.0, 3.0):
        assert allocation_probability([1], Dirichlet(1.0), 1.0, theta) == pytest.approx(
            1.0 / (1.0 + theta), rel=1e-12
        )


def test_allocation_probability_second_weight_hand_value():
    def expected(beta, theta):
        return theta / (beta + 1) * (beta / (theta + 1) ** 2 + 1 / ((theta + 1) * (theta + 2)))

    assert allocation_probability([2], Dirichlet(1.0), 1.0, 1.0) == pytest.approx(5 / 24, rel=1e-12)
    for beta, theta in ((1.0, 1.0), (4.0, 2.0), (0.3, 0.7)):
        assert allocation_probability([2], Dirichlet(beta), 1.0, theta) == pytest.approx(
            expected(beta, theta), rel=1e-12
        )
    # degenerate limits: iid gives theta/(theta+1)^2, identical the geometric value
    assert allocation_probability([2], IidDegenerate(), 1.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert allocation_probability([2], IdenticalDegenerate(), 1.0, 1.0) == pytest.approx(
        1 / 6, rel=1e-12
    )


def test_allocation_dual_path_agreement():
    rng = np.random.default_rng(26)
    for beta, theta in ((1.0, 1.0), (0.5, 2.0)):
        model = Dirichlet(beta)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            d = [int(rng.integers(1, 6)) for _ in range(n)]
            generic = allocation_probability(d, model, 1.0, theta)
            closed = allocation_probability_dsb(d, beta, theta)
            assert generic == pytest.approx(closed, rel=1e-10)


def test_allocation_probability_vs_mc():
    rng = np.random.default_rng(27)
    spec = dsb(1.0, 1.0)
    for d in ([1, 1, 2], [2], [1, 2, 3]):
        exact = allocation_probability(d, Dirichlet(1.0), 1.0, 1.0)
        est, se = allocation_probability_mc(d, spec, 400_000, rng)
        assert abs(exact - est) < 3.0 * se


def test_allocation_cap_refused():
    with pytest.raises(ValueError, match="cap"):
        allocation_probability([13], Dirichlet(1.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="cap"):
        allocation_probability_dsb([13], 1.0, 1.0)


def _partition_sum_reference(d, model, a, b):
    # term-by-term sum over the set partitions of {1..max d}
    av = AllocationVector(tuple(d))
    r, t = av.r, av.t
    total = 0.0
    for part in enumerate_partitions(av.k):
        lp = model.log_eppf([len(b) for b in part])
        if lp == -math.inf:
            continue
        for block in part:
            idx = [i - 1 for i in block]
            lp += log_beta_moment(a, b, int(r[idx].sum()), int(t[idx].sum()))
        total += math.exp(lp)
    return total


def test_allocation_probability_matches_partition_enumeration():
    rng = np.random.default_rng(31)
    models = [Dirichlet(0.6), PitmanYor(0.4, 1.3), PitmanYor(0.7, -0.5),
              IidDegenerate(), IdenticalDegenerate()]
    bases = [(1.0, 1.0), (2.5, 0.7), (0.6, 3.0)]
    for model in models:
        for a, b in bases:
            for _ in range(4):
                n = int(rng.integers(1, 9))
                d = [int(rng.integers(1, 8)) for _ in range(n)]
                assert allocation_probability(d, model, a, b) == pytest.approx(
                    _partition_sum_reference(d, model, a, b), rel=1e-12
                )
    # the largest k here, with every index occupied
    d = list(range(1, 8)) + [3, 7]
    for model in models:
        assert allocation_probability(d, model, 2.5, 0.7) == pytest.approx(
            _partition_sum_reference(d, model, 2.5, 0.7), rel=1e-12
        )


def test_allocation_probability_degenerate_closed_forms_at_cap():
    # k = 12: iid lengths give a product of one Beta moment per index,
    # identical lengths a single moment of the pooled counts
    d = list(range(1, 13)) + [2, 5, 5, 12]
    av = AllocationVector(tuple(d))
    r, t = av.r, av.t
    for a, b in ((1.0, 1.0), (2.0, 0.5)):
        iid = math.exp(sum(log_beta_moment(a, b, int(p), int(q)) for p, q in zip(r, t)))
        identical = math.exp(log_beta_moment(a, b, int(r.sum()), int(t.sum())))
        assert allocation_probability(d, IidDegenerate(), a, b) == pytest.approx(iid, rel=1e-12)
        assert allocation_probability(d, IdenticalDegenerate(), a, b) == pytest.approx(
            identical, rel=1e-12
        )


def test_allocation_probability_dirichlet_k8_matches_dsb_enumeration():
    for d, beta, theta in ((list(range(1, 9)), 1.0, 1.0), ([8, 2, 2, 5, 1], 0.4, 2.5)):
        assert allocation_probability(d, Dirichlet(beta), 1.0, theta) == pytest.approx(
            allocation_probability_dsb(d, beta, theta), rel=1e-12
        )


def test_dirichlet_one_pass_matches_the_loop_over_block_counts():
    # PitmanYor(0, beta) has Dirichlet(beta)'s Gibbs factors, but its sum
    # runs the loop over the number of blocks
    rng = np.random.default_rng(5)
    for k in range(1, ENUMERATION_CAP + 1):
        for beta in (0.1, 1.0, 3.7, 50.0):
            d = list(range(1, k + 1)) + rng.integers(1, k + 1, size=2 * k).tolist()
            assert allocation_probability(d, Dirichlet(beta), 1.3, 0.7) == pytest.approx(
                allocation_probability(d, PitmanYor(0.0, beta), 1.3, 0.7), rel=1e-12)
            if k <= 7:
                assert allocation_probability(d, Dirichlet(beta), 1.0, 2.5) == pytest.approx(
                    allocation_probability_dsb(d, beta, 2.5), rel=1e-12)


def test_allocation_probability_rejects_bad_base_shapes():
    for a, b in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="Beta base shapes"):
            allocation_probability([1, 2], Dirichlet(1.0), a, b)


def test_truncated_pair_mass_matches_pairwise_sum():
    # identity total = E[(1 - R_J)^2] against direct summation of all
    # two-draw allocation probabilities with entries <= J
    models = (Dirichlet(1.0), PitmanYor(0.5, 1.0), PitmanYor(0.3, -0.2),
              IidDegenerate(), IdenticalDegenerate())
    for model in models:
        for base_a, base_b in ((1.0, 1.0), (0.5, 2.0)):
            for J in range(1, 6):
                direct = sum(
                    allocation_probability([i, j], model, base_a, base_b)
                    for i in range(1, J + 1)
                    for j in range(1, J + 1)
                )
                assert truncated_pair_mass(model, base_a, base_b, J) == pytest.approx(
                    direct, rel=1e-10
                )


def _residual_moment_logsumexp(model, base_a, base_b, J, power):
    """The partial-Bell recurrence of `_symmetric_residual_moment` summed
    with scipy's logsumexp over every row and column, kept as its reference."""
    log_v, log_w = model.log_gibbs_factors(J)
    log_x = log_w + np.array(
        [log_beta_moment(base_a, base_b, 0, power * s) for s in range(1, J + 1)]
    )
    n = np.arange(J + 1)[:, None]
    s = np.arange(1, J + 1)
    rest = np.maximum(n - s, 0)
    log_cx = np.where(
        s <= n, gammaln(np.maximum(n, 1)) - gammaln(s) - gammaln(rest + 1) + log_x, -np.inf
    )
    log_b = np.full(J + 1, -np.inf)
    log_b[0] = 0.0
    terms = []
    for m in range(J):
        log_b = logsumexp(log_cx + log_b[rest], axis=1)
        terms.append(log_v[m] + log_b[J])
    return float(np.exp(logsumexp(terms)))


@pytest.mark.parametrize("model", [
    Dirichlet(1.0), PitmanYor(0.5, 1.0), IidDegenerate(), IdenticalDegenerate(),
], ids=["dirichlet", "pitman-yor", "iid", "identical"])
def test_residual_moment_matches_logsumexp_reference(model):
    for base_a, base_b in ((1.0, 1.0), (0.5, 2.0), (20.0, 2000.0)):
        for J in (1, 5, 30, 120):
            for power in (1, 2):
                ref = _residual_moment_logsumexp(model, base_a, base_b, J, power)
                got = _symmetric_residual_moment(model, base_a, base_b, J, power)
                assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_truncated_pair_mass_rejects_bad_inputs():
    for J in (0, -3, 2.5, 2.0, True, "4"):
        with pytest.raises(ValueError, match="positive integer"):
            truncated_pair_mass(Dirichlet(1.0), 1.0, 1.0, J)
    for a, b in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="Beta base shapes"):
            truncated_pair_mass(Dirichlet(1.0), a, b, 3)


def test_truncated_pair_mass_monotone_and_exceeds_090():
    masses = [truncated_pair_mass(Dirichlet(1.0), 1.0, 1.0, J) for J in (1, 2, 5, 10, 25)]
    assert all(a < b for a, b in zip(masses, masses[1:]))
    assert all(0.0 < m <= 1.0 for m in masses)
    # frozen from the pre-build enumeration oracle: 0.991817 at J = 25
    assert masses[-1] == pytest.approx(0.991817, abs=5e-6)
    assert masses[-1] > 0.9


def test_sample_kn_single_draw():
    rng = np.random.default_rng(28)
    for spec in (IidBeta(1, 1), SharedBeta(1, 1), dsb(2.0, 1.0)):
        summary = sample_kn(spec, 1, 200, rng)
        assert summary.pmf == {1: 1.0}


def test_sample_kn_support_and_mass():
    rng = np.random.default_rng(29)
    summary = sample_kn(dsb(1.0, 1.0), 12, 5000, rng)
    assert sum(summary.pmf.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(1 <= k <= 12 for k in summary.pmf)
    assert all(type(k) is int and type(p) is float for k, p in summary.pmf.items())
    assert list(summary.pmf) == sorted(summary.pmf)
    # the pmf counts the K_n column of the same seeded paths
    kn = kn_paths(dsb(1.0, 1.0), 12, 5000, np.random.default_rng(29))[:, -1]
    assert summary.pmf == {k: float(np.sum(kn == k)) / 5000 for k in range(1, 13)
                           if np.any(kn == k)}


def _ewens_pmf(n, theta):
    """P[K_n = k] for k = 0..n under iid Be(1, theta) lengths (the Dirichlet
    process): the Ewens law theta^k |s(n, k)| / (theta)_n, with the unsigned
    Stirling numbers from |s(m+1, k)| = m |s(m, k)| + |s(m, k-1)|."""
    stirling = [1]
    for m in range(n):
        stirling = [m * s + t for s, t in zip(stirling + [0], [0] + stirling)]
    rising = math.prod(theta + i for i in range(n))
    return np.array([theta**k * stirling[k] / rising for k in range(n + 1)])


def _pooled_pearson(observed, expected):
    """Pearson's statistic over the values expected at least 5 times, the
    rest pooled into one cell, and its degrees of freedom."""
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    return float(np.sum((obs - exp) ** 2 / exp)), obs.size - 1


@pytest.mark.parametrize("theta", [0.5, 2.5])
def test_sample_kn_matches_the_ewens_law(theta):
    n, reps = 20, 200_000
    exact = _ewens_pmf(n, theta)
    assert exact.sum() == pytest.approx(1.0, rel=1e-12)
    pmf = sample_kn(IidBeta(1.0, theta), n, reps, np.random.default_rng(41)).pmf
    observed = np.array([pmf.get(k, 0.0) * reps for k in range(n + 1)])
    chi2, df = _pooled_pearson(observed, exact * reps)
    assert chi2 < stats.chi2.ppf(1 - 1e-4, df=df)


@pytest.mark.parametrize("theta", [0.5, 2.5])
def test_kn_paths_columns_match_the_ewens_law(theta):
    # path column m - 1 is K_m, the distinct values among the first m draws
    n, reps = 50, 100_000
    paths = kn_paths(IidBeta(1.0, theta), n, reps, np.random.default_rng(43))
    for m in (20, 50):
        observed = np.bincount(paths[:, m - 1], minlength=m + 1)
        chi2, df = _pooled_pearson(observed, _ewens_pmf(m, theta) * reps)
        assert chi2 < stats.chi2.ppf(1 - 1e-4, df=df)


@pytest.mark.parametrize("row", [
    [1, 1, 1, 2, 2, 3],
    [1, 1, 1, 1, 1, 2],
    [1, 1, 2, 2, 3, 3, 4],
    [2, 2, 2, 7, 9, 9, 9, 9],
], ids=["3-2-1", "5-1", "2-2-2-1", "3-1-4"])
def test_first_arrival_paths_match_every_arrangement(row):
    # the draws' order is uniform, so every distinct arrangement of a sorted
    # row is equally likely; its K path counts the distinct labels of each
    # prefix, and a path is read as the base-(n + 1) number with digit i K_i
    n, reps = len(row), 200_000
    arrangements = set(itertools.permutations(row))
    digits = (n + 1) ** np.arange(n)
    ref = np.array([[len(set(a[:i + 1])) for i in range(n)] for a in arrangements]) @ digits
    values, law = np.unique(ref, return_counts=True)
    d = np.tile(np.array(row, dtype=np.int64), (reps, 1))
    got = _first_arrival_paths(d, np.random.default_rng(44)) @ digits
    assert np.isin(got, values).all()
    observed = np.bincount(np.searchsorted(values, got), minlength=values.size)
    expected = law * reps / len(arrangements)
    assert expected.min() >= 5
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(1 - 1e-4, df=values.size - 1)


def test_sample_allocations_matches_sequential_reference():
    # the vectorized allocation sampler against a per-replicate loop built
    # from the sequential prefix sampler
    rng = np.random.default_rng(30)
    spec = dsb(1.0, 1.0)
    n, reps = 6, 30_000
    from esbmix.sticks import LengthPrefix as LP, extend_weights_until

    ref = np.empty(reps, dtype=int)
    for i in range(reps):
        u = rng.random(n)
        prefix, w = extend_weights_until(LP(), spec, float(u.max()), rng)
        cw = np.cumsum(w)
        dvec = np.searchsorted(cw, u, side="right") + 1
        ref[i] = len(set(dvec.tolist()))
    fast = kn_paths(spec, n, reps, rng)[:, -1]
    pa = {k: np.mean(ref == k) for k in range(1, n + 1)}
    pb = {k: float(np.mean(fast == k)) for k in range(1, n + 1)}
    assert tv_distance(pa, pb) < 0.012


def test_shared_allocation_closed_form_inversion():
    # d for a geometric stick is ceil(log(1-u)/log(1-v)); spot check the
    # vectorized path against explicit cumulative sums
    rng = np.random.default_rng(31)
    d = sample_allocations(SharedBeta(1.0, 1.0), 2, 50_000, rng)
    # P[d=j] = E[v(1-v)^{j-1}] = B(2, j)/B(1,1) = 1/(j(j+1)) for Be(1,1)
    for j in (1, 2, 5):
        p = 1.0 / (j * (j + 1.0))
        freq = np.mean(d[:, 0] == j)
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / 50_000)


def test_shared_allocation_refuses_an_index_past_int64():
    # Be(0.01, 1) puts most of its mass below 1e-19, where a slice point lands
    # past stick 2**63; such rows have K_3 = 3 and must not come back wrapped
    with pytest.raises(ExtensionCapError, match="shared length"):
        sample_allocations(SharedBeta(0.01, 1.0), 3, 20_000, np.random.default_rng(0))


@pytest.mark.parametrize("spec", [
    IidBeta(20.0, 2000.0),
    SpeciesDriven(PitmanYor(0.5, 1.0), 20.0, 2000.0),
    SpeciesDriven(Dirichlet(0.05), 20.0, 2000.0),  # the single-class closed form
], ids=["iid", "pitman-yor", "dirichlet-0.05"])
def test_scalar_continuation_matches_exact_residual_mass(spec):
    # lengths near 0.01 leave about 8% of single draws uncovered after the
    # 250 sticks of the vectorized pass; P[d_1 > J] = E[prod_{i<=J} (1 - v_i)]
    reps = 20_000
    d = sample_allocations(spec, 1, reps, np.random.default_rng(40))[:, 0]
    for J in (250, 400):
        p = _symmetric_residual_moment(spec.eppf, spec.base_a, spec.base_b, J, 1)
        freq = np.mean(d > J)
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / reps)


@pytest.mark.parametrize("spec, n, reps, digest", [
    # vectorized pass only
    (IidBeta(1.0, 1.0), 20, 2000,
     "7503509477a71f4a404ab4bef2f3359de4feeb56ea79445f1adef30542dec562"),
    # iid scalar tail
    (IidBeta(20.0, 2000.0), 2, 200,
     "2e1d0ea45daa77ba905fa8d023276d3fecadc1440437ff479110c8bfaed1208e"),
    # CRP scalar tail, with single-class stretches and class joins
    (dsb(1 / 3, 1.0), 30, 3000,
     "4e0a8db2f394b6160046b8aff648ca3040a05ca823e67d3586397677e0b1cbe7"),
    # single-class closed form
    (dsb(0.01, 1.0), 10, 3000,
     "37d9aaa6e79f1f53f4fbb8b44aa13fa3ec771e76922a572c3533f615eb4359fd"),
    (SpeciesDriven(PitmanYor(0.5, 1.0), 1.0, 1.0), 20, 2000,
     "250e77cd6a4a1101b6154ed5b03ef714ef71454350f3f0e0a3c3f2719574735f"),
    (SharedBeta(1.0, 1.0), 10, 5000,
     "703b6dedecf866d8e4ad724c568163b19c3efc990e0568db8fb2c89d1df26461"),
    # two chunks
    (IidBeta(1.0, 1.0), 2, 50_001,
     "f30dd4bf487ced2c629dae4a2f7a5034b6b873760c62b72e0eb6e0796ba56cb5"),
], ids=["iid", "iid-tail", "dsb-third", "dsb-0.01", "pitman-yor", "shared", "two-chunks"])
def test_seeded_allocations_are_pinned(spec, n, reps, digest):
    # Golden draws (numpy 2.4, scipy 1.17): SHA-256 over the allocations and
    # the generator state after them.  A refactor of the simulator keeps every
    # digest; a change meant to alter the draws updates them and says so in
    # CHANGES.md.
    rng = np.random.default_rng(50)
    d = sample_allocations(spec, n, reps, rng)
    h = hashlib.sha256(d.tobytes())
    h.update(repr(rng.bit_generator.state).encode())
    assert h.hexdigest() == digest


def test_expected_kn_curve_basics():
    rng = np.random.default_rng(32)
    curve = expected_kn_curve(dsb(1.0, 1.0), 10, 4000, rng)
    assert curve[0] == 1.0
    assert all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))


def test_expected_kn_iid_matches_crp_harmonic():
    rng = np.random.default_rng(33)
    for theta in (0.5, 1.0):
        reps = 30_000
        paths = kn_paths(IidBeta(1.0, theta), 50, reps, rng)
        crp = np.cumsum([theta / (theta + i) for i in range(50)])
        for n in (1, 5, 20, 50):
            se = paths[:, n - 1].std(ddof=1) / math.sqrt(reps)
            assert abs(paths[:, n - 1].mean() - crp[n - 1]) < 3 * se + 1e-9


def test_kn_paths_prefix_consistent_monotone():
    rng = np.random.default_rng(34)
    paths = kn_paths(dsb(0.5, 1.0), 30, 500, rng)
    assert np.all(np.diff(paths, axis=1) >= 0)
    assert np.all(paths[:, 0] == 1)
    assert np.all(paths <= np.arange(1, 31)[None, :])
    # both draw the same sorted rows first, so K_30 is the distinct count of
    # the same seeded allocations
    d = sample_allocations(dsb(0.5, 1.0), 30, 500, np.random.default_rng(34))
    assert np.array_equal(paths[:, -1], [len(set(row)) for row in d.tolist()])


def test_kn_paths_memory_bounded_by_replicates_times_n():
    # a Geometric stick with a small shared length sends allocation indices
    # far out: this generator's largest is about 2e8, so bookkeeping sized by
    # the largest index would need about 20 TiB; memory must follow R * n
    R, n = 100_000, 20
    rng = np.random.default_rng(10)
    tracemalloc.start()
    try:
        kn = kn_paths(SharedBeta(1.0, 1.0), n, R, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kn.shape == (R, n)
    assert np.all(np.diff(kn, axis=1) >= 0) and np.all(kn[:, 0] == 1)
    assert peak < 8 * R * n * 8


@pytest.mark.parametrize("spec, width", [
    (IidBeta(1.0, 1.0), np.uint8),
    # v concentrates near 1e-3, 1e-6 and 1e-10, so max d = -log(1 - u_max) / v
    # lies in the range of the named type whatever the seed
    (SharedBeta(1000.0, 1e6), np.uint16),
    (SharedBeta(1000.0, 1e9), np.uint32),
    (SharedBeta(1000.0, 1e13), np.uint64),
], ids=["uint8", "uint16", "uint32", "uint64"])
def test_kn_paths_counts_distinct_large_labels(spec, width):
    n, reps = 12, 400
    d = sample_allocations(spec, n, reps, np.random.default_rng(36))
    assert np.min_scalar_type(d.max()) == width
    paths = kn_paths(spec, n, reps, np.random.default_rng(36))
    assert np.all(paths[:, 0] == 1)
    assert np.all(np.isin(np.diff(paths, axis=1), (0, 1)))
    assert np.array_equal(paths[:, -1], [len(set(row)) for row in d.tolist()])


def test_kn_paths_peak_memory_per_point():
    # the simulator writes each chunk's sorted rows in place, and the paths
    # are written over them, so the peak stays below 40 bytes per point
    R, n = 5000, 200
    rng = np.random.default_rng(37)
    tracemalloc.start()
    try:
        kn_paths(IidBeta(1.0, 4.0), n, R, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * R * n


def test_mixture_measure_moments():
    """E[mu(A)] = mu0(A) and Var(mu(A)) = rho mu0(A)(1 - mu0(A)), with rho
    estimated independently from allocation ties."""
    rng = np.random.default_rng(35)
    spec = dsb(1.0, 1.0)
    q = 0.3  # mu0 = N(0,1), A = (-inf, Phi^-1-ish point]
    cut = stats.norm.ppf(q)
    reps = 3000
    vals = np.empty(reps)
    from esbmix.sticks import LengthPrefix as LP, extend_weights_until

    for i in range(reps):
        prefix, w = extend_weights_until(LP(), spec, 1.0 - 1e-8, rng)
        atoms = rng.normal(size=len(w))
        vals[i] = float(np.sum(w * (atoms <= cut))) + (1.0 - w.sum()) * q
    se_mean = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - q) < 3 * se_mean

    d = sample_allocations(spec, 2, 200_000, rng)
    rho_hat = float(np.mean(d[:, 0] == d[:, 1]))
    target_var = rho_hat * q * (1 - q)
    var_hat = vals.var(ddof=1)
    m4 = np.mean((vals - vals.mean()) ** 4)
    se_var = math.sqrt(max(m4 - var_hat**2, 0.0) / reps)
    assert abs(var_hat - target_var) < 3 * se_var + 3e-4


def test_tv_distance():
    assert tv_distance({1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}) == 0.0
    assert tv_distance({1: 1.0}, {2: 1.0}) == 1.0
    assert tv_distance({1: 0.6, 2: 0.4}, {1: 0.4, 2: 0.6}) == pytest.approx(0.2)
