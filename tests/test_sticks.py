import math

import numpy as np
import pytest
from scipy import stats

from esbmix.eppf import Dirichlet, IdenticalDegenerate, IidDegenerate, PitmanYor
from esbmix.sticks import (
    ExtensionCapError,
    IidBeta,
    LengthPrefix,
    SharedBeta,
    SpeciesDriven,
    dsb,
    extend_weights_until,
    sample_length_pairs,
    sample_lengths_prefix,
    sb_inverse,
    sb_transform,
)


def test_sb_transform_examples():
    assert sb_transform([0.5, 0.5, 0.5]) == pytest.approx([0.5, 0.25, 0.125])
    w = sb_transform([1.0, 0.3, 0.9])
    assert w == pytest.approx([1.0, 0.0, 0.0])


def test_sb_transform_partial_sum_identity():
    rng = np.random.default_rng(0)
    v = rng.random(40)
    w = sb_transform(v)
    partial = np.cumsum(w)
    resid = np.cumprod(1.0 - v)
    assert np.max(np.abs((1.0 - partial) - resid)) < 1e-12
    assert partial[-1] <= 1.0 + 1e-12
    # bit for bit the running-residual loop, so seeded chains do not move
    residual, ref = 1.0, []
    for vj in v:
        ref.append(residual * vj)
        residual *= 1.0 - vj
    assert np.array_equal(w, ref)


def test_sb_inverse_examples():
    assert sb_inverse([0.5, 0.25, 0.125]) == pytest.approx([0.5, 0.5, 0.5])
    assert sb_inverse([0.3, 0.7]) == pytest.approx([0.3, 1.0])
    # exhausted stick: zero weights invert to zero lengths
    assert sb_inverse([0.3, 0.7, 0.0]) == pytest.approx([0.3, 1.0, 0.0])


def test_sb_inverse_rejects_bad_weights():
    with pytest.raises(ValueError):
        sb_inverse([-0.1, 0.5])
    with pytest.raises(ValueError):
        sb_inverse([0.9, 0.2])


def test_round_trip_v_direction():
    # dividing a weight by the residual loses relative precision once the
    # residual is tiny, so full-range length-30 prefixes cannot round-trip
    # to 1e-12 in double precision; with lengths below 1/2 they do
    rng = np.random.default_rng(10)
    for _ in range(20):
        v = rng.random(30) * 0.5
        assert np.max(np.abs(sb_inverse(sb_transform(v)) - v)) < 1e-12
    for _ in range(20):
        v = rng.random(12)
        assert np.max(np.abs(sb_inverse(sb_transform(v)) - v)) < 1e-9


def test_round_trip_w_direction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.dirichlet(np.ones(31))[:30]
        assert np.max(np.abs(sb_transform(sb_inverse(w)) - w)) < 1e-12


def test_length_prefix_bookkeeping():
    p = LengthPrefix()
    p.append(0, 0.4)
    p.append(0)
    p.append(1, 0.7)
    p.append(0)
    p.validate()
    assert p.counts == [3, 1]
    assert p.values == pytest.approx([0.4, 0.4, 0.7, 0.4])
    with pytest.raises(ValueError):
        broken = LengthPrefix(atom_index=[0, 1], distinct=[0.5], counts=[2])
        broken.validate()


def test_shared_prefix_single_value():
    rng = np.random.default_rng(1)
    p = sample_lengths_prefix(SharedBeta(2.0, 3.0), 5, rng)
    p.validate()
    assert p.counts == [5]
    assert len(set(p.values.tolist())) == 1


def test_iid_prefix_all_distinct():
    rng = np.random.default_rng(2)
    p = sample_lengths_prefix(IidBeta(1.0, 1.0), 8, rng)
    p.validate()
    assert p.counts == [1] * 8


def test_species_driven_degenerate_reductions_match():
    # IidDegenerate-driven must be distributionally identical to IidBeta,
    # IdenticalDegenerate-driven to SharedBeta: compare tie structure and
    # marginal law over many draws
    rng = np.random.default_rng(3)
    p = sample_lengths_prefix(SpeciesDriven(IidDegenerate(), 1.0, 2.0), 6, rng)
    assert p.counts == [1] * 6
    p = sample_lengths_prefix(SpeciesDriven(IdenticalDegenerate(), 1.0, 2.0), 6, rng)
    assert p.counts == [6]
    # marginals agree (same Beta base)
    draws_a = np.array(
        [sample_lengths_prefix(SpeciesDriven(IidDegenerate(), 1.0, 2.0), 1, rng).values[0]
         for _ in range(4000)]
    )
    draws_b = np.array(
        [sample_lengths_prefix(IidBeta(1.0, 2.0), 1, rng).values[0] for _ in range(4000)]
    )
    assert stats.ks_2samp(draws_a, draws_b).pvalue > 0.01


def test_pair_tie_frequency_matches_tie_probability():
    rng = np.random.default_rng(4)
    reps = 1_000_000
    for model, rho in ((Dirichlet(1.0), 0.5), (PitmanYor(0.5, 0.5), 1 / 3)):
        v1, v2 = sample_length_pairs(SpeciesDriven(model, 1.0, 1.0), reps, rng)
        freq = np.mean(v1 == v2)
        se = math.sqrt(rho * (1 - rho) / reps)
        assert abs(freq - rho) < 3 * se


def test_pair_sampler_agrees_with_sequential_path():
    # the vectorized pair construction and the sequential prediction-rule
    # sampler are two routes to the same joint law
    rng = np.random.default_rng(5)
    spec = dsb(2.0, 1.0)
    reps = 60_000
    seq = np.empty((reps, 2))
    for i in range(reps):
        seq[i] = sample_lengths_prefix(spec, 2, rng).values
    v1, v2 = sample_length_pairs(spec, reps, rng)
    tie_seq = np.mean(seq[:, 0] == seq[:, 1])
    tie_vec = np.mean(v1 == v2)
    se = math.sqrt(2 * tie_vec * (1 - tie_vec) / reps)
    assert abs(tie_seq - tie_vec) < 3 * se
    assert stats.ks_2samp(seq[:, 1], v2).pvalue > 0.01


def test_exchangeability_of_first_two_lengths():
    rng = np.random.default_rng(6)
    spec = dsb(1.0, 2.0)
    reps = 200_000
    pairs = np.empty((reps, 2))
    for i in range(reps):
        pairs[i] = sample_lengths_prefix(spec, 2, rng).values
    # joint law symmetric: marginals of each coordinate agree, tie event is
    # symmetric by construction
    assert stats.ks_2samp(pairs[:, 0], pairs[:, 1]).pvalue > 0.01
    # each marginal is the Be(1, 2) base
    grid = stats.beta(1.0, 2.0)
    assert stats.kstest(pairs[:, 0], grid.cdf).pvalue > 0.01
    assert stats.kstest(pairs[:, 1], grid.cdf).pvalue > 0.01


def test_pair_correlation_matches_tie_probability():
    # Corr(v1, v2) equals the driving tie probability
    rng = np.random.default_rng(7)
    reps = 1_000_000
    for model in (Dirichlet(1.0), PitmanYor(0.25, 0.75)):
        rho = model.tie_probability()
        v1, v2 = sample_length_pairs(SpeciesDriven(model, 1.0, 1.0), reps, rng)
        blocks = 100
        rs = [np.corrcoef(v1[i::blocks], v2[i::blocks])[0, 1] for i in range(blocks)]
        est = np.mean(rs)
        se = np.std(rs, ddof=1) / math.sqrt(blocks)
        assert abs(est - rho) < 3 * se


def test_extend_threshold_zero_single_stick():
    rng = np.random.default_rng(8)
    prefix, w = extend_weights_until(LengthPrefix(), dsb(1.0, 1.0), 0.0, rng)
    assert len(prefix) == 1 and len(w) == 1


def test_extend_shared_geometric_count():
    rng = np.random.default_rng(9)
    p = LengthPrefix()
    p.append(0, 0.5)
    prefix, w = extend_weights_until(p, SharedBeta(1.0, 1.0), 0.9, rng)
    # 1 - 0.5^4 = 0.9375 >= 0.9 while 1 - 0.5^3 = 0.875 < 0.9
    assert len(prefix) == 4
    assert w.sum() == pytest.approx(0.9375)


def test_extend_terminates_near_one():
    rng = np.random.default_rng(12)
    for spec in (IidBeta(1.0, 1.0), dsb(0.5, 1.0), SharedBeta(1.0, 1.0)):
        prefix, w = extend_weights_until(LengthPrefix(), spec, 1.0 - 1e-6, rng)
        assert w.sum() >= 1.0 - 1e-6
        prefix.validate()


def test_extend_conditional_respects_existing_ties():
    rng = np.random.default_rng(13)
    spec = dsb(1.0, 1.0)
    p = sample_lengths_prefix(spec, 4, rng)
    before = list(p.counts)
    extend_weights_until(p, spec, 0.999, rng)
    p.validate()
    assert [p.counts[i] >= before[i] for i in range(len(before))]


def test_extension_cap_reported():
    rng = np.random.default_rng(14)
    p = LengthPrefix()
    p.append(0, 1e-9)  # near-zero shared length: needs ~2e10 sticks
    with pytest.raises(ExtensionCapError):
        extend_weights_until(p, SharedBeta(1.0, 1.0), 0.99999, rng)


def test_properness_mean_residual():
    # mean residual stick mass at depth 200 for iid and moderately-tied
    # species-driven cases; near-geometric regimes (shared or tiny beta)
    # have exact mean residual of order theta/(theta+m), above this bound
    rng = np.random.default_rng(15)
    reps = 2000
    for spec in (IidBeta(1.0, 1.0), IidBeta(1.0, 10.0), dsb(1.0, 1.0), dsb(3.0, 2.0)):
        total = 0.0
        for _ in range(reps):
            p = sample_lengths_prefix(spec, 200, rng)
            total += float(np.prod(1.0 - p.values))
        assert total / reps < 1e-3
    # the shared-length case has exact mean residual theta/(theta+m), far
    # above 1e-3 at depth 200; check it against that exact value instead
    theta = 10.0
    total = 0.0
    for _ in range(reps):
        p = sample_lengths_prefix(SharedBeta(1.0, theta), 200, rng)
        total += float(np.prod(1.0 - p.values))
    exact = theta / (theta + 200.0)
    se = exact / math.sqrt(reps)  # crude scale bound on the se
    assert abs(total / reps - exact) < 4 * se


def test_marginal_beta_at_every_index():
    rng = np.random.default_rng(16)
    spec = dsb(1.5, 3.0)
    reps = 20_000
    vals = np.empty((reps, 4))
    for i in range(reps):
        vals[i] = sample_lengths_prefix(spec, 4, rng).values
    dist = stats.beta(1.0, 3.0)
    for j in range(4):
        assert stats.kstest(vals[:, j], dist.cdf).pvalue > 0.01


def test_spec_validation():
    with pytest.raises(ValueError):
        IidBeta(0.0, 1.0)
    with pytest.raises(ValueError):
        SharedBeta(1.0, -2.0)
    with pytest.raises(ValueError):
        SpeciesDriven(Dirichlet(1.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_lengths_prefix(IidBeta(1, 1), 0, np.random.default_rng(0))
