import math

import numpy as np
import pytest
from scipy import integrate

from esbmix.eppf import (
    Dirichlet,
    IdenticalDegenerate,
    IidDegenerate,
    PitmanYor,
    check_addition_rule,
    log_eppf,
    nig_tie_probability,
    prediction_weights,
    tie_probability,
)

NEG_INF = float("-inf")


def test_dirichlet_hand_values():
    # beta * 1! / (beta)_2 = 1/(beta+1) for a single pair
    assert log_eppf(Dirichlet(1.0), [2]) == pytest.approx(math.log(0.5))
    # beta^2 / (beta)_2 = 4/6 at beta = 2
    assert log_eppf(Dirichlet(2.0), [1, 1]) == pytest.approx(math.log(2 / 3))
    assert log_eppf(Dirichlet(3.7), [1]) == pytest.approx(0.0)


def test_pitman_yor_alpha_zero_reduces_to_dirichlet():
    rng = np.random.default_rng(1)
    for beta in (0.5, 1.0, 3.0):
        for _ in range(30):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            assert log_eppf(PitmanYor(0.0, beta), sizes) == pytest.approx(
                log_eppf(Dirichlet(beta), sizes), rel=1e-12
            )


def test_degenerate_eppfs():
    iid = IidDegenerate()
    ident = IdenticalDegenerate()
    assert log_eppf(iid, [1, 1, 1]) == 0.0
    assert log_eppf(iid, [2, 1]) == NEG_INF
    assert log_eppf(ident, [5]) == 0.0
    assert log_eppf(ident, [4, 1]) == NEG_INF


def test_symmetry_in_block_sizes():
    rng = np.random.default_rng(2)
    models = [Dirichlet(0.7), PitmanYor(0.3, 1.2)]
    for model in models:
        for _ in range(200):
            sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 6)))]
            perm = list(rng.permutation(sizes))
            assert log_eppf(model, sizes) == pytest.approx(log_eppf(model, perm), rel=1e-12)


def test_addition_rule_examples():
    # pi(1) = pi(1,1) + pi(2): 1 = 1/2 + 1/2 for Dirichlet(1)
    assert check_addition_rule(Dirichlet(1.0), [1]) < 1e-15
    assert check_addition_rule(PitmanYor(0.5, 0.5), [2, 1]) < 1e-12
    assert check_addition_rule(IdenticalDegenerate(), [3]) == 0.0
    assert check_addition_rule(IidDegenerate(), [1, 1]) == 0.0


def test_addition_rule_random_compositions():
    rng = np.random.default_rng(3)
    models = [Dirichlet(0.5), Dirichlet(1.0), Dirichlet(3.0),
              PitmanYor(0.25, 0.5), PitmanYor(0.5, 1.0)]
    for model in models:
        worst = 0.0
        for _ in range(500):
            while True:
                sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 6)))]
                if sum(sizes) <= 10:
                    break
            worst = max(worst, check_addition_rule(model, sizes))
        assert worst < 1e-12


def test_gibbs_factors_reproduce_eppf():
    # log_eppf(sizes) = log V(n, m) + sum_i log W(n_i), -inf cases included
    rng = np.random.default_rng(7)
    models = [Dirichlet(0.4), Dirichlet(2.5), PitmanYor(0.0, 1.5), PitmanYor(0.3, 1.2),
              PitmanYor(0.6, -0.4), IidDegenerate(), IdenticalDegenerate()]
    for model in models:
        infinite = 0
        for _ in range(300):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 6)))]
            log_v, log_w = model.log_gibbs_factors(sum(sizes))
            assert log_v.shape == log_w.shape == (sum(sizes),)
            expected = log_eppf(model, sizes)
            got = log_v[len(sizes) - 1] + sum(log_w[s - 1] for s in sizes)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
            infinite += expected == NEG_INF
        degenerate = isinstance(model, (IidDegenerate, IdenticalDegenerate))
        assert (infinite > 0) == degenerate


def test_tie_probabilities():
    assert tie_probability(Dirichlet(1.0)) == 0.5
    assert tie_probability(PitmanYor(0.5, 0.5)) == pytest.approx(1 / 3)
    assert tie_probability(IidDegenerate()) == 0.0
    assert tie_probability(IdenticalDegenerate()) == 1.0


def test_tie_probability_equals_pair_eppf():
    for model in (Dirichlet(0.3), Dirichlet(2.0), PitmanYor(0.4, 0.9)):
        assert tie_probability(model) == pytest.approx(
            math.exp(log_eppf(model, [2])), rel=1e-14
        )


def test_nig_tie_probability():
    # quadrature oracle for E1(1)
    e1, _ = integrate.quad(lambda t: math.exp(-t) / t, 1.0, np.inf, limit=200)
    assert nig_tie_probability(1.0) == pytest.approx(0.5 * math.e * e1, rel=1e-8)
    assert nig_tie_probability(1.0) == pytest.approx(0.29817, abs=5e-6)
    assert nig_tie_probability(100.0) < 0.02
    assert nig_tie_probability(1e-4) <= 0.5 + 1e-3
    with pytest.raises(ValueError):
        nig_tie_probability(0.0)


def test_prediction_weights_closed_forms():
    existing, new = prediction_weights(Dirichlet(2.0), [3, 1])
    assert existing == pytest.approx([3 / 6, 1 / 6])
    assert new == pytest.approx(2 / 6)
    existing, new = prediction_weights(PitmanYor(0.5, 0.5), [1])
    assert existing == pytest.approx([0.5 / 1.5])
    assert new == pytest.approx(1.0 / 1.5)
    existing, new = prediction_weights(Dirichlet(9.0), [])
    assert len(existing) == 0 and new == 1.0
    existing, new = prediction_weights(IdenticalDegenerate(), [4])
    assert existing == pytest.approx([1.0]) and new == 0.0
    existing, new = prediction_weights(IidDegenerate(), [1, 1])
    assert np.all(existing == 0.0) and new == 1.0


def test_prediction_weights_match_eppf_ratios_and_sum_to_one():
    rng = np.random.default_rng(4)
    for model in (Dirichlet(1.3), PitmanYor(0.35, 0.8)):
        for _ in range(50):
            counts = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            existing, new = prediction_weights(model, counts)
            base = log_eppf(model, counts)
            for j in range(len(counts)):
                grown = counts.copy()
                grown[j] += 1
                assert existing[j] == pytest.approx(
                    math.exp(log_eppf(model, grown) - base), rel=1e-10
                )
            assert new == pytest.approx(
                math.exp(log_eppf(model, counts + [1]) - base), rel=1e-10
            )
            assert existing.sum() + new == pytest.approx(1.0, abs=1e-12)
            assert np.all(existing >= 0.0) and new >= 0.0


def test_sequential_consistency_prediction_vs_eppf():
    """Partition patterns simulated through the prediction rule occur with
    the frequencies the EPPF formula assigns them (n = 4, one million
    replicates propagated as state-grouped multinomials)."""
    replicates = 1_000_000
    rng = np.random.default_rng(6)
    for model in (Dirichlet(1.0), PitmanYor(0.5, 0.5)):
        # restricted-growth prefix -> number of replicate paths currently there
        states = {(0,): replicates}
        for _ in range(3):
            nxt = {}
            for pattern, mass in states.items():
                counts = [pattern.count(s) for s in range(max(pattern) + 1)]
                existing, new = prediction_weights(model, counts)
                probs = np.append(existing, new)
                draws = rng.multinomial(mass, probs / probs.sum())
                for slot, cnt in enumerate(draws):
                    if cnt:
                        key = pattern + (slot,)
                        nxt[key] = nxt.get(key, 0) + int(cnt)
            states = nxt
        for pattern, mass in states.items():
            sizes = [pattern.count(s) for s in range(max(pattern) + 1)]
            p_exact = math.exp(log_eppf(model, sizes))
            se = math.sqrt(p_exact * (1.0 - p_exact) / replicates)
            assert abs(mass / replicates - p_exact) < 3.5 * se + 1e-9


def test_parameter_validation():
    with pytest.raises(ValueError):
        Dirichlet(0.0)
    with pytest.raises(ValueError):
        PitmanYor(1.0, 1.0)
    with pytest.raises(ValueError):
        PitmanYor(0.5, -0.5)
    with pytest.raises(ValueError):
        log_eppf(Dirichlet(1.0), [])
    with pytest.raises(ValueError):
        prediction_weights(IdenticalDegenerate(), [2, 1])
