import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betaln

from esbmix import mcmc
from esbmix.analytics import enumerate_partitions, sample_kn
from esbmix.eppf import Dirichlet, IdenticalDegenerate, IidDegenerate, PitmanYor
from esbmix.mcmc import (
    LOG_2PI,
    BivariateNormalInvWishart,
    FitConfig,
    FitResult,
    GibbsState,
    RandomRho,
    TraceRecord,
    UnivariateNormalGamma,
    _beta_logpdf,
    _rho_log_conditional,
    _slice_sample_logit,
    cluster_assign,
    complete_data_log_score,
    default_kernel,
    eap_density,
    ensure_truncation,
    fit,
    gibbs_sweep,
    initial_state,
    map_select,
    posterior_kn,
    update_allocations,
    update_atoms,
    update_lengths,
    update_rho,
    update_slices,
)
from esbmix.sticks import (
    ExtensionCapError,
    IidBeta,
    LengthPrefix,
    SharedBeta,
    SpeciesDriven,
    dsb,
    sb_transform,
)


def make_state(values, atom_index, u, d, atoms, rho=None):
    prefix = LengthPrefix()
    seen = {}
    for pos, slot in enumerate(atom_index):
        if slot not in seen:
            seen[slot] = len(seen)
            prefix.append(seen[slot], values[slot])
        else:
            prefix.append(seen[slot])
    state = GibbsState(
        u=np.asarray(u, dtype=float),
        d=np.asarray(d, dtype=np.int64),
        lengths=prefix,
        weights=sb_transform(prefix.values),
        atoms=list(atoms),
        rho=rho,
    )
    return state


def test_update_slices_uniform_mean():
    rng = np.random.default_rng(0)
    state = make_state([0.4, 0.5], [0, 1], [0.1, 0.05], [0, 1],
                       [(0.0, 1.0), (1.0, 1.0)])
    w_before = state.weights.copy()
    total = np.zeros(2)
    reps = 100_000
    for _ in range(reps):
        update_slices(state, rng)
        total += state.u
    assert np.array_equal(state.weights, w_before)
    means = total / reps
    targets = state.weights[state.d] / 2.0
    ses = state.weights[state.d] / math.sqrt(12 * reps)
    assert np.all(np.abs(means - targets) < 3 * ses)
    assert np.all(state.u < state.weights[state.d])


def test_update_atoms_conjugate_posterior_mean():
    rng = np.random.default_rng(1)
    kern = UnivariateNormalGamma(mu0=0.0, lam=2.0, a=2.0, b=2.0)
    data = np.array([1.0, 2.0, 3.0, 2.5])
    state = make_state([0.5], [0], [0.01] * 4, [0] * 4, [(0.0, 1.0)])
    target = (kern.lam * kern.mu0 + data.sum()) / (kern.lam + len(data))
    draws = []
    for _ in range(4000):
        update_atoms(state, data, kern, rng)
        draws.append(state.atoms[0][0])
    draws = np.array(draws)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - target) < 3 * se


def test_update_atoms_empty_block_is_prior_draw():
    rng = np.random.default_rng(2)
    kern = UnivariateNormalGamma(mu0=5.0, lam=4.0, a=3.0, b=3.0)
    data = np.array([0.0])
    state = make_state([0.5, 0.5], [0, 1], [0.01], [0], [(0.0, 1.0), (0.0, 1.0)])
    means = []
    for _ in range(4000):
        update_atoms(state, data, kern, rng)
        means.append(state.atoms[1][0])  # component 1 never has data
    means = np.array(means)
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - kern.mu0) < 3 * se


def test_update_atoms_dominant_prior():
    rng = np.random.default_rng(3)
    kern = UnivariateNormalGamma(mu0=-7.0, lam=1e7, a=2.0, b=2.0)
    data = np.array([10.0])
    state = make_state([0.5], [0], [0.01], [0], [(0.0, 1.0)])
    update_atoms(state, data, kern, rng)
    assert abs(state.atoms[0][0] - kern.mu0) < 0.1


def test_update_allocations_single_admissible():
    rng = np.random.default_rng(4)
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    state = make_state([0.5, 0.9], [0, 1], [0.3], [0], [(0.0, 1.0), (0.0, 1.0)])
    # weights are (0.5, 0.45); u = 0.3 < both? force one: u = 0.47
    state.u = np.array([0.47])
    for _ in range(20):
        update_allocations(state, np.array([0.0]), kern, rng)
        assert state.d[0] == 0


def test_update_allocations_symmetric_pair():
    rng = np.random.default_rng(5)
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    state = make_state([0.5, 1.0], [0, 1], [0.2], [0],
                       [(1.5, 1.0), (-1.5, 1.0)])
    data = np.array([0.0])  # equidistant from both atoms
    hits = 0
    reps = 100_000
    for _ in range(reps):
        update_allocations(state, data, kern, rng)
        hits += state.d[0] == 0
    p = hits / reps
    assert abs(p - 0.5) < 3 * math.sqrt(0.25 / reps)


def test_update_allocations_outlier_never_picks_zero_density():
    rng = np.random.default_rng(6)
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    state = make_state([0.5, 1.0], [0, 1], [0.1], [0],
                       [(0.0, 1.0), (500.0, 1.0)])
    data = np.array([0.0])
    for _ in range(200):
        update_allocations(state, data, kern, rng)
        assert state.d[0] == 0


def _dense_allocations(state, data, kernel, rng):
    """Reference for update_allocations: the categorical draw over the whole
    n x phi matrix of kernel densities masked by the slices."""
    n = len(state.u)
    if n == 0:
        return state
    logp = kernel.log_pdf_matrix(data, state.atoms[: state.phi])
    admissible = state.u[:, None] < state.weights[None, :]
    if not np.all(admissible.any(axis=1)):
        raise RuntimeError("empty slice support: truncation level too small")
    shifted = logp - np.max(np.where(admissible, logp, -np.inf), axis=1, keepdims=True)
    probs = np.where(admissible, np.exp(shifted), 0.0)
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(n) * cum[:, -1]
    d = (cum <= draws[:, None]).sum(axis=1)
    assert np.all(probs[np.arange(n), d] > 0.0)
    state.d = d.astype(np.int64)
    return state


class PresetUniforms:
    """Generator stand-in whose random(n) returns the given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == len(self.values)
        return self.values.copy()


def allocation_state(weights, u, atoms):
    """State with the given stick weights and slices, the only parts of the
    state (with the atoms) that the allocation step reads."""
    phi = len(weights)
    state = make_state([(i + 1) / (phi + 1) for i in range(phi)], list(range(phi)),
                       u, [0] * len(u), atoms)
    state.weights = np.asarray(weights, dtype=float)
    return state


UNIVARIATE = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
BIVARIATE = BivariateNormalInvWishart(mu0=(0.0, 0.0), lam=1.0,
                                      psi=((1.0, 0.0), (0.0, 1.0)), nu=3.0)
ONE_BELOW_ONE = 1.0 - 2.0 ** -53  # the largest value Generator.random returns


@st.composite
def allocation_inputs(draw):
    phi = draw(st.integers(1, 20))
    # values from a small pool make equal weights common
    weight = st.one_of(st.sampled_from([0.4, 0.1, 0.1 / 3, 1e-3]), st.floats(1e-9, 1.0))
    weights = draw(st.lists(weight, min_size=phi, max_size=phi))
    ranked = sorted(weights)
    n = draw(st.integers(1, 30))
    # every datum admits the heaviest stick alone, when that stick is unique
    single = phi > 1 and ranked[-2] < ranked[-1] and draw(st.booleans())
    low = ranked[-2] if single else 0.0
    fraction = st.floats(0.0, 1.0, exclude_max=True)
    top_slice = np.nextafter(ranked[-1], 0.0)
    u = [min(low + f * (ranked[-1] - low), top_slice)
         for f in draw(st.lists(fraction, min_size=n, max_size=n))]
    lighter = [w for w in weights if w < ranked[-1]]
    if lighter and not single:
        # slices equal to a weight: that stick is inadmissible
        equal = draw(st.lists(st.sampled_from([None] + lighter), min_size=n, max_size=n))
        u = [x if w is None else w for x, w in zip(u, equal)]
    # far atoms and sharp kernels make admissible sticks underflow to 0
    location = st.one_of(st.sampled_from([-40.0, 0.0, 0.5, 3.0, 40.0]), st.floats(-50.0, 50.0))
    scale = st.sampled_from([1e-2, 1.0, 50.0])
    if draw(st.booleans()):
        kernel = BIVARIATE
        means = draw(st.lists(location, min_size=2 * phi, max_size=2 * phi))
        scales = draw(st.lists(scale, min_size=2 * phi, max_size=2 * phi))
        corr = draw(st.lists(st.floats(-0.9, 0.9), min_size=phi, max_size=phi))
        atoms = []
        for j in range(phi):
            s1, s2 = scales[2 * j], scales[2 * j + 1]
            c = corr[j] * math.sqrt(s1 * s2)
            atoms.append((np.array(means[2 * j: 2 * j + 2]), np.array([[s1, c], [c, s2]])))
        data = np.array(draw(st.lists(location, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    else:
        kernel = UNIVARIATE
        atoms = list(zip(draw(st.lists(location, min_size=phi, max_size=phi)),
                         draw(st.lists(scale, min_size=phi, max_size=phi))))
        data = np.array(draw(st.lists(location, min_size=n, max_size=n)))
    uniforms = draw(st.one_of(
        st.none(),
        st.lists(st.one_of(st.sampled_from([0.0, ONE_BELOW_ONE]), fraction),
                 min_size=n, max_size=n),
    ))
    return weights, u, atoms, data, kernel, uniforms, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(allocation_inputs())
def test_update_allocations_matches_dense_draw(inputs):
    # preset uniforms reach the categorical boundary
    weights, u, atoms, data, kernel, uniforms, seed = inputs

    def generator():
        return np.random.default_rng(seed) if uniforms is None else PresetUniforms(uniforms)

    ref, ref_rng = allocation_state(weights, u, atoms), generator()
    state, rng = allocation_state(weights, u, atoms), generator()
    with np.errstate(over="ignore"):  # the dense draw exponentiates masked entries too
        _dense_allocations(ref, data, kernel, ref_rng)
    update_allocations(state, data, kernel, rng)
    assert state.d.dtype == np.int64
    assert np.array_equal(state.d, ref.d)
    if uniforms is None:
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("last_admissible", [False, True])
def test_update_allocations_boundary_past_the_last_stick(last_admissible):
    # probabilities (1, 1e-16 x 7, p_8): the running sums stay 1, so even the
    # largest uniform scaled by the last of them lands on stick 0, whether
    # or not stick 8 is admissible
    tiny = math.sqrt(2.0 * math.log(1e16))  # exp(-tiny**2 / 2) = 1e-16
    atoms = [(0.0, 1.0)] + [(tiny, 1.0)] * 8
    u = [0.005 if last_admissible else 0.05]
    data = np.array([0.0])
    ref = allocation_state([0.1] * 8 + [0.01], u, atoms)
    state = allocation_state([0.1] * 8 + [0.01], u, atoms)
    _dense_allocations(ref, data, UNIVARIATE, PresetUniforms([ONE_BELOW_ONE]))
    update_allocations(state, data, UNIVARIATE, PresetUniforms([ONE_BELOW_ONE]))
    assert ref.d[0] == 0
    assert state.d[0] == 0


def test_update_allocations_empty_slice_support_raises():
    state = allocation_state([0.3, 0.5, 0.1], [0.2, 0.5, 0.05], [(0.0, 1.0)] * 3)
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="empty slice support"):
        update_allocations(state, np.zeros(3), UNIVARIATE, rng)
    assert rng.bit_generator.state == before


def large_allocation_state(kernel):
    """n = 20,000 draws around the origin on ten sticks, with slices drawn
    under allocations proportional to the weights, so most data admit
    several sticks.  The atoms include a far, flat one and sharp ones whose
    admissible densities underflow to 0."""
    gen = np.random.default_rng(61)
    n = 20_000
    weights = sb_transform(np.array([0.3, 0.25, 0.2, 0.3, 0.15, 0.35, 0.2, 0.1, 0.4, 0.25]))
    d = gen.choice(len(weights), size=n, p=weights / weights.sum())
    u = gen.random(n) * weights[d]
    if kernel.dim == 1:
        data = gen.normal(size=n)
        atoms = [(0.0, 1.0), (-44.8, 0.017), (0.3, 400.0), (1.5, 0.5), (-2.0, 4.0),
                 (40.0, 1.0), (0.0, 1e-6), (-0.7, 2.0), (2.5, 50.0), (-1.0, 1.0)]
    else:
        data = gen.normal(size=(n, 2))
        shapes = [(1.0, 0.0, 1.0), (60.0, 0.0, 60.0), (1e-3, 0.0, 1e-3), (2.0, 1.9, 2.0),
                  (0.5, -0.45, 0.5), (1.0, 0.0, 1.0), (1e4, 0.0, 1e4), (3.0, 0.5, 1.0),
                  (0.02, 0.0, 0.02), (1.0, -0.99, 1.0)]
        centres = [(0.0, 0.0), (-44.8, 30.0), (0.3, -0.2), (1.0, 1.0), (-1.0, 1.0),
                   (40.0, -40.0), (0.0, 0.0), (-0.5, -1.5), (2.0, 0.0), (0.5, 0.5)]
        atoms = [(np.array(c), np.array([[s11, s21], [s21, s22]]))
                 for c, (s11, s21, s22) in zip(centres, shapes)]
    state = allocation_state(weights, u, atoms)
    return state, data


@pytest.mark.parametrize("kernel", [UNIVARIATE, BIVARIATE], ids=["univariate", "bivariate"])
def test_update_allocations_matches_dense_draw_at_large_n(kernel):
    ref, data = large_allocation_state(kernel)
    state, _ = large_allocation_state(kernel)
    ref_rng, rng = np.random.default_rng(62), np.random.default_rng(62)
    with np.errstate(over="ignore", under="ignore"):
        _dense_allocations(ref, data, kernel, ref_rng)
    update_allocations(state, data, kernel, rng)
    assert np.array_equal(state.d, ref.d)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the state exercises a long masked stick-major pass
    assert len(np.unique(state.d)) >= 8


@pytest.mark.parametrize("kernel", [UNIVARIATE, BIVARIATE], ids=["univariate", "bivariate"])
def test_update_allocations_peak_memory_per_visited_entry(kernel):
    # one stick-major float buffer (two for the bivariate kernel) and boolean
    # masks: the peak stays below 24 bytes per visited (stick, datum) entry
    state, data = large_allocation_state(kernel)
    visited_sticks = np.count_nonzero(state.weights > state.u.min())
    multi = np.count_nonzero(state.u < np.sort(state.weights)[-2])
    rng = np.random.default_rng(63)
    tracemalloc.start()
    try:
        update_allocations(state, data, kernel, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert multi > len(data) / 2
    assert peak < 24 * visited_sticks * multi


def _broadcast_log_pdf(kernel, data, atoms):
    """The data-major broadcast form of the kernels' log densities, from
    before the stick-major buffer; reference for its bits."""
    if kernel.dim == 1:
        y = np.asarray(data, dtype=float).reshape(-1)
        means = np.array([a[0] for a in atoms])
        taus = np.array([a[1] for a in atoms])
        z = (y[:, None] - means[None, :]) ** 2
        return 0.5 * (np.log(taus)[None, :] - LOG_2PI) - 0.5 * taus[None, :] * z
    y = np.asarray(data, dtype=float).reshape(-1, 2)
    mx, my, l11, l21, l22, lognorm = BivariateNormalInvWishart._factors(atoms)
    z1 = (y[:, :1] - mx) / l11
    z2 = ((y[:, 1:] - my) - l21 * z1) / l22
    return lognorm - 0.5 * (z1 * z1 + z2 * z2)


@pytest.mark.parametrize("kernel", [UNIVARIATE, BIVARIATE], ids=["univariate", "bivariate"])
def test_log_pdf_matrix_keeps_the_broadcast_bits(kernel):
    gen = np.random.default_rng(64)
    state, data = large_allocation_state(kernel)
    # far data, far atoms and sharp scales, plus random atoms of every size
    data = np.concatenate([data[:500], 1e3 * data[:20], 1e-8 * data[:20]])
    atoms = list(state.atoms)
    for _ in range(20):
        scale = 10.0 ** gen.uniform(-6, 6)
        if kernel.dim == 1:
            atoms.append((gen.normal(scale=50.0), scale))
        else:
            c = gen.uniform(-0.999, 0.999) * scale
            atoms.append((gen.normal(scale=50.0, size=2), np.array([[scale, c], [c, scale]])))
    with np.errstate(over="ignore"):
        ref = _broadcast_log_pdf(kernel, data, atoms)
        logp = kernel.log_pdf_matrix(data, atoms)
    assert logp.shape == (len(data), len(atoms))
    assert np.array_equal(logp, ref)
    d = gen.integers(0, len(atoms), size=len(data))
    with np.errstate(over="ignore"):
        at = kernel.log_pdf_at(data, atoms, d)
    assert np.array_equal(at, logp[np.arange(len(data)), d])


def _mask_loop_atoms(state, data, kernel, rng):
    """Reference for update_atoms: one boolean mask per stick."""
    data = np.asarray(data, dtype=float)
    for j in range(state.phi):
        block = data[state.d == j] if len(data) else data[:0]
        state.atoms[j] = kernel.sample_posterior(block, rng)
    return state


@pytest.mark.parametrize("kernel", [UNIVARIATE, BIVARIATE])
def test_update_atoms_matches_mask_loop(kernel):
    gen = np.random.default_rng(31)
    # 300 sticks need 16-bit sort keys
    for phi in [int(gen.integers(1, 9)) for _ in range(40)] + [300]:
        n = int(gen.integers(0, 50)) if phi < 300 else 600
        # some sticks hold no datum and take a prior draw
        occupied = gen.choice(phi, size=int(gen.integers(1, phi + 1)), replace=False)
        d = gen.choice(occupied, size=n)
        data = 3.0 * gen.normal(size=n if kernel.dim == 1 else (n, 2))
        atoms = [kernel.sample_prior(gen) for _ in range(phi)]
        values = [(i + 1) / (phi + 1) for i in range(phi)]
        ref = make_state(values, list(range(phi)), [0.01] * n, d, atoms)
        state = make_state(values, list(range(phi)), [0.01] * n, d, atoms)
        seed = int(gen.integers(2**32))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        _mask_loop_atoms(ref, data, kernel, ref_rng)
        update_atoms(state, data, kernel, rng)
        for new, old in zip(state.atoms, ref.atoms):
            assert all(np.array_equal(a, b) for a, b in zip(new, old))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert state.kn() == len(np.unique(d))


def test_update_lengths_full_range_when_unconstrained():
    # no data: every stick's interval is (0, 1) and the update must leave the
    # prior marginal Be(1, theta) intact
    rng = np.random.default_rng(7)
    theta = 2.0
    spec = dsb(1.0, theta)
    state = make_state([0.3], [0], [], [], [])
    state.u = np.empty(0)
    state.d = np.empty(0, dtype=np.int64)
    draws = []
    for _ in range(20_000):
        update_lengths(state, spec, rng)
        draws.append(state.lengths.values[0])
    assert stats.kstest(np.array(draws[100:]), stats.beta(1, theta).cdf).pvalue > 0.01


def test_update_lengths_identical_keeps_single_class():
    rng = np.random.default_rng(8)
    state = make_state([0.4], [0, 0, 0], [], [], [])
    state.u = np.empty(0)
    state.d = np.empty(0, dtype=np.int64)
    seen = set()
    for _ in range(200):
        update_lengths(state, SharedBeta(1.0, 1.0), rng)
        state.lengths.validate()
        assert len(state.lengths.distinct) == 1
        seen.add(state.lengths.distinct[0])
    assert len(seen) > 50  # the shared value must actually move


def test_update_lengths_iid_only_new_draws():
    rng = np.random.default_rng(9)
    # data on sticks 0 and 2 keep all three positions
    state = make_state([0.4, 0.6], [0, 1, 0], [0.1, 0.01], [0, 2], [None] * 3)
    update_lengths(state, IidBeta(1.0, 1.0), rng)
    state.lengths.validate()
    assert state.lengths.counts == [1, 1, 1]


def test_update_lengths_new_branch_frequency():
    # single-stick state: with one other stick instantiated... none, counts
    # minus the stick itself are empty, so the new-value branch always fires
    rng = np.random.default_rng(10)
    state = make_state([0.3], [0], [], [], [])
    state.u = np.empty(0)
    state.d = np.empty(0, dtype=np.int64)
    vals = set()
    for _ in range(50):
        update_lengths(state, dsb(2.0, 1.0), rng)
        vals.add(state.lengths.distinct[0])
    assert len(vals) == 50


def test_update_lengths_respects_slice_constraints():
    rng = np.random.default_rng(11)
    spec = dsb(1.0, 1.0)
    kern = UnivariateNormalGamma(0.0, 0.01, 0.5, 0.5)
    data = np.concatenate([rng.normal(-3, 1, 20), rng.normal(3, 1, 20)])
    cfg = FitConfig(prior=spec, kernel=kern, iterations=10, burn_in=1, seed=1)
    state = initial_state(data, cfg, rng)
    for _ in range(50):
        gibbs_sweep(state, data, cfg, rng)
        assert np.all(state.u < state.weights[state.d])
        state.validate()


def test_update_lengths_skips_zero_weight_empty_stick():
    # the middle stick's weight underflows to 0 and holds no datum; the step
    # reads the data only through the counts, so every position moves
    rng = np.random.default_rng(12)
    state = make_state([0.6, 5e-324, 0.5], [0, 1, 2], [0.3, 0.1], [0, 2], [None] * 3)
    assert state.weights[1] == 0.0
    update_lengths(state, IidBeta(1.0, 1.0), rng)
    assert state.infeasible_slices == 0
    assert state.lengths.values[0] != 0.6
    assert np.array_equal(state.weights, sb_transform(state.lengths.values))


class PresetBetas:
    """Generator stand-in whose first Beta draws are preset; every later
    draw comes from a seeded Generator."""

    def __init__(self, betas, seed=0):
        self.betas = list(betas)
        self.rng = np.random.default_rng(seed)

    def random(self):
        return self.rng.random()

    def beta(self, a, b):
        return self.betas.pop(0) if self.betas else self.rng.beta(a, b)


def test_update_lengths_new_value_stays_below_one():
    # Be(a + N, b + M) draws that round onto 1.0 or 0.0 are no lengths: the
    # class value is redrawn, and each redraw counted
    v = 1.0 - 2.0 ** -53
    state = make_state([v], [0], [np.nextafter(v, 0.0)], [0], [None])
    update_lengths(state, dsb(1.0, 0.5), PresetBetas([1.0, 0.0, v]))
    state.lengths.validate()
    assert state.infeasible_slices == 2
    assert state.lengths.distinct == [v]
    assert np.isfinite(_beta_logpdf(state.lengths.distinct[0], 1.0, 0.5))


def test_update_lengths_no_free_double_is_infeasible():
    # a class value equal to another class's value would merge the two
    # classes: it is redrawn and counted
    state = make_state([0.5, 0.25], [0, 1], [0.1, 0.1], [0, 1], [None] * 2)
    update_lengths(state, IidBeta(1.0, 1.0), PresetBetas([0.5, 0.5, 0.25]))
    assert state.infeasible_slices == 1
    assert state.lengths.distinct == [0.5, 0.25]
    state.lengths.validate()
    assert np.array_equal(state.weights, sb_transform(state.lengths.values))


def test_geometric_class_value_follows_its_collapsed_law():
    # one Geometric class, SharedBeta(2, 3), over the k = 4 sticks up to the
    # last occupied one: r = (1, 2, 0, 1) data on the sticks and t = (3, 1,
    # 1, 0) on later ones, so the shared value is an exact Be(2 + 4, 3 + 5)
    # draw whatever the slices
    state = make_state([0.5], [0] * 6, [0.01] * 4, [0, 1, 1, 3], [None] * 6)
    rng = np.random.default_rng(2011)
    draws = np.empty(20_000)
    for i in range(len(draws)):
        update_lengths(state, SharedBeta(2.0, 3.0), rng)
        draws[i] = state.lengths.distinct[0]
    assert state.infeasible_slices == 0
    assert stats.kstest(draws, stats.beta(6.0, 8.0).cdf).pvalue > 0.01


@pytest.mark.parametrize("spec", [dsb(0.7, 1.5), SpeciesDriven(PitmanYor(0.5, 1.0), 2.0, 1.0)],
                         ids=["dsb", "pitman-yor"])
def test_partition_move_matches_its_exact_law(spec):
    # with d fixed, the tie partition pi of the k = 4 positions up to the
    # last occupied stick has the law
    # EPPF(pi) prod_s B(a + N_s, b + M_s) / B(a, b), N_s and M_s the data on
    # and after the sticks of class s.  The step
    # numbers classes by first appearance, so its atom_index is the
    # partition's restricted growth string.  Every fourth sweep is counted;
    # a Pearson test over the Bell(4) = 15 partitions.
    d = [0, 0, 0, 1, 3, 3, 2]
    r, t = [3, 1, 1, 2], [4, 3, 2, 0]
    a, b = spec.base_a, spec.base_b
    exact = {}
    for part in enumerate_partitions(4):
        rgs = [next(i for i, block in enumerate(part) if pos in block) for pos in range(1, 5)]
        exact[tuple(rgs)] = math.exp(
            spec.eppf.log_eppf([len(block) for block in part])
            + sum(betaln(a + sum(r[i - 1] for i in block), b + sum(t[i - 1] for i in block))
                  - betaln(a, b) for block in part))
    state = make_state([0.5], [0] * 4, [0.01] * len(d), d, [None] * 4)
    rng = np.random.default_rng(2000)
    visits = dict.fromkeys(exact, 0)
    for i in range(24_000):
        update_lengths(state, spec, rng)
        if i % 4 == 0:
            visits[tuple(state.lengths.atom_index)] += 1
    total = sum(exact.values())
    expected = np.array([exact[key] / total * 6000 for key in exact])
    observed = np.array([visits[key] for key in exact])
    assert stats.chisquare(observed, expected).pvalue > 1e-3, (observed, expected.round(1))


def test_split_merge_matches_its_exact_law():
    # the move alone, the tie partition of the lengths fixed: its target is
    # prod_s B(a + N_s, b + M_s) prod_j m(y_{S_j}) over the allocations of
    # the three data, nearly all of whose mass has max d < 6.  The move
    # repeats its state often, so the visit frequencies of the likelier
    # allocations are compared with their target by batch means: 20
    # batches of 1500 moves, a t statistic per allocation.
    spec, kernel = SpeciesDriven(Dirichlet(1.0), 2.0, 1.0), UNIVARIATE
    slots = [0, 1, 0, 2, 1, 0, 3, 0]
    data = np.array([-1.0, -0.4, 1.2])
    exact = {}
    for d in itertools.product(range(6), repeat=len(data)):
        r = np.bincount(d, minlength=len(slots))
        t = len(d) - np.cumsum(r)
        exact[d] = math.exp(
            betaln(2.0 + np.bincount(slots, r), 1.0 + np.bincount(slots, t)).sum()
            + sum(kernel.log_marginal(data[np.array(d) == j]) for j in set(d)))
    total = sum(exact.values())
    likely = [d for d in exact if exact[d] > 0.01 * total]
    state = make_state([0.1, 0.3, 0.5, 0.7], slots, [0.01] * 3, [0, 0, 0],
                       [kernel.sample_prior(np.random.default_rng(0))] * len(slots))
    rng = np.random.default_rng(2004)
    freq = np.zeros((20, len(likely)))
    for batch in freq:
        visits = Counter()
        for _ in range(1500):
            mcmc._split_merge(state, data, spec, kernel, rng)
            visits[tuple(state.d.tolist())] += 1
        batch[:] = [visits[d] / 1500 for d in likely]
    assert state.lengths.atom_index[:len(slots)] == slots
    target = np.array([exact[d] for d in likely]) / total
    t_stat = (freq.mean(axis=0) - target) / (freq.std(axis=0, ddof=1) / math.sqrt(20))
    assert np.max(np.abs(t_stat)) < 5.0, (likely, t_stat.round(1))


def test_label_swap_closes_an_empty_stick():
    # stick 0 is empty and stick 1 holds both data: the swap has ratio
    # (1 - v_1)^0 / (1 - v_0)^2 > 1, so it is made without a uniform, and the
    # data, atom and length of stick 1 move to stick 0
    state = make_state([0.3, 0.4], [0, 1], [0.1, 0.1], [1, 1], ["empty", "held"])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    mcmc._swap_labels(state, dsb(1.0, 1.0), UNIVARIATE, rng)
    assert rng.bit_generator.state == before
    assert state.d.tolist() == [0, 0] and state.atoms == ["held", "empty"]
    assert state.lengths.values.tolist() == [0.4, 0.3]
    state.lengths.validate()
    assert np.array_equal(state.weights, sb_transform(state.lengths.values))


OPEN_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def length_update_inputs(draw):
    """A valid state for the length step: a random tie pattern (forced by
    the model for the iid and identical limits), lengths anywhere in (0, 1)
    so late weights can underflow to 0, and n >= 0 slices on a random subset
    of the sticks with positive weight, which leaves empty sticks between
    occupied ones."""
    model = draw(st.sampled_from(
        [Dirichlet(1.0), PitmanYor(0.5, 1.0), IidDegenerate(), IdenticalDegenerate()]))
    phi = draw(st.integers(1, 30))
    if isinstance(model, IdenticalDegenerate):
        atom_index = [0] * phi
    elif isinstance(model, IidDegenerate):
        atom_index = list(range(phi))
    else:
        atom_index = [0]
        for _ in range(phi - 1):
            atom_index.append(draw(st.integers(0, max(atom_index) + 1)))
    k = max(atom_index) + 1
    values = draw(st.lists(OPEN_UNIT, min_size=k, max_size=k, unique=True))
    weights = sb_transform([values[s] for s in atom_index])
    reachable = np.flatnonzero(weights > 0.0).tolist()
    n = draw(st.integers(0, 40)) if reachable else 0
    d = [draw(st.sampled_from(reachable)) for _ in range(n)]
    u = [draw(OPEN_UNIT) * weights[j] for j in d]
    # a slice drawn on a subnormal weight can round to 0 or up to the weight
    assume(all(0.0 < x < weights[j] for x, j in zip(u, d)))
    state = make_state(values, atom_index, u, d, [(0.0, 1.0)] * phi)
    base_b = draw(st.sampled_from([0.5, 1.0, 3.0]))
    return state, model, base_b, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(length_update_inputs(), st.integers(1, 5))
def test_ensure_truncation_keeps_state_valid(inputs, min_phi):
    state, model, base_b, seed = inputs
    kernel = UnivariateNormalGamma(0.0, 0.01, 0.5, 0.5)
    try:
        ensure_truncation(state, SpeciesDriven(model, 1.0, base_b), kernel,
                          np.random.default_rng(seed), min_phi)
    except ExtensionCapError:
        # a tiny shared length can need more sticks than the cap allows
        reject()
    state.validate()
    assert state.phi >= min_phi


@settings(max_examples=150, deadline=None)
@given(length_update_inputs())
def test_update_lengths_keeps_state_valid(inputs):
    # every invariant GibbsState.validate checks except the slices and the
    # truncation coverage: the sweep draws the slices next, then truncates
    state, model, base_b, seed = inputs
    update_lengths(state, SpeciesDriven(model, 1.0, base_b), np.random.default_rng(seed))
    state.lengths.validate()
    assert state.phi == len(state.atoms)
    assert np.array_equal(state.weights, sb_transform(state.lengths.values))


def test_rho_conditional_reductions():
    # m=2, K=2: density  proportional to (1-rho): Beta(1,2), mean 1/3
    # m=2, K=1: proportional to rho: Beta(2,1), mean 2/3
    rng = np.random.default_rng(12)
    fixtures = {2: ([0.3, 0.6], [0, 1]), 1: ([0.3], [0, 0])}
    for k_distinct, target in ((2, 1 / 3), (1, 2 / 3)):
        values, atom_index = fixtures[k_distinct]
        state = make_state(values, atom_index, [], [], [], rho=0.5)
        state.u = np.empty(0)
        state.d = np.empty(0, dtype=np.int64)
        draws = []
        for _ in range(20_000):
            update_rho(state, rng)
            draws.append(state.rho)
        draws = np.array(draws[200:])
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        # slice chains autocorrelate; allow a generous factor on the se
        assert abs(draws.mean() - target) < 6 * se


def test_rho_step_out_from_the_extremes():
    # the step-out has no cap. From rho = 1e-12 with every stick tied it walks
    # about 33 widths right, past where a cap of 20 stopped; from 1 - 1e-12
    # with every stick distinct it walks left to the end of the support at
    # x = -700, where e^-x nears overflow
    rng = np.random.default_rng(13)
    for k_distinct in (1, 50):
        values = [0.3 + 0.01 * i for i in range(k_distinct)]
        atom_index = [i % k_distinct for i in range(50)]
        for rho in (1e-12, 1.0 - 1e-12):
            state = make_state(values, atom_index, [], [], [], rho=rho)
            assert (state.phi, len(state.lengths.distinct)) == (50, k_distinct)
            started = time.perf_counter()
            update_rho(state, rng)
            assert time.perf_counter() - started < 1.0
            assert 0.0 < state.rho < 1.0


def test_rho_move_starts_at_the_chain_state(monkeypatch):
    # the move starts from the chain's own rho, however close to 0 it is
    starts = []

    def recording(x0, log_f, rng):
        starts.append(x0)
        return _slice_sample_logit(x0, log_f, rng)

    monkeypatch.setattr(mcmc, "_slice_sample_logit", recording)
    state = make_state([0.3, 0.4], [0, 1], [], [], [], rho=1e-15)
    update_rho(state, np.random.default_rng(15))
    assert starts == [math.log(1e-15 / (1.0 - 1e-15))]


def test_rho_slice_kernel_matches_grid_oracle():
    # fixed (m, K): long slice-chain histogram vs a 2000-point grid
    # discretization of the same density
    rng = np.random.default_rng(14)
    m, k_distinct = 8, 3
    grid = np.linspace(0.5 / 2000, 1 - 0.5 / 2000, 2000)
    logpdf = np.array([_rho_log_conditional(r, m, k_distinct) for r in grid])
    pdf = np.exp(logpdf - logpdf.max())
    pdf /= pdf.sum()
    bins = np.linspace(0, 1, 51)
    oracle, _ = np.histogram(grid, bins=bins, weights=pdf)

    def log_f(x):
        rho = 1.0 / (1.0 + math.exp(-x))
        lp = _rho_log_conditional(rho, m, k_distinct)
        return lp + math.log(rho) + math.log1p(-rho)

    x = 0.0
    draws = np.empty(300_000)
    for i in range(len(draws)):
        x = _slice_sample_logit(x, log_f, rng)
        draws[i] = 1.0 / (1.0 + math.exp(-x))
    emp, _ = np.histogram(draws[1000:], bins=bins)
    emp = emp / emp.sum()
    tv = 0.5 * np.abs(emp - oracle).sum()
    assert tv < 0.01


def test_gibbs_sweep_fixed_point_smoke():
    rng = np.random.default_rng(15)
    kern = UnivariateNormalGamma(0.0, 1.0, 5.0, 5.0)
    data = np.array([0.0])
    cfg = FitConfig(prior=dsb(1.0, 1.0), kernel=kern, iterations=10, burn_in=1, seed=2)
    state = initial_state(data, cfg, rng)
    stays = 0
    for _ in range(200):
        gibbs_sweep(state, data, cfg, rng)
        stays += state.kn() == 1
    assert stays / 200 > 0.95


def test_complete_data_log_score_hand_fixture():
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    data = np.array([0.0])
    good = make_state([0.5], [0], [0.2], [0], [(0.0, 1.0)])
    bad = make_state([0.5], [0], [0.2], [0], [(4.0, 1.0)])
    spec = dsb(1.0, 1.0)
    s_good = complete_data_log_score(good, data, kern, spec)
    s_bad = complete_data_log_score(bad, data, kern, spec)
    # likelihood differs by 0.5*tau*(16-0) = 8 and the atom prior term
    # N(m | mu0, (lam tau)^-1) by another 0.5*lam*tau*16 = 8
    assert s_good - s_bad == pytest.approx(16.0)
    # indicator violation scores -inf
    broken = make_state([0.5], [0], [0.7], [0], [(0.0, 1.0)])
    assert complete_data_log_score(broken, data, kern, spec) == -np.inf


def test_map_select_rules():
    a = make_state([0.5], [0], [0.2], [0], [(0.0, 1.0)])
    b = make_state([0.5], [0], [0.2], [0], [(0.0, 1.0)])
    a.map_score, b.map_score = -5.0, -3.0
    assert map_select([a, b]) == 1
    b.map_score = -5.0
    assert map_select([a, b]) == 0  # earliest wins ties
    assert map_select([a]) == 0
    # a sweep without a collapsed score is left out; with none left, the
    # complete-data score decides
    a.map_score = math.nan
    assert map_select([a, b]) == 1
    b.map_score = math.nan
    a.log_score, b.log_score = -2.0, -1.0
    assert map_select([a, b]) == 1
    assert map_select([a]) == 0


@pytest.mark.parametrize("kernel", [UNIVARIATE, BIVARIATE], ids=["univariate", "bivariate"])
def test_log_marginal_is_the_product_of_predictives(kernel):
    # m(y_1..y_m) = prod_i p(y_i | y_<i), each predictive a Student t
    rng = np.random.default_rng(41)
    ys = 2.0 * rng.normal(size=(7, 2) if kernel.dim == 2 else 7) + 1.0
    ref = 0.0
    for i in range(len(ys)):
        if kernel.dim == 1:
            mu, lam, a, b = kernel.posterior_params(ys[:i])
            ref += stats.t.logpdf(ys[i], 2.0 * a, mu, math.sqrt(b * (lam + 1.0) / (a * lam)))
        else:
            mu, lam, psi, nu = kernel.posterior_params(ys[:i])
            ref += stats.multivariate_t.logpdf(ys[i], mu, psi * (lam + 1.0) / (lam * (nu - 1.0)),
                                               df=nu - 1.0)
    assert kernel.log_marginal(ys) == pytest.approx(ref, rel=1e-10)
    assert kernel.log_marginal(ys[:0]) == 0.0
    # the same block read through the row sums of its sufficient statistics
    assert kernel.log_marginal(None, kernel.suff(ys).sum(axis=1)) == pytest.approx(ref, rel=1e-10)


def test_fit_stores_the_collapsed_score_on_each_snapshot():
    from esbmix.analytics import ENUMERATION_CAP, allocation_probability

    rng = np.random.default_rng(43)
    data = np.concatenate([rng.normal(-3, 1, 6), rng.normal(3, 1, 6)])
    kern = default_kernel(data)
    cfg = FitConfig(prior=RandomRho(1.0), kernel=kern, iterations=60, burn_in=20, thin=4, seed=8)
    res = fit(data, cfg)
    assert res.unscored_samples == 0
    for sample in res.samples:
        spec = dsb((1.0 - sample.rho) / sample.rho, 1.0)
        ref = math.log(allocation_probability(sample.d + 1, spec.eppf, spec.base_a, spec.base_b))
        ref += sum(ng_log_marginal(data[sample.d == j], kern.mu0, kern.lam, kern.a, kern.b)
                   for j in set(sample.d.tolist()))
        assert sample.map_score == pytest.approx(ref, rel=1e-10)
    # a snapshot whose max d exceeds the cap is left unscored, and counted
    wide = res.samples[0].snapshot()
    wide.map_score = math.nan
    wide.d[0] = ENUMERATION_CAP
    assert mcmc._score_samples([wide], data, cfg) == 1
    assert math.isnan(wide.map_score)


def test_eap_density_single_component():
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    state = make_state([0.9], [0], [0.3], [0], [(1.0, 2.0)])
    grid = np.linspace(-5, 5, 101)
    dens = eap_density([state], kern, grid)
    # N(1, 1/2): sqrt(2 / (2 pi)) exp(-(x - 1)^2)
    assert dens == pytest.approx(np.exp(-(grid - 1.0) ** 2) / math.sqrt(math.pi))
    assert np.all(dens >= 0.0)


def _dense_admissibility_coefficients(u, w):
    """The n x phi mask form: (1/n) sum_k 1{u_k < w_j} / |A_k|."""
    adm = u[:, None] < w[None, :]
    sizes = adm.sum(axis=1)
    return (adm / sizes[:, None]).sum(axis=0) / len(u)


@st.composite
def admissibility_inputs(draw):
    phi = draw(st.integers(1, 20))
    # a small pool makes ties common, and 0.0 stands for an underflowed weight
    weight = st.one_of(st.sampled_from([0.0, 0.4, 0.1, 0.1 / 3, 1e-3]), st.floats(1e-9, 1.0))
    weights = draw(st.lists(weight, min_size=phi, max_size=phi))
    top = max(weights)
    assume(top > 0.0)
    n = draw(st.integers(1, 30))
    fraction = st.floats(0.0, 1.0, exclude_max=True)
    below_top = [min(f * top, np.nextafter(top, 0.0))
                 for f in draw(st.lists(fraction, min_size=n, max_size=n))]
    # slices equal to a lighter weight, which then leaves that stick out
    lighter = [w for w in weights if w < top]
    equal = draw(st.lists(st.sampled_from([None] + lighter), min_size=n, max_size=n))
    u = [x if w is None else w for x, w in zip(below_top, equal)]
    return np.array(u), np.array(weights)


@settings(max_examples=300, deadline=None)
@given(admissibility_inputs())
def test_admissibility_coefficients_match_the_dense_mask(inputs):
    u, weights = inputs
    state = GibbsState(u=u, d=np.zeros(len(u), dtype=np.int64), lengths=LengthPrefix(),
                       weights=weights, atoms=[])
    got = mcmc._admissibility_coefficients(state)
    np.testing.assert_allclose(got, _dense_admissibility_coefficients(u, weights),
                               rtol=1e-12, atol=0.0)


def test_no_admissible_component_raises():
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    # weights (0.5, 0.3): the slice 0.5 admits neither stick
    for u in ([0.2, 0.5], [0.7, 0.1]):
        state = make_state([0.5, 0.6], [0, 1], u, [0, 0], [(0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(RuntimeError, match="no admissible component"):
            eap_density([state], kern, np.linspace(-1.0, 1.0, 5))
        with pytest.raises(RuntimeError, match="no admissible component"):
            cluster_assign(state, np.array([0.0, 0.5]), kern)


@pytest.mark.parametrize("kernel", [UNIVARIATE, BIVARIATE], ids=["univariate", "bivariate"])
def test_eap_density_matches_the_component_sum(kernel):
    rng = np.random.default_rng(19)
    if kernel.dim == 1:
        grid = np.linspace(-4.0, 4.0, 41)

        def pdf(atom):
            m, tau = atom
            return np.sqrt(tau / (2.0 * math.pi)) * np.exp(-0.5 * tau * (grid - m) ** 2)
    else:
        grid = rng.normal(size=(60, 2)) * 2.0

        def pdf(atom):
            return stats.multivariate_normal.pdf(grid, atom[0], atom[1])

    phi, n = 6, 25
    samples = []
    for _ in range(4):
        values = list(rng.uniform(0.1, 0.6, phi))
        u = rng.uniform(0.0, sb_transform(values).max(), n)
        atoms = []
        for _ in range(phi):
            if kernel.dim == 1:
                atoms.append((rng.normal(0.0, 1.5), rng.uniform(0.5, 2.0)))
            else:
                s1, s2 = rng.uniform(0.5, 2.0, 2)
                c = rng.uniform(-0.5, 0.5) * math.sqrt(s1 * s2)
                atoms.append((rng.normal(0.0, 1.5, 2), np.array([[s1, c], [c, s2]])))
        samples.append(make_state(values, list(range(phi)), u, np.zeros(n, dtype=np.int64),
                                  atoms))
    ref = np.zeros(len(grid))
    for sample in samples:
        coef = _dense_admissibility_coefficients(sample.u, sample.weights)
        for c, atom in zip(coef, sample.atoms):
            ref += c * pdf(atom)
    ref /= len(samples)
    np.testing.assert_allclose(eap_density(samples, kernel, grid), ref, rtol=1e-12, atol=0.0)


def test_eap_density_integrates_to_one():
    rng = np.random.default_rng(16)
    data = np.concatenate([rng.normal(-2, 1, 40), rng.normal(2, 1, 40)])
    kern = default_kernel(data)
    cfg = FitConfig(prior=dsb(1.0, 1.0), kernel=kern, iterations=400, burn_in=200,
                    thin=2, seed=3)
    res = fit(data, cfg)
    grid = np.linspace(-12, 12, 481)
    dens = eap_density(res.samples, kern, grid)
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)
    assert np.all(dens >= 0.0)


def test_cluster_assign_separated_fixture():
    rng = np.random.default_rng(17)
    data = np.concatenate([rng.normal(-10, 1, 25), rng.normal(10, 1, 25)])
    kern = default_kernel(data)
    cfg = FitConfig(prior=dsb(1.0, 1.0), kernel=kern, iterations=600, burn_in=300,
                    thin=2, seed=4)
    res = fit(data, cfg)
    best = map_select(res.samples)
    sample = res.samples[best]
    labels = cluster_assign(sample, data, kern)
    # exactly two clusters that split the data at the true boundary
    assert len(np.unique(labels)) == 2
    assert len(np.unique(labels[:25])) == 1 and len(np.unique(labels[25:])) == 1
    assert labels[0] != labels[-1]
    assert len(np.unique(labels)) <= sample.kn()


def test_cluster_assign_single_component():
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    state = make_state([0.9], [0], [0.3, 0.2], [0, 0], [(0.0, 1.0)])
    labels = cluster_assign(state, np.array([0.1, -0.1]), kern)
    assert np.all(labels == 0)


def test_posterior_kn_summary():
    states = [make_state([0.5, 0.8], [0, 1], [0.1, 0.1, 0.1], [0, 1, 0], [(0, 1), (0, 1)])
              for _ in range(5)]
    # thin = 4: the trace holds every retained sweep, the samples every fourth
    trace = [TraceRecord(sweep=i, kn=states[i // 4].kn(), rho=None, log_score=0.0)
             for i in range(20)]
    cfg = FitConfig(prior=dsb(1.0, 1.0), kernel=UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0))
    summary = posterior_kn(FitResult(samples=states, trace=trace, config=cfg))
    assert summary.pmf == {2: 1.0}
    assert summary.replicates == 20 and summary.n == 3
    assert sum(summary.pmf.values()) == pytest.approx(1.0)


def test_geometric_fit_all_lengths_tied():
    rng = np.random.default_rng(18)
    data = rng.normal(0, 1, 30)
    kern = default_kernel(data)
    cfg = FitConfig(prior=SharedBeta(1.0, 1.0), kernel=kern, iterations=200,
                    burn_in=100, thin=2, seed=5)
    res = fit(data, cfg, check_invariants=True)
    assert all(len(s.lengths.distinct) == 1 for s in res.samples)
    shared = [s.lengths.distinct[0] for s in res.samples]
    assert len(set(shared)) > 10  # and it mixes


def test_random_rho_fit_emits_rho_trace():
    rng = np.random.default_rng(19)
    data = np.concatenate([rng.normal(-3, 1, 30), rng.normal(3, 1, 30)])
    kern = default_kernel(data)
    cfg = FitConfig(prior=RandomRho(theta=1.0), kernel=kern, iterations=300,
                    burn_in=100, thin=2, seed=6)
    res = fit(data, cfg)
    rhos = np.array([r.rho for r in res.trace])
    assert np.all((rhos > 0) & (rhos < 1))
    assert rhos.std() > 0.0


def test_bivariate_kernel_updates():
    rng = np.random.default_rng(20)
    kern = BivariateNormalInvWishart(mu0=(0.0, 0.0), lam=1.0,
                                     psi=((1.0, 0.0), (0.0, 1.0)), nu=3.0)
    ys = rng.normal(size=(40, 2)) + np.array([2.0, -1.0])
    target = (kern.lam * np.zeros(2) + len(ys) * ys.mean(axis=0)) / (kern.lam + len(ys))
    draws = np.array([kern.sample_posterior(ys, rng)[0] for _ in range(2000)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - target) < 3.5 * se)
    # covariance draws are SPD
    for _ in range(50):
        _, sigma = kern.sample_posterior(ys, rng)
        assert np.linalg.eigvalsh(sigma).min() > 0


IDENTITY = ((1.0, 0.0), (0.0, 1.0))
NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("make, args", [
    (UnivariateNormalGamma, (0.0, NAN, 0.5, 0.5)),
    (UnivariateNormalGamma, (NAN, 1.0, 0.5, 0.5)),
    (UnivariateNormalGamma, (0.0, 1.0, INF, 0.5)),
    (BivariateNormalInvWishart, ((0.0, 0.0), NAN, IDENTITY, 3.0)),
    (BivariateNormalInvWishart, ((0.0, 0.0), 1.0, IDENTITY, NAN)),
    (BivariateNormalInvWishart, ((0.0, 0.0), 1.0, IDENTITY, INF)),
    (BivariateNormalInvWishart, ((INF, 0.0), 1.0, IDENTITY, 3.0)),
    (BivariateNormalInvWishart, ((0.0,), 1.0, IDENTITY, 3.0)),
    (BivariateNormalInvWishart, ((0.0, 0.0, 0.0), 1.0, IDENTITY, 3.0)),
    (BivariateNormalInvWishart, ((0.0, 0.0), 1.0, ((1.0, NAN), (NAN, 1.0)), 3.0)),
    (BivariateNormalInvWishart, ((0.0, 0.0), 1.0, ((INF, 0.0), (0.0, 1.0)), 3.0)),
    (RandomRho, (NAN,)),
    (RandomRho, (INF,)),
], ids=["ng-lam-nan", "ng-mu0-nan", "ng-a-inf", "niw-lam-nan", "niw-nu-nan", "niw-nu-inf",
        "niw-mu0-inf", "niw-mu0-short", "niw-mu0-long", "niw-psi-nan", "niw-psi-inf",
        "rho-theta-nan", "rho-theta-inf"])
def test_constructors_reject_non_finite_or_misshaped(make, args):
    with pytest.raises(ValueError):
        make(*args)


# the second is the default kernel: lam = 0.01 puts far atoms in the test,
# and nu = 2 draws Sigma with condition numbers up to about 5e5 here
SCIPY_KERNELS = [
    BivariateNormalInvWishart(mu0=(0.3, -1.0), lam=0.5, psi=((2.0, 0.4), (0.4, 1.0)), nu=3.5),
    BivariateNormalInvWishart(mu0=(0.0, 0.0), lam=0.01, psi=IDENTITY, nu=2.0),
]


@pytest.mark.parametrize("kern", SCIPY_KERNELS)
def test_bivariate_densities_match_scipy(kern):
    rng = np.random.default_rng(31)
    atoms = [kern.sample_prior(rng) for _ in range(500)]
    psi = np.array(kern.psi)
    for m, sigma in atoms:
        ref = (stats.multivariate_normal.logpdf(m, kern.mu0, sigma / kern.lam)
               + stats.invwishart.logpdf(sigma, df=kern.nu, scale=psi))
        assert abs(kern.log_prior_density((m, sigma)) - ref) <= 1e-11 * (1.0 + abs(ref))
    y = rng.normal(size=(200, 2)) * 4.0
    logp = kern.log_pdf_matrix(y, atoms)
    assert logp.shape == (200, 500)
    for j, (m, sigma) in enumerate(atoms):
        ref = stats.multivariate_normal.logpdf(y, m, sigma)
        assert np.all(np.abs(logp[:, j] - ref) <= 1e-11 * (1.0 + np.abs(ref)))
    d = rng.integers(0, len(atoms), size=len(y))
    assert np.array_equal(kern.log_pdf_at(y, atoms, d), logp[np.arange(len(y)), d])


@pytest.mark.parametrize("kern", SCIPY_KERNELS)
def test_bivariate_draw_matches_scipy(kern):
    # the draw consumes scipy's variates in scipy's order: same atoms to
    # rounding, same generator state afterwards
    ys = np.random.default_rng(32).normal(size=(3, 2))
    rng, ref_rng = np.random.default_rng(33), np.random.default_rng(33)
    for data in (np.empty((0, 2)), ys):
        mu, lam, psi, nu = kern.posterior_params(data)
        for _ in range(150):
            m, sigma = kern.sample_posterior(data, rng)
            ref_sigma = stats.invwishart.rvs(df=nu, scale=psi, random_state=ref_rng)
            ref_m = ref_rng.multivariate_normal(mu, ref_sigma / lam)
            assert np.max(np.abs(sigma - ref_sigma)) <= 1e-12 * np.max(np.abs(ref_sigma))
            assert np.max(np.abs(m - ref_m)) <= 1e-12 * np.max(np.abs(ref_m))
            assert sigma[0, 1] == sigma[1, 0]
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_bivariate_draw_refuses_a_singular_or_indefinite_scale():
    rng = np.random.default_rng(34)
    state = rng.bit_generator.state
    for psi in (np.ones((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])):
        with pytest.raises(np.linalg.LinAlgError, match="scale matrix"):
            BIVARIATE._draw(np.zeros(2), 1.0, psi, 3.0, rng)
    assert rng.bit_generator.state == state  # refused before any draw


class ChiSquareDraws:
    """Generator stand-in with a zero normal and a fixed chi-square draw."""

    def __init__(self, chi2):
        self.chi2 = chi2

    def normal(self):
        return 0.0

    def chisquare(self, df):
        return self.chi2


@pytest.mark.parametrize("chi2", [0.0, INF, NAN])
def test_bivariate_draw_refuses_a_degenerate_bartlett_factor(chi2):
    with pytest.raises(np.linalg.LinAlgError, match="inverse-Wishart draw"):
        BIVARIATE.sample_prior(ChiSquareDraws(chi2))


def test_bivariate_kernel_geweke_getting_it_right():
    # Geweke (2004): alternating y ~ N2(m, Sigma) with (m, Sigma) ~ p(. | y)
    # leaves the prior invariant, so the chain's marginal moments must match
    # independent prior draws (nu > 5: Sigma has a variance)
    kern = BivariateNormalInvWishart(mu0=(1.0, -0.5), lam=0.5,
                                     psi=((2.0, 0.6), (0.6, 1.0)), nu=8.0)
    rng = np.random.default_rng(2004)
    draws, batches = 8000, 40

    def moments(atom):
        m, s = atom
        return [m[0], m[1], m[0] * m[0], m[1] * m[1], m[0] * m[1],
                s[0, 0], s[1, 0], s[1, 1], math.log(s[0, 0] * s[1, 1] - s[1, 0] ** 2)]

    atom, chain = kern.sample_prior(rng), []
    for _ in range(draws):
        m, sigma = atom
        ys = m + rng.standard_normal((3, 2)) @ np.linalg.cholesky(sigma).T
        atom = kern.sample_posterior(ys, rng)
        chain.append(moments(atom))
    prior = np.array([moments(kern.sample_prior(rng)) for _ in range(draws)])
    # batch means give the chain's standard error
    batch_means = np.array(chain).reshape(batches, -1, prior.shape[1]).mean(axis=1)
    se2 = batch_means.var(axis=0, ddof=1) / batches + prior.var(axis=0, ddof=1) / draws
    z = (batch_means.mean(axis=0) - prior.mean(axis=0)) / np.sqrt(se2)
    assert np.all(np.abs(z) < 4.0), z


def _prior_kn3_pmf(prior):
    """Prior pmf of K_3 from 400,000 replicates; under RandomRho, 2,000 at
    each of 200 midpoints of rho's uniform prior."""
    rng = np.random.default_rng(1)
    if not isinstance(prior, RandomRho):
        return sample_kn(prior, 3, 400_000, rng).pmf
    pmf = {}
    for rho in (np.arange(200) + 0.5) / 200:
        for k, p in sample_kn(dsb((1.0 - rho) / rho, prior.theta), 3, 2_000, rng).pmf.items():
            pmf[k] = pmf.get(k, 0.0) + p / 200
    return pmf


@pytest.mark.parametrize("prior, mean_v, tie", [
    (SharedBeta(2.0, 3.0), 0.4, 1.0),
    (dsb(1.0, 1.0), 0.5, 0.5),
    (IidBeta(1.0, 2.0), 1.0 / 3.0, 0.0),
    (RandomRho(1.0), 0.5, 0.5),
], ids=["shared-beta", "dsb", "iid-beta", "random-rho"])
def test_gibbs_sweep_geweke_getting_it_right(prior, mean_v, tie):
    # Geweke (2004): one sweep alternated with a fresh draw of the data given
    # the allocations and atoms leaves the joint prior invariant, so K_3, the
    # first length, the number of tie classes of the first two lengths and
    # rho must follow their prior laws.  The two lengths tie with the tie
    # probability, rho under RandomRho (rho's prior is uniform); a second
    # length the sweep did not instantiate comes from the prediction rule.
    kernel = UnivariateNormalGamma(0.0, 1.0, 2.0, 2.0)
    config = FitConfig(prior=prior, kernel=kernel, iterations=1, burn_in=0)
    rng, extend_rng = np.random.default_rng(1), np.random.default_rng(2)
    draws, batches = 5000, 50
    state = initial_state(np.zeros(3), config, rng)
    chain = np.empty((draws, 6))
    for i in range(draws):
        m, tau = np.array([state.atoms[j] for j in state.d]).T
        gibbs_sweep(state, rng.normal(m, 1.0 / np.sqrt(tau)), config, rng)
        first_two = state.lengths.copy()
        if len(first_two) < 2:
            mcmc._extend(first_two, mcmc._resolve(prior, state.rho), 1, extend_rng)
        chain[i, :3] = [state.kn() == k for k in (1, 2, 3)]
        chain[i, 3] = state.lengths.values[0]
        chain[i, 4] = len(set(first_two.atom_index[:2]))
        chain[i, 5] = 0.5 if state.rho is None else state.rho
    pmf = _prior_kn3_pmf(prior)
    target = np.array([pmf.get(k, 0.0) for k in (1, 2, 3)] + [mean_v, 2.0 - tie, 0.5])
    # batch means give the chain's standard error; K_3's prior pmf adds its own
    batch_means = chain.reshape(batches, -1, 6).mean(axis=1)
    se2 = batch_means.var(axis=0, ddof=1) / batches
    se2[:3] += target[:3] * (1.0 - target[:3]) / 400_000
    diff = batch_means.mean(axis=0) - target
    # a statistic the law pins (one tie class under SharedBeta, two under
    # IidBeta, rho without RandomRho) must take its value every sweep
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se2 > 0.0, diff / np.sqrt(se2), np.where(diff == 0.0, 0.0, np.inf))
    assert np.all(np.abs(z) < 4.0), z


def test_bivariate_fit_smoke():
    rng = np.random.default_rng(21)
    data = np.vstack([rng.normal(size=(30, 2)) + [5, 5], rng.normal(size=(30, 2)) - [5, 5]])
    kern = default_kernel(data)
    cfg = FitConfig(prior=dsb(1.0, 1.0), kernel=kern, iterations=300, burn_in=150,
                    thin=2, seed=7)
    res = fit(data, cfg, check_invariants=True)
    best = map_select(res.samples)
    labels = cluster_assign(res.samples[best], data, kern)
    assert len(np.unique(labels)) == 2


def test_fit_config_validation():
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        FitConfig(prior=dsb(1, 1), kernel=kern, iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        FitConfig(prior=dsb(1, 1), kernel=kern, iterations=10, burn_in=2, thin=0)
    with pytest.raises(ValueError):
        RandomRho(theta=0.0)
    with pytest.raises(ValueError):
        fit(np.empty(0), FitConfig(prior=dsb(1, 1), kernel=kern, iterations=10, burn_in=2))
    with pytest.raises(ValueError):
        fit(np.zeros((5, 2)), FitConfig(prior=dsb(1, 1), kernel=kern, iterations=10, burn_in=2))
    # values fit cannot use are refused at construction, not in the first sweep
    with pytest.raises(TypeError, match="prior"):
        FitConfig(prior=Dirichlet(1.0), kernel=kern, iterations=10, burn_in=2)
    for name, bad in (("iterations", 10.5), ("burn_in", 2.0), ("thin", 1.5), ("thin", True),
                      ("iterations", "10")):
        kwargs = {"iterations": 10, "burn_in": 2, "thin": 1, name: bad}
        with pytest.raises(TypeError, match=name):
            FitConfig(prior=dsb(1, 1), kernel=kern, **kwargs)
    FitConfig(prior=SharedBeta(1, 1), kernel=kern, iterations=np.int64(3), burn_in=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_data(bad):
    kern = UnivariateNormalGamma(0.0, 1.0, 1.0, 1.0)
    data = np.array([0.1, -0.4, bad, 1.2])
    with pytest.raises(ValueError, match="NaN or infinite"):
        fit(data, FitConfig(prior=dsb(1, 1), kernel=kern, iterations=10, burn_in=2))


def ng_log_marginal(ys, mu0, lam, a, b):
    """Closed-form block marginal likelihood; MC-verified before use."""
    from scipy.special import gammaln

    m = len(ys)
    if m == 0:
        return 0.0
    ybar = float(np.mean(ys))
    ss = float(np.sum((ys - ybar) ** 2))
    lam_n = lam + m
    a_n = a + m / 2
    b_n = b + 0.5 * ss + 0.5 * lam * m * (ybar - mu0) ** 2 / lam_n
    return float(
        gammaln(a_n) - gammaln(a) + 0.5 * (np.log(lam) - np.log(lam_n))
        + a * np.log(b) - a_n * np.log(b_n) - 0.5 * m * np.log(2 * np.pi)
    )


def _enumeration_tv(spec, burn_in, kept):
    """TV distance between the chain's law of the distinct-component count on
    four data points and the exact posterior (allocation partition sums times
    conjugate block marginals), under matched conditioning."""
    import itertools
    from functools import lru_cache

    from esbmix.analytics import allocation_probability, tv_distance

    data = np.array([-4.0, -3.6, 3.8, 4.2])
    mu0, lam, a, b = float(np.mean(data)), 0.01, 0.5, 0.5
    n, J = len(data), 6

    @lru_cache(maxsize=None)
    def p_alloc(multiset):
        return allocation_probability(list(multiset), spec.eppf, spec.base_a, spec.base_b)

    post, total = {}, 0.0
    for d in itertools.product(range(1, J + 1), repeat=n):
        pd = p_alloc(tuple(sorted(d)))
        ll = sum(
            ng_log_marginal(data[[i for i in range(n) if d[i] == j]], mu0, lam, a, b)
            for j in set(d)
        )
        wgt = pd * math.exp(ll)
        post[len(set(d))] = post.get(len(set(d)), 0.0) + wgt
        total += wgt
    exact = {k: v / total for k, v in post.items()}

    rng = np.random.default_rng(13)
    kern = UnivariateNormalGamma(mu0, lam, a, b)
    cfg = FitConfig(prior=spec, kernel=kern, iterations=10, burn_in=1, thin=1, seed=13)
    state = initial_state(data, cfg, rng)
    tally, kept_in_event = {}, 0
    for s in range(burn_in + kept):
        gibbs_sweep(state, data, cfg, rng)
        if s < burn_in:
            continue
        if state.d.max() + 1 <= J:  # condition on the enumeration's event
            tally[state.kn()] = tally.get(state.kn(), 0) + 1
            kept_in_event += 1
    chain = {k: c / kept_in_event for k, c in tally.items()}
    return tv_distance(exact, chain)


def test_posterior_matches_exact_enumeration():
    """On four data points the posterior over the distinct-component count
    is exactly computable (allocation partition sums times conjugate block
    marginals); the chain must reproduce it under matched conditioning."""
    assert _enumeration_tv(dsb(1.0, 1.0), 2_000, 60_000) < 0.04


@pytest.mark.parametrize("spec", [SpeciesDriven(PitmanYor(0.5, 1.0), 1.0, 1.0),
                                  IidBeta(1.0, 2.0), SharedBeta(1.0, 1.0)],
                         ids=["pitman-yor", "iid-beta", "shared-beta"])
def test_posterior_matches_exact_enumeration_for_every_family(spec):
    assert _enumeration_tv(spec, 2_000, 10_000) < 0.04


def test_kn_law_stabilizes_across_run_halves():
    # frozen small dataset: the empirical K law from the two halves of a
    # long run must agree (self-consistency of the chain)
    from esbmix.analytics import tv_distance

    rng = np.random.default_rng(22)
    data = np.array([-3.1, -2.8, -3.4, 2.9, 3.3])
    kern = UnivariateNormalGamma(float(np.mean(data)), 0.01, 0.5, 0.5)
    cfg = FitConfig(prior=dsb(1.0, 1.0), kernel=kern,
                    iterations=10, burn_in=1, thin=1, seed=3)
    state = initial_state(data, cfg, rng)
    sweeps = 100_000
    ks = np.empty(sweeps, dtype=np.int64)
    for s in range(sweeps):
        gibbs_sweep(state, data, cfg, rng)
        ks[s] = state.kn()
    half = sweeps // 2
    first = {k: float(np.mean(ks[1000:half] == k)) for k in np.unique(ks)}
    second = {k: float(np.mean(ks[half:] == k)) for k in np.unique(ks)}
    assert tv_distance(first, second) < 0.02
