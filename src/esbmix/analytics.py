"""Exact prior analytics: ordering probabilities of consecutive weights,
allocation-variable probabilities via partition sums (a dynamic programme
over subsets, with set-partition enumeration as the oracle), and Monte Carlo
summaries of the number of distinct components K_n.

Allocation indices d are 1-based throughout, matching the convention that
d_i = j means the i-th draw landed on the j-th weight.
"""

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np
from scipy.special import betainc, betaln, gammaln, logsumexp

from .eppf import Dirichlet, EppfModel, IdenticalDegenerate, IidDegenerate, PitmanYor
from .numerics import gauss_2f1_11, log_beta_moment, log_rising_factorial
from .sticks import (EXTENSION_CAP, ExtensionCapError, LengthPrefix, _check_base_shapes,
                     sample_length_pairs)

__all__ = [
    "AllocationVector",
    "KnSummary",
    "ordering_probability_dsb",
    "ordering_probability_general",
    "ordering_probability_mc",
    "conditional_ordering_probability",
    "conditional_ordering_probability_dsb",
    "allocation_probability",
    "allocation_probability_dsb",
    "allocation_probability_mc",
    "truncated_pair_mass",
    "sample_allocations",
    "sample_kn",
    "kn_paths",
    "expected_kn_curve",
    "tv_distance",
    "weight_ordering_c",
]

NEG_INF = float("-inf")

# largest k = max(d) with an exact allocation probability; beyond it only the
# Monte Carlo estimate is offered
ENUMERATION_CAP = 12


@dataclass(frozen=True)
class AllocationVector:
    """Allocation outcome (d_1, ..., d_n) with its occupancy statistics:
    r_i = #{l : d_l = i} and t_i = #{l : d_l > i}, both of length k = max d."""

    d: tuple

    def __post_init__(self):
        if len(self.d) == 0:
            raise ValueError("d must be nonempty")
        if not all(_is_positive_index(x) for x in self.d):
            raise ValueError("allocation indices must be positive integers")
        # integral floats are stored as ints, which the exact sums index with
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))

    @property
    def k(self) -> int:
        return max(self.d)

    @property
    def r(self) -> np.ndarray:
        out = np.zeros(self.k, dtype=int)
        for x in self.d:
            out[x - 1] += 1
        return out

    @property
    def t(self) -> np.ndarray:
        r = self.r
        return np.concatenate([np.cumsum(r[::-1])[::-1][1:], [0]])


def _is_positive_index(x) -> bool:
    """An integer, or an integral float, of at least 1; booleans are not indices."""
    if isinstance(x, (float, np.floating)):
        return x >= 1 and float(x).is_integer()
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


@dataclass
class KnSummary:
    """Empirical pmf of K_n over Monte Carlo replicates."""

    n: int
    pmf: Dict[int, float]
    replicates: int

    def __post_init__(self):
        total = sum(self.pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {total}, not 1")
        if any(k < 1 or k > self.n for k in self.pmf):
            raise ValueError("K_n support must lie in {1..n}")

    def mean(self) -> float:
        return sum(k * p for k, p in self.pmf.items())


def tv_distance(pmf_a: Dict[int, float], pmf_b: Dict[int, float]) -> float:
    keys = set(pmf_a) | set(pmf_b)
    return 0.5 * sum(abs(pmf_a.get(k, 0.0) - pmf_b.get(k, 0.0)) for k in keys)


def weight_ordering_c(v: float) -> float:
    """c(v) = min(1, v / (1 - v)); the next length is smaller than c(v)
    exactly when the next weight does not exceed the current one."""
    if v >= 0.5:
        return 1.0
    return v / (1.0 - v)


# ---------------------------------------------------------------------------
# ordering probabilities

def ordering_probability_dsb(beta: float, theta: float) -> float:
    """P[w_j >= w_{j+1}] for Dirichlet-driven sticks with Be(1, theta) base;
    does not depend on j."""
    if not (0 < beta < math.inf and 0 < theta < math.inf):
        raise ValueError("beta and theta must be positive and finite")
    f = gauss_2f1_11(theta + 2.0, 0.5)
    return 1.0 - f * beta * theta / (2.0 * (beta + 1.0) * (theta + 1.0))


def _mean_cdf_of_c(base_a: float, base_b: float, mc_draws: int, rng) -> float:
    """E[F(c(v))] for v ~ Be(a, b) with F the same Beta cdf."""
    if base_a == 1.0:
        # closed form: E[(1-c(v))^theta] = theta 2F1(1,1;theta+2;1/2) / (2 (theta+1))
        theta = base_b
        f = gauss_2f1_11(theta + 2.0, 0.5)
        return 1.0 - theta * f / (2.0 * (theta + 1.0))
    if rng is None:
        raise ValueError("Monte Carlo evaluation needs an rng")
    v = rng.beta(base_a, base_b, size=mc_draws)
    c = np.minimum(1.0, v / (1.0 - v))
    return float(np.mean(betainc(base_a, base_b, c)))


def ordering_probability_general(
    model: EppfModel,
    base_a: float,
    base_b: float,
    mc_draws: int = 1_000_000,
    rng: np.random.Generator = None,
) -> float:
    """P[w_j >= w_{j+1}] = rho + (1 - rho) E[F(c(v))] for any driving EPPF
    and Be(a, b) base; the expectation is exact for Be(1, theta) and Monte
    Carlo otherwise."""
    rho = model.tie_probability()
    if rho == 1.0:
        return 1.0
    return rho + (1.0 - rho) * _mean_cdf_of_c(base_a, base_b, mc_draws, rng)


def ordering_probability_mc(spec, replicates: int, rng: np.random.Generator) -> Tuple[float, float]:
    """Monte Carlo estimate (and its standard error) of P[w_1 >= w_2] from
    simulated length pairs."""
    v1, v2 = sample_length_pairs(spec, replicates, rng)
    hits = v2 <= np.minimum(1.0, v1 / (1.0 - v1))
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / replicates)
    return p, se


def conditional_ordering_probability(
    prefix: LengthPrefix, model: EppfModel, base_a: float, base_b: float
) -> float:
    """P[w_j >= w_{j+1} | v_1..v_j] via the prediction rule: sum the
    existing-value weights whose distinct value is <= c(v_j), plus the
    new-value weight times the base cdf at c(v_j)."""
    if len(prefix) == 0:
        raise ValueError("prefix must be nonempty")
    vj = float(prefix.values[-1])
    c = weight_ordering_c(vj)
    existing, new_w = model.prediction_weights(prefix.counts)
    total = float(new_w) * float(betainc(base_a, base_b, c))
    for i, vstar in enumerate(prefix.distinct):
        if vstar <= c:
            total += float(existing[i])
    return total


def conditional_ordering_probability_dsb(prefix: LengthPrefix, beta: float, theta: float) -> float:
    """Closed form of the conditional ordering probability for a Dirichlet
    driving measure with Be(1, theta) base:
    (1/(beta+j)) { sum of counts of distinct values <= c(v_j) + beta [1 - (1-c)^theta] }."""
    j = len(prefix)
    if j == 0:
        raise ValueError("prefix must be nonempty")
    vj = float(prefix.values[-1])
    c = weight_ordering_c(vj)
    tied = sum(n for vstar, n in zip(prefix.distinct, prefix.counts) if vstar <= c)
    return (tied + beta * (1.0 - (1.0 - c) ** theta)) / (beta + j)


# ---------------------------------------------------------------------------
# allocation probabilities

class _SubsetTable:
    """Subsets of {1..k} as bitmasks, with every (S, T) pair the allocation
    recurrence visits: S has at least two elements and T is a subset of S
    holding the least element of S.  The pairs are grouped by S, and the
    groups by the size of S: group g covers pairs
    starts[g]..starts[g]+sizes[g]-1, belongs to owners[g] and ends with
    T = S; rest = S minus T.  There are about 3^k / 2 pairs."""

    def __init__(self, k: int):
        masks = np.arange(1 << k)
        self.bits = (masks[:, None] >> np.arange(k)) & 1
        self.count = count = self.bits.sum(axis=1)
        blocks, rests, owners, sizes = [], [], [], []
        for size in range(2, k + 1):
            s = masks[count == size]
            low = s & -s
            # positions of the other size-1 elements of each S, ascending
            pos = np.nonzero(self.bits[s ^ low])[1].reshape(len(s), size - 1)
            # subsets of those elements: spread the binary digits of
            # 0 .. 2^(size-1) - 1 over the positions
            digits = (np.arange(1 << (size - 1))[:, None] >> np.arange(size - 1)) & 1
            t = (np.left_shift(1, pos) @ digits.T) | low[:, None]
            blocks.append(t.ravel())
            rests.append((s[:, None] ^ t).ravel())
            owners.append(s)
            sizes.append(np.full(len(s), t.shape[1]))
        if k > 1:
            self.blocks = np.concatenate(blocks)
            self.rests = np.concatenate(rests)
            self.owners = np.concatenate(owners)
            self.sizes = np.concatenate(sizes)
            self.starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        for arr in vars(self).values():  # one cached table serves every call
            arr.flags.writeable = False


@functools.lru_cache(maxsize=ENUMERATION_CAP)
def _subset_table(k: int) -> _SubsetTable:
    return _SubsetTable(k)


def allocation_probability(d, model: EppfModel, base_a: float, base_b: float) -> float:
    """P[d_1..d_n] for exchangeable lengths with a Be(a, b) base, exact.

    P is a sum over the set partitions of {1..k}, k = max(d), of the EPPF
    times, per block T, the Beta moment E[v^p_T (1-v)^q_T] with p_T and q_T
    the sums of r and t over T.  The EPPF is of Gibbs type,
    V(k, m) prod_T W(|T|) (`EppfModel.log_gibbs_factors`), so the sum factors
    over blocks once the number of blocks m is fixed.  With w[T] = W(|T|)
    times the moment of T, a dynamic programme over subsets builds

        f_m[S] = sum over T subset of S holding min(S) of w[T] f_{m-1}[S \\ T]

    and P = sum_m V(k, m) f_m[{1..k}].  Every term is positive, so the sums
    run in log space without cancellation.  The cost is O(k 3^k), against
    Bell(k) EPPF evaluations for term-by-term enumeration
    (`allocation_probability_dsb`).  For the Dirichlet family V(k, m) =
    beta^m / (beta)_k factors over blocks too, so one pass over the subsets,
    by size, builds g[S] = sum_m beta^m f_m[S] in O(3^k).  k must not exceed
    ENUMERATION_CAP; use allocation_probability_mc beyond it.
    """
    _check_base_shapes(base_a, base_b)
    av = d if isinstance(d, AllocationVector) else AllocationVector(tuple(d))
    if av.k > ENUMERATION_CAP:
        raise ValueError(
            f"k={av.k} exceeds the partition-sum cap {ENUMERATION_CAP}; "
            "use allocation_probability_mc"
        )
    return math.exp(_log_partition_sum(av.r, av.t, model, base_a, base_b))


def _log_partition_sum(r, t, model: EppfModel, base_a: float, base_b: float) -> float:
    """log P[d] from d's occupancy statistics r and t (`AllocationVector`),
    on which alone it depends; see `allocation_probability`."""
    k = len(r)
    table = _subset_table(k)
    log_v, log_w_size = model.log_gibbs_factors(k)
    # block weights log w[T]; the empty set has none
    log_w = np.full(1 << k, NEG_INF)
    log_w[1:] = (log_w_size[table.count[1:] - 1]
                 + betaln(base_a + table.bits[1:] @ r, base_b + table.bits[1:] @ t)
                 - betaln(base_a, base_b))
    full = (1 << k) - 1
    if isinstance(model, Dirichlet):
        # g[S] = sum over T subset of S holding min(S) of beta w[T] g[S \ T],
        # g[{}] = 1; the pairs of one subset size need only smaller subsets
        log_beta = math.log(model.beta)
        g = log_beta + log_w
        g[0] = 0.0
        owner = pair = 0
        for size in range(2, k + 1):
            owners = table.owners[owner:owner + math.comb(k, size)]
            end = pair + (len(owners) << (size - 1))
            vals = (log_w[table.blocks[pair:end]]
                    + g[table.rests[pair:end]]).reshape(len(owners), -1)
            shift = vals.max(axis=1)
            g[owners] = log_beta + shift + np.log(np.exp(vals - shift[:, None]).sum(axis=1))
            owner, pair = owner + len(owners), end
        return float(g[full]) - log_rising_factorial(model.beta, k)
    f = log_w  # f_1: a single block holds all of S
    terms = [log_v[0] + f[full]]
    last = int(np.flatnonzero(np.isfinite(log_v))[-1]) + 1
    for m in range(2, last + 1):
        vals = log_w[table.blocks] + f[table.rests]
        shift = np.maximum.reduceat(vals, table.starts)
        shift[shift == NEG_INF] = 0.0
        total = np.add.reduceat(np.exp(vals - np.repeat(shift, table.sizes)), table.starts)
        f = np.full(1 << k, NEG_INF)
        with np.errstate(divide="ignore"):
            f[table.owners] = shift + np.log(total)
        terms.append(log_v[m - 1] + f[full])
    return float(logsumexp(terms))


def enumerate_partitions(k: int) -> Iterator[tuple]:
    """Yield every partition of {1..k}, k >= 1, exactly once, in lexicographic
    order of the restricted growth string: a tuple of blocks, each block a
    sorted tuple and the blocks ordered by least element.  There are Bell(k)
    of them."""
    a = [0] * k          # restricted growth string
    b = [1] * k          # b[i] = 1 + max(a[:i]) for i >= 1
    while True:
        blocks = [[] for _ in range(max(a) + 1)]
        for i, label in enumerate(a):
            blocks[label].append(i + 1)
        yield tuple(tuple(block) for block in blocks)
        # advance to the next restricted growth string
        j = k - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for i in range(j + 1, k):
            a[i] = 0
            b[i] = max(b[j], a[j] + 1) if i == j + 1 else max(b[i - 1], a[i - 1] + 1)


def allocation_probability_dsb(d, beta: float, theta: float) -> float:
    """Dirichlet-driven specialization of the allocation partition sum with
    Be(1, theta) base, in the fully reduced Pochhammer form.

    Kept as an independent oracle for `allocation_probability`: it
    enumerates the Bell(k) set partitions of {1..k} one at a time and shares
    no code with the subset programme, at about 30 us per partition."""
    av = d if isinstance(d, AllocationVector) else AllocationVector(tuple(d))
    k = av.k
    if k > ENUMERATION_CAP:
        raise ValueError(f"k={k} exceeds the partition-sum cap {ENUMERATION_CAP}")
    r, t = av.r, av.t
    log_bt = math.log(beta * theta)
    log_poch_beta_k = log_rising_factorial(beta, k)
    acc = NEG_INF
    for part in enumerate_partitions(k):
        lp = len(part) * log_bt - log_poch_beta_k
        for block in part:
            rs = int(sum(r[i - 1] for i in block))
            ts = int(sum(t[i - 1] for i in block))
            lp += gammaln(len(block)) + gammaln(rs + 1)
            lp -= log_rising_factorial(theta + ts, rs + 1)
        acc = np.logaddexp(acc, lp)
    return float(np.exp(acc))


def allocation_probability_mc(
    d, spec, replicates: int, rng: np.random.Generator
) -> Tuple[float, float]:
    """Monte Carlo frequency (and standard error) of the allocation outcome d
    under simulated weights."""
    av = d if isinstance(d, AllocationVector) else AllocationVector(tuple(d))
    target = np.asarray(av.d, dtype=np.int64)
    draws = sample_allocations(spec, len(target), replicates, rng)
    hits = np.all(draws == target[None, :], axis=1)
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / replicates)
    return p, se


def _symmetric_residual_moment(
    model: EppfModel, base_a: float, base_b: float, J: int, power: int
) -> float:
    """E[prod_{i<=J} (1 - v_i)^power] for exchangeable lengths.

    Grouping the set partitions of {1..J} by their number of blocks m gives
    sum_m V(J, m) B_{J,m}(x), where x_s = W(s) E[(1 - v)^(power s)] and
    B_{J,m} is the partial Bell polynomial (Gnedin & Pitman 2006,
    "Exchangeable Gibbs partitions and Stirling triangles").  Conditioning
    on the block of the first item gives
    B_{n,m} = sum_s C(n-1, s-1) x_s B_{n-s,m-1} with B_{0,0} = 1.  Every
    term is positive, so the recurrence runs in log space without
    cancellation, at O(J^3) cost: each step shifts the rows with a positive
    B_{n,m} by their largest term before summing.
    """
    log_v, log_w = model.log_gibbs_factors(J)
    log_x = log_w + np.array(
        [log_beta_moment(base_a, base_b, 0, power * s) for s in range(1, J + 1)]
    )
    n = np.arange(J + 1)[:, None]
    s = np.arange(1, J + 1)
    rest = np.maximum(n - s, 0)
    # log C(n-1, s-1) x_s, where a first block of size s fits in n items
    log_cx = np.where(
        s <= n, gammaln(np.maximum(n, 1)) - gammaln(s) - gammaln(rest + 1) + log_x, NEG_INF
    )
    log_b = np.full(J + 1, NEG_INF)  # log B_{n,0}
    log_b[0] = 0.0
    terms = []
    for m in range(J):
        # log B_{n,m+1}: it needs n > m items, and a first block of
        # s <= n - m leaves the m other blocks their items
        vals = log_cx[m + 1:, :J - m] + log_b[rest[m + 1:, :J - m]]
        shift = vals.max(axis=1)
        rows = np.flatnonzero(shift > NEG_INF)
        shift = shift[rows]
        log_b = np.full(J + 1, NEG_INF)
        log_b[m + 1 + rows] = shift + np.log(np.exp(vals[rows] - shift[:, None]).sum(axis=1))
        terms.append(log_v[m] + log_b[J])
    return float(np.exp(logsumexp(terms)))


def truncated_pair_mass(model: EppfModel, base_a: float, base_b: float, J: int) -> float:
    """Exact total probability that two allocation draws both land within the
    first J weights: sum over all d-vectors of length 2 with entries <= J.

    Uses the identity  sum_d P[d] = E[(1 - R_J)^2]  with R_J the residual
    stick mass.  The moments E[R_J] and E[R_J^2] are sums over the set
    partitions of {1..J}; the Gibbs factors of the EPPF reduce each to
    partial Bell polynomials of per-block Beta moments, so the cost is
    O(J^3) where direct summation of allocation probabilities would need
    J^2 partition sums.
    """
    _check_base_shapes(base_a, base_b)
    if isinstance(J, bool) or not isinstance(J, (int, np.integer)) or J < 1:
        raise ValueError(f"J must be a positive integer, got {J!r}")
    er = _symmetric_residual_moment(model, base_a, base_b, J, 1)
    er2 = _symmetric_residual_moment(model, base_a, base_b, J, 2)
    return 1.0 - 2.0 * er + er2


# ---------------------------------------------------------------------------
# vectorized simulation of allocations and K_n

_CHUNK = 50_000      # replicates simulated together
_STREAM_COLUMNS = 250  # sticks grown column-wise before rows finish one by one


def _grow(mat: np.ndarray, cols: int) -> np.ndarray:
    extra = np.zeros((mat.shape[0], cols), dtype=mat.dtype)
    return np.concatenate([mat, extra], axis=1)


def _log_no_new(j, s, beta, alpha):
    """log P[the next s draws all join the single existing class], given j
    draws so far: product over m = j..j+s-1 of (m - alpha)/(beta + m)."""
    return float(
        gammaln(j + s - alpha) - gammaln(j - alpha)
        - gammaln(beta + j + s) + gammaln(beta + j)
    )


def _finish_row_scalar(u_rest, j, classes, iid, beta, alpha, a, b, rng):
    """Scalar continuation for one row the vectorized pass left uncovered:
    given the row's uncovered slice points in ascending order, return their
    allocations.  Draws come from pre-generated blocks, which double from 64
    up to 4096 draws, so each stick costs O(#classes).

    While a single class holds every draw (the near-Geometric regime where
    millions of identical sticks may be needed), whole stretches are handled
    in closed form: the first class-leaving time has an explicit gamma-ratio
    law and the covered slice points follow geometrically.
    """
    n = len(u_rest)
    d = np.empty(n, dtype=np.int64)
    ptr = 0
    cumw = 0.0
    total = float(sum(c for c, _ in classes))
    buf = pos = 0
    while ptr < n:
        if pos >= buf:
            buf = min(2 * buf or 64, 4096)
            us = rng.random(buf)
            fresh = rng.beta(a, b, size=buf)
            pos = 0

        if not iid and len(classes) == 1 and total > 0:
            # single-class stretch in closed form: couple the first
            # class-leaving draw to one uniform via M = min{m : N(m) < U}
            # where N(m) = P[first m stretch draws all copy the class]
            v = classes[0][1]
            log_resid = math.log1p(-cumw)
            log1mv = math.log1p(-v)
            # copies needed to cover the last slice point
            s_cross = max(
                1,
                int(math.floor((math.log1p(-u_rest[n - 1]) - log_resid) / log1mv)) + 1,
            )
            target = math.log(max(rng.random(), 1e-300))
            # no class-leaving draw before coverage: the copies cover every point
            covers = _log_no_new(total, s_cross, beta, alpha) >= target
            copies = 0
            if not covers:
                lo, hi = 1, s_cross
                while lo < hi:
                    mid = (lo + hi) // 2
                    if _log_no_new(total, mid, beta, alpha) < target:
                        hi = mid
                    else:
                        lo = mid + 1
                copies = lo - 1  # the lo-th stretch draw opens a new class
            limit = log_resid + copies * log1mv
            while ptr < n and (covers or math.log1p(-u_rest[ptr]) > limit):
                steps = (math.log1p(-u_rest[ptr]) - log_resid) / log1mv
                d[ptr] = j + max(1, int(math.floor(steps)) + 1)
                ptr += 1
            if covers:
                return d
            if copies > 0:
                classes[0][0] += copies
                total += copies
                j += copies
                cumw = 1.0 - math.exp(limit)
            x = float(rng.beta(a, b))
            classes.append([1.0, x])
            total += 1.0
        else:
            if j >= EXTENSION_CAP:
                raise ExtensionCapError("row extension cap exceeded; configuration looks improper")
            if iid:
                x = fresh[pos]
            else:
                denom = beta + total
                r = us[pos] * denom
                thr = beta + len(classes) * alpha
                if r < thr:
                    x = fresh[pos]
                    classes.append([1.0, x])
                else:
                    acc = thr
                    x = classes[-1][1]
                    for cls in classes:
                        acc += cls[0] - alpha
                        if r < acc:
                            cls[0] += 1.0
                            x = cls[1]
                            break
                total += 1.0
            pos += 1
        cumw += (1.0 - cumw) * x
        j += 1
        while ptr < n and u_rest[ptr] < cumw:
            d[ptr] = j
            ptr += 1
    return d


def _alloc_chunk_shared(spec, rng, d):
    """Closed-form chunk for a shared length v: n sorted uniform slice points
    per row, each on the smallest stick i with 1 - (1-v)^i > u, so every row
    of d comes out sorted."""
    B = d.shape[0]
    u = rng.random(d.shape)
    u.sort(axis=1)
    v = rng.beta(spec.base_a, spec.base_b, size=B)
    with np.errstate(all="ignore"):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        u /= np.log1p(-v)[:, None]
        np.floor(u, out=u)
    # an index must fit in int64; written so that NaN (u = v = 0) fails too
    bad = ~(u < 2.0**63).all(axis=1)
    if bad.any():
        raise ExtensionCapError(
            f"shared length v = {v[bad][0]:.3g} sends a slice point past stick 2**63")
    np.copyto(d, u, casting="unsafe")
    d += 1


def _alloc_chunk_stream(spec, rng, d):
    """Generic chunk: grow sticks column by column for the rows that have
    draws left, writing each row's allocations into d in ascending order.
    Given the weights the draws are iid, so of the r draws a row has left
    when it reaches stick j, Bin(r, v_j) stop there; a row closes once it
    has none left."""
    model = spec.eppf
    a, b = spec.base_a, spec.base_b
    B, n = d.shape

    iid = isinstance(model, IidDegenerate)
    beta = alpha = 0.0
    if not iid:
        if isinstance(model, Dirichlet):
            beta, alpha = model.beta, 0.0
        elif isinstance(model, PitmanYor):
            beta, alpha = model.beta, model.alpha
        else:
            raise TypeError(f"no vectorized path for {type(model).__name__}")
        slots = 8
        counts = np.zeros((B, slots))
        slotvals = np.zeros((B, slots))
        K = np.zeros(B, dtype=np.int64)

    # the rows with draws left, in row order; a row's first free slot is
    # n - left.  A run of label j is written at its first slot only, and the
    # running maximum at the end fills the rest of it
    active = np.arange(B)
    left = np.full(B, n)
    d.fill(0)
    j = 0
    while active.size and j < _STREAM_COLUMNS:
        m = active.size
        if iid:
            vcol = rng.beta(a, b, size=m)
        else:
            new_prob = (beta + K[active] * alpha) / (beta + j) if j > 0 else np.ones(m)
            is_new = rng.random(m) < new_prob
            vcol = np.empty(m)
            new_rows = active[is_new]
            if new_rows.size:
                newvals = rng.beta(a, b, size=new_rows.size)
                kn = K[new_rows]
                if kn.max(initial=0) + 1 > slots:
                    counts = _grow(counts, slots)
                    slotvals = _grow(slotvals, slots)
                    slots *= 2
                counts[new_rows, kn] += 1.0
                slotvals[new_rows, kn] = newvals
                vcol[is_new] = newvals
                K[new_rows] += 1
            old_rows = active[~is_new]
            if old_rows.size:
                width = int(K[old_rows].max())
                wmat = counts[old_rows, :width]
                if alpha:
                    wmat = wmat - alpha * (wmat > 0)
                cw = np.cumsum(wmat, axis=1)
                # pick < cw[:, -1] and empty slots add exact zeros, so the
                # slot lies below K
                pick = rng.random(old_rows.size) * cw[:, -1]
                slot = (cw <= pick[:, None]).sum(axis=1)
                counts[old_rows, slot] += 1.0
                vcol[~is_new] = slotvals[old_rows, slot]
        j += 1
        r = left[active]
        got = rng.binomial(r, vcol)
        hit = got > 0
        d[active[hit], n - r[hit]] = j
        r -= got
        left[active] = r
        active = active[r > 0]

    # a row still open after the vectorized columns hands its r draws to the
    # scalar pass as r sorted slice points on the sticks still to come,
    # measured in the mass those sticks share: uniforms on [0, 1) and a
    # cumulative weight starting at 0
    for ridx in active:
        if iid:
            classes = []
        else:
            kk = int(K[ridx])
            classes = [[float(c), float(x)]
                       for c, x in zip(counts[ridx, :kk], slotvals[ridx, :kk])]
        r = int(left[ridx])
        d[ridx, n - r:] = _finish_row_scalar(np.sort(rng.random(r)), j, classes, iid,
                                             beta, alpha, a, b, rng)
    np.maximum.accumulate(d, axis=1, out=d)


def _sorted_allocations(spec, n, replicates, rng):
    """`replicates` allocation vectors of length n, each row sorted."""
    if n < 1 or replicates < 1:
        raise ValueError("n and replicates must be >= 1")
    shared = isinstance(spec.eppf, IdenticalDegenerate)
    chunk = _alloc_chunk_shared if shared else _alloc_chunk_stream
    d = np.empty((replicates, n), dtype=np.int64)
    for done in range(0, replicates, _CHUNK):
        chunk(spec, rng, d[done:done + _CHUNK])
    return d


def _first_arrival_paths(d, rng):
    """K_n paths of a uniformly random order of each sorted row's draws,
    written over d.

    Give every draw an iid Exp(1) arrival time.  A run of c equal labels then
    first arrives at an Exp(c) time, and by memorylessness each draw of a run
    already seen that has not yet arrived does so before the next first
    arrival with probability 1 - exp(-gap), independently.  So one clock and
    one binomial per run place every first arrival, and no draw is permuted.
    """
    B, n = d.shape
    start = np.empty(d.size, dtype=bool)
    np.not_equal(d.ravel()[1:], d.ravel()[:-1], out=start[1:])
    start[::n] = True
    runs = np.flatnonzero(start)
    del start
    size = np.diff(runs, append=d.size)
    row = runs // n
    K = np.bincount(row, minlength=B)
    clock = rng.standard_exponential(runs.size) / size
    # runs by row, then by first arrival; the stable pass on the narrow row
    # ids is a radix sort.  Each row's runs keep their slots, so
    # row[order] == row afterwards
    order = np.argsort(clock)
    order = order[np.argsort(row[order].astype(np.min_scalar_type(B - 1)), kind="stable")]
    # rows by K descending, so the rows still placing runs at event i are the
    # first L[i]; event i's runs are laid out at [off[i], off[i] + L[i])
    byk = np.argsort((n - K).astype(np.min_scalar_type(n)), kind="stable")
    L = B - np.cumsum(np.bincount(K))[:-1]
    off = np.cumsum(L) - L
    place = np.empty(B, dtype=np.int64)
    place[byk] = np.arange(B)
    # a run's rank in its row's arrival order picks the event, and its row's
    # place in byk the slot within it
    dest = off[np.arange(runs.size) - np.repeat(np.cumsum(K) - K, K)] + place[row]
    ev_clock = np.empty(runs.size)
    ev_clock[dest] = clock[order]
    ev_size = np.empty(runs.size, dtype=np.int64)
    ev_size[dest] = size[order]

    # the sorted rows are no longer needed: the paths take their buffer
    d.fill(0)
    flat = d.ravel()
    d[:, 0] = 1
    # per row: the flat index of the latest first arrival, and the draws of
    # runs already seen that have not yet arrived
    at = byk * n
    pending = ev_size[:B] - 1
    prev = ev_clock[:B]
    for i in range(1, L.size):
        m = L[i]
        now = ev_clock[off[i]:off[i] + m]
        got = rng.binomial(pending[:m], -np.expm1(prev[:m] - now))
        at[:m] += got + 1
        pending[:m] += ev_size[off[i]:off[i] + m] - 1 - got
        flat[at[:m]] = 1
        prev = now
    return np.cumsum(d, axis=1, out=d)


def sample_allocations(spec, n: int, replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `replicates` independent allocation vectors (d_1..d_n), 1-based:
    per replicate, the sticks are grown until every draw has stopped, Bin(r,
    v_j) of the r draws that reach stick j stopping there (a shared length
    inverts sorted slice points in closed form), and each sorted row is then
    shuffled in place into a uniformly random order.  Raises
    ExtensionCapError when a draw needs more than EXTENSION_CAP sticks, or,
    under a shared length, lands past stick 2**63."""
    d = _sorted_allocations(spec, n, replicates, rng)
    rng.permuted(d, axis=1, out=d)
    return d


def kn_paths(spec, n_max: int, replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of K_n values, shape (replicates, n_max): entry (r, i) counts
    the distinct allocations among the first i+1 draws of replicate r, so
    every row is monotone and prefix-consistent.  Its last column is the
    K_n that `sample_kn` reads at the same seed."""
    return _first_arrival_paths(_sorted_allocations(spec, n_max, replicates, rng), rng)


def sample_kn(spec, n: int, replicates: int, rng: np.random.Generator) -> KnSummary:
    """Empirical pmf of K_n under the prior: one more than the number of
    label changes in each sorted allocation row."""
    d = _sorted_allocations(spec, n, replicates, rng)
    kn = 1 + np.count_nonzero(d[:, 1:] != d[:, :-1], axis=1)
    values, counts = np.unique(kn, return_counts=True)
    pmf = {int(k): int(c) / replicates for k, c in zip(values, counts)}
    return KnSummary(n=n, pmf=pmf, replicates=replicates)


def expected_kn_curve(
    spec, n_max: int, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo estimates of E[K_n] for n = 1..n_max, one growing
    allocation sequence per replicate."""
    return kn_paths(spec, n_max, replicates, rng).mean(axis=0)
