"""Exact prior analytics: ordering probabilities of consecutive weights,
allocation-variable probabilities via partition sums (a dynamic programme
over subsets, with set-partition enumeration as the oracle), and Monte Carlo
summaries of the number of distinct components K_n.

Allocation indices d are 1-based throughout, matching the convention that
d_i = j means the i-th draw landed on the j-th weight.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import betainc, betaln, gammaln, logsumexp

from .eppf import Dirichlet, EppfModel, IdenticalDegenerate, IidDegenerate, PitmanYor
from .numerics import gauss_2f1_11, log_beta_moment, log_rising_factorial
from .partitions import ENUMERATION_CAP, enumerate_partitions
from .sticks import LengthPrefix, sample_length_pairs

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


@dataclass(frozen=True)
class AllocationVector:
    """Allocation outcome (d_1, ..., d_n) with its occupancy statistics:
    r_i = #{l : d_l = i} and t_i = #{l : d_l > i}, both of length k = max d."""

    d: tuple

    def __post_init__(self):
        if len(self.d) == 0:
            raise ValueError("d must be nonempty")
        if any(int(x) != x or x < 1 for x in self.d):
            raise ValueError("allocation indices must be positive integers")

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
    if beta <= 0 or theta <= 0:
        raise ValueError("beta and theta must be positive")
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
    recurrence visits: S has at least two elements and T is a proper subset
    of S holding the least element of S.  The pairs are grouped by S:
    group g covers pairs starts[g]..starts[g]+sizes[g]-1 and belongs to
    owners[g]; rest = S minus T.  There are about 3^k / 2 pairs."""

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
            # proper subsets of those elements: spread the binary digits of
            # 0 .. 2^(size-1) - 2 over the positions
            digits = (np.arange((1 << (size - 1)) - 1)[:, None] >> np.arange(size - 1)) & 1
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


def allocation_probability(
    d, model: EppfModel, base_a: float, base_b: float, cap: int = ENUMERATION_CAP
) -> float:
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
    (`allocation_probability_dsb`).  k must not exceed the cap; use
    allocation_probability_mc beyond it.
    """
    if not (math.isfinite(base_a) and math.isfinite(base_b) and base_a > 0 and base_b > 0):
        raise ValueError(f"Beta base shapes must be positive and finite, got ({base_a}, {base_b})")
    av = d if isinstance(d, AllocationVector) else AllocationVector(tuple(d))
    k = av.k
    if k > cap:
        raise ValueError(
            f"k={k} exceeds the partition-sum cap {cap}; use allocation_probability_mc"
        )
    table = _subset_table(k)
    log_v, log_w_size = model.log_gibbs_factors(k)
    # block weights log w[T]; the empty set has none
    log_w = np.full(1 << k, NEG_INF)
    log_w[1:] = (log_w_size[table.count[1:] - 1]
                 + betaln(base_a + table.bits[1:] @ av.r, base_b + table.bits[1:] @ av.t)
                 - betaln(base_a, base_b))
    full = (1 << k) - 1
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
    return float(np.exp(logsumexp(terms)))


def allocation_probability_dsb(d, beta: float, theta: float, cap: int = ENUMERATION_CAP) -> float:
    """Dirichlet-driven specialization of the allocation partition sum with
    Be(1, theta) base, in the fully reduced Pochhammer form.

    Kept as an independent oracle for `allocation_probability`: it
    enumerates the Bell(k) set partitions of {1..k} one at a time and shares
    no code with the subset programme, at about 30 us per partition."""
    av = d if isinstance(d, AllocationVector) else AllocationVector(tuple(d))
    k = av.k
    if k > cap:
        raise ValueError(f"k={k} exceeds the partition-sum cap {cap}")
    r, t = av.r, av.t
    log_bt = math.log(beta * theta)
    log_poch_beta_k = log_rising_factorial(beta, k)
    acc = NEG_INF
    for part in enumerate_partitions(k):
        m = len(part.blocks)
        lp = m * log_bt - log_poch_beta_k
        for block in part.blocks:
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


def _integer_partitions(n: int, largest: int = None):
    if largest is None:
        largest = n
    if n == 0:
        yield []
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield [first] + rest


def _log_set_partition_count(sizes: Sequence[int]) -> float:
    # number of set partitions of {1..J} whose block sizes form this multiset
    J = sum(sizes)
    out = gammaln(J + 1)
    for s, c in Counter(sizes).items():
        out -= c * gammaln(s + 1) + gammaln(c + 1)
    return float(out)


def _symmetric_residual_moment(
    model: EppfModel, base_a: float, base_b: float, J: int, power: int
) -> float:
    """E[prod_{i<=J} (1 - v_i)^power] for exchangeable lengths, grouping the
    partition sum by block-size multiset so only integer partitions of J are
    enumerated."""
    acc = NEG_INF
    for sizes in _integer_partitions(J):
        lp = model.log_eppf(sizes)
        if lp == NEG_INF:
            continue
        lp += _log_set_partition_count(sizes)
        for s in sizes:
            lp += log_beta_moment(base_a, base_b, 0, power * s)
        acc = np.logaddexp(acc, lp)
    return float(np.exp(acc))


def truncated_pair_mass(model: EppfModel, base_a: float, base_b: float, J: int) -> float:
    """Exact total probability that two allocation draws both land within the
    first J weights: sum over all d-vectors of length 2 with entries <= J.

    Uses the identity  sum_d P[d] = E[(1 - R_J)^2]  with R_J the residual
    stick mass, whose symmetric moments need only integer partitions of J;
    direct summation of allocation probabilities would require Bell(J)
    terms per d-vector.
    """
    er = _symmetric_residual_moment(model, base_a, base_b, J, 1)
    er2 = _symmetric_residual_moment(model, base_a, base_b, J, 2)
    return 1.0 - 2.0 * er + er2


# ---------------------------------------------------------------------------
# vectorized simulation of allocations and K_n

_CHUNK = 50_000


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


def _finish_row_scalar(u_sorted, order, d_row, ptr, cumw, j, classes, iid,
                       beta, alpha, a, b, rng, cap):
    """Scalar continuation for one row the vectorized pass left uncovered;
    draws come from pre-generated blocks so each stick costs O(#classes).

    While a single class holds every draw (the near-Geometric regime where
    millions of identical sticks may be needed), whole stretches are handled
    in closed form: the first class-leaving time has an explicit gamma-ratio
    law and the covered slice points follow geometrically.
    """
    n = len(u_sorted)
    total = float(sum(c for c, _ in classes))
    k_classes = len(classes)
    buf = 4096
    us = rng.random(buf)
    fresh = rng.beta(a, b, size=buf)
    pos = 0
    while ptr < n:
        if pos >= buf:
            us = rng.random(buf)
            fresh = rng.beta(a, b, size=buf)
            pos = 0

        if not iid and k_classes == 1 and total > 0:
            # single-class stretch in closed form: couple the first
            # class-leaving draw to one uniform via M = min{m : N(m) < U}
            # where N(m) = P[first m stretch draws all copy the class]
            v = classes[0][1]
            log_resid = math.log1p(-cumw)
            log1mv = math.log1p(-v)
            # copies needed to cover the last slice point
            s_cross = max(
                1,
                int(math.floor((math.log1p(-u_sorted[n - 1]) - log_resid) / log1mv)) + 1,
            )
            target = math.log(max(rng.random(), 1e-300))
            if _log_no_new(total, s_cross, beta, alpha) >= target:
                # no class-leaving draw before coverage: assign everything
                while ptr < n:
                    steps = (math.log1p(-u_sorted[ptr]) - log_resid) / log1mv
                    d_row[order[ptr]] = j + max(1, int(math.floor(steps)) + 1)
                    ptr += 1
                return d_row
            lo, hi = 1, s_cross
            while lo < hi:
                mid = (lo + hi) // 2
                if _log_no_new(total, mid, beta, alpha) < target:
                    hi = mid
                else:
                    lo = mid + 1
            copies = lo - 1  # the lo-th stretch draw opens a new class
            if copies > 0:
                limit = log_resid + copies * log1mv
                while ptr < n and math.log1p(-u_sorted[ptr]) > limit:
                    steps = (math.log1p(-u_sorted[ptr]) - log_resid) / log1mv
                    d_row[order[ptr]] = j + max(1, int(math.floor(steps)) + 1)
                    ptr += 1
                classes[0][0] += copies
                total += copies
                j += copies
                cumw = 1.0 - math.exp(limit)
            x = float(rng.beta(a, b))
            classes.append([1.0, x])
            k_classes += 1
            total += 1.0
            cumw += (1.0 - cumw) * x
            j += 1
            while ptr < n and u_sorted[ptr] < cumw:
                d_row[order[ptr]] = j
                ptr += 1
            continue

        if j >= cap:
            raise RuntimeError("row extension cap exceeded; configuration looks improper")
        if iid:
            x = fresh[pos]
        else:
            denom = beta + total
            r = us[pos] * denom
            thr = beta + k_classes * alpha
            if r < thr:
                x = fresh[pos]
                classes.append([1.0, x])
                k_classes += 1
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
        while ptr < n and u_sorted[ptr] < cumw:
            d_row[order[ptr]] = j
            ptr += 1
    return d_row


def _alloc_chunk_shared(u, a, b, rng):
    B = u.shape[0]
    v = rng.beta(a, b, size=B)
    # d = smallest i with 1 - (1-v)^i > u, in closed form
    L = np.log1p(-u) / np.log1p(-v)[:, None]
    return np.floor(L).astype(np.int64) + 1


def _alloc_chunk_stream(u, spec, rng, col_cap):
    """Generic chunk: grow sticks column by column for the rows whose slice
    points are not yet all assigned, inverting partial sums on the fly."""
    model = spec.eppf_model()
    a, b = spec.base()
    B, n = u.shape

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

    order = np.argsort(u, axis=1)
    u_sorted = np.take_along_axis(u, order, axis=1)
    d = np.zeros((B, n), dtype=np.int64)
    ptr = np.zeros(B, dtype=np.int64)
    cumw = np.zeros(B)
    active = np.arange(B)
    j = 0
    while active.size and j < col_cap:
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
                pick = rng.random(old_rows.size) * cw[:, -1]
                slot = (cw <= pick[:, None]).sum(axis=1)
                slot = np.minimum(slot, K[old_rows] - 1)
                counts[old_rows, slot] += 1.0
                vcol[~is_new] = slotvals[old_rows, slot]
        cumw[active] += (1.0 - cumw[active]) * vcol
        j += 1
        # hand out the slice points the new column just covered
        prog = active
        while prog.size:
            hit = u_sorted[prog, np.minimum(ptr[prog], n - 1)] < cumw[prog]
            hit &= ptr[prog] < n
            prog = prog[hit]
            if not prog.size:
                break
            d[prog, order[prog, ptr[prog]]] = j
            ptr[prog] += 1
        active = active[ptr[active] < n]

    for ridx in active:
        if iid:
            classes = []
        else:
            kk = int(K[ridx])
            classes = [[float(c), float(x)]
                       for c, x in zip(counts[ridx, :kk], slotvals[ridx, :kk])]
        d[ridx] = _finish_row_scalar(
            u_sorted[ridx], order[ridx], d[ridx], int(ptr[ridx]), float(cumw[ridx]),
            j, classes, iid, beta, alpha, a, b, rng, cap=10**6,
        )
    return d


def sample_allocations(
    spec, n: int, replicates: int, rng: np.random.Generator, chunk: int = _CHUNK
) -> np.ndarray:
    """Draw `replicates` independent allocation vectors (d_1..d_n), 1-based:
    per replicate, n iid uniform slice points are inverted through the
    cumulative stick weights, extending the sticks as far as the largest
    slice point requires."""
    if n < 1 or replicates < 1:
        raise ValueError("n and replicates must be >= 1")
    model = spec.eppf_model()
    a, b = spec.base()
    out = np.empty((replicates, n), dtype=np.int64)
    done = 0
    while done < replicates:
        B = min(chunk, replicates - done)
        u = rng.random((B, n))
        if isinstance(model, IdenticalDegenerate):
            out[done:done + B] = _alloc_chunk_shared(u, a, b, rng)
        else:
            out[done:done + B] = _alloc_chunk_stream(u, spec, rng, col_cap=250)
        done += B
    return out


def kn_paths(spec, n_max: int, replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of K_n values, shape (replicates, n_max): entry (r, i) counts
    the distinct allocations among the first i+1 draws of replicate r, so
    every row is monotone and prefix-consistent."""
    d = sample_allocations(spec, n_max, replicates, rng)
    # a draw is new when it is the first of its value in the row: a stable
    # sort keeps equal values in draw order, so the first of each run counts
    order = np.argsort(d, axis=1, kind="stable")
    ranked = np.take_along_axis(d, order, axis=1)
    first = np.ones(d.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    fresh = np.empty_like(first)
    np.put_along_axis(fresh, order, first, axis=1)
    return np.cumsum(fresh, axis=1, dtype=np.int64)


def sample_kn(spec, n: int, replicates: int, rng: np.random.Generator) -> KnSummary:
    """Empirical pmf of K_n under the prior, by slice-point inversion."""
    kn = kn_paths(spec, n, replicates, rng)[:, -1]
    counts = Counter(int(k) for k in kn)
    pmf = {k: c / replicates for k, c in sorted(counts.items())}
    return KnSummary(n=n, pmf=pmf, replicates=replicates)


def expected_kn_curve(
    spec, n_max: int, replicates: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo estimates of E[K_n] for n = 1..n_max, one growing
    allocation sequence per replicate."""
    return kn_paths(spec, n_max, replicates, rng).mean(axis=0)
