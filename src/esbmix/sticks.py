"""Stick-breaking transform, its inverse, and samplers for exchangeable
length-variable sequences.

Ties between length variables are tracked structurally (slot indices into a
list of distinct values), never by comparing floats: the conditional updates
and the ordering formulas both need exact distinct-value counts.
"""

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .eppf import Dirichlet, EppfModel, IdenticalDegenerate, IidDegenerate

__all__ = [
    "LengthPrefix",
    "IidBeta",
    "SharedBeta",
    "SpeciesDriven",
    "sb_transform",
    "sb_inverse",
    "sample_lengths_prefix",
    "sample_length_pairs",
    "extend_weights_until",
    "ExtensionCapError",
    "EXTENSION_CAP",
]

EXTENSION_CAP = 10**6


class ExtensionCapError(RuntimeError):
    """Extension failed to reach the target mass within the stick cap,
    which signals an improper configuration."""


@dataclass
class LengthPrefix:
    """A finite prefix of length variables with explicit tie structure.

    atom_index[i] is the slot of position i in `distinct`; counts[j] is the
    number of positions currently pointing at slot j.
    """

    atom_index: List[int] = field(default_factory=list)
    distinct: List[float] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)

    def __len__(self):
        return len(self.atom_index)

    @property
    def values(self) -> np.ndarray:
        return np.array([self.distinct[s] for s in self.atom_index], dtype=float)

    def append(self, slot: int, value: float = None) -> None:
        """Attach a new position to an existing slot, or (slot == len(distinct))
        open a new slot holding `value`."""
        if slot == len(self.distinct):
            if value is None:
                raise ValueError("new slot needs a value")
            self.distinct.append(float(value))
            self.counts.append(0)
        self.atom_index.append(slot)
        self.counts[slot] += 1

    def validate(self) -> None:
        if len(self.distinct) != len(self.counts):
            raise ValueError("distinct/counts length mismatch")
        rebuilt = [0] * len(self.distinct)
        for s in self.atom_index:
            if not 0 <= s < len(self.distinct):
                raise ValueError("atom_index out of range")
            rebuilt[s] += 1
        if rebuilt != list(self.counts):
            raise ValueError("counts inconsistent with atom_index")
        if any(c < 1 for c in self.counts):
            raise ValueError("unused distinct slot")
        if len(set(self.distinct)) != len(self.distinct):
            raise ValueError("distinct values collide")
        for v in self.distinct:
            if not (0.0 < v < 1.0):
                raise ValueError("length values must lie in (0, 1)")

    def copy(self) -> "LengthPrefix":
        return LengthPrefix(list(self.atom_index), list(self.distinct), list(self.counts))


def _check_base_shapes(base_a: float, base_b: float) -> None:
    if not (math.isfinite(base_a) and math.isfinite(base_b) and base_a > 0 and base_b > 0):
        raise ValueError(f"Beta base shapes must be positive and finite, got ({base_a}, {base_b})")


@dataclass(frozen=True)
class SpeciesDriven:
    """Length variables drawn iid from a species sampling process with the
    given EPPF and Be(base_a, base_b) base measure.  IidBeta, SharedBeta and
    dsb return instances of it."""

    eppf: EppfModel
    base_a: float
    base_b: float

    def __post_init__(self):
        if not isinstance(self.eppf, EppfModel):
            raise TypeError(f"eppf must be an EppfModel, got {type(self.eppf).__name__}")
        _check_base_shapes(self.base_a, self.base_b)


def IidBeta(a: float, b: float) -> SpeciesDriven:
    """Independent Be(a, b) lengths, the iid limit; Be(1, theta) gives a
    Dirichlet process with total mass theta."""
    return SpeciesDriven(IidDegenerate(), a, b)


def SharedBeta(a: float, b: float) -> SpeciesDriven:
    """One Be(a, b) draw shared by every position, the single-block limit:
    the Geometric process."""
    return SpeciesDriven(IdenticalDegenerate(), a, b)


def dsb(beta: float, theta: float) -> SpeciesDriven:
    """Dirichlet-driven spec with Be(1, theta) base."""
    return SpeciesDriven(Dirichlet(beta), 1.0, theta)


def sb_transform(v) -> np.ndarray:
    """Weights from length variables: w_j = v_j prod_{i<j} (1 - v_i)."""
    v = np.asarray(v, dtype=float)
    # written so that NaN fails the test too
    if v.size and not (v.min() >= 0 and v.max() <= 1):
        raise ValueError("length variables must lie in [0, 1]")
    w = v.copy()
    w[1:] *= np.cumprod(1.0 - v[:-1])  # sequential products, as a running residual
    return w


def sb_inverse(w) -> np.ndarray:
    """Length variables from a valid weights prefix: v_k = w_k / (1 - sum_{j<k} w_j),
    and 0 once the stick is exhausted."""
    w = np.asarray(w, dtype=float)
    # written so that NaN fails the tests too
    if w.size and not (w.min() >= 0):
        raise ValueError("weights must be non-negative")
    if not (w.sum() <= 1.0 + 1e-12):
        raise ValueError("weights sum exceeds 1")
    v = np.zeros_like(w)
    residual = 1.0
    for k, wk in enumerate(w):
        if residual > 0.0:
            v[k] = min(wk / residual, 1.0)
            # multiplicative update keeps relative precision; subtracting wk
            # cancels catastrophically once the residual is tiny
            residual *= 1.0 - v[k]
        else:
            v[k] = 0.0
    return v


def sample_lengths_prefix(spec: SpeciesDriven, m: int, rng: np.random.Generator) -> LengthPrefix:
    """m exchangeable lengths via the sequential prediction rule, with the
    tie structure recorded."""
    if m < 1:
        raise ValueError("m must be >= 1")
    prefix = LengthPrefix()
    _extend(prefix, spec, m, rng)
    return prefix


def _extend(prefix: LengthPrefix, spec: SpeciesDriven, m_new: int,
            rng: np.random.Generator) -> None:
    """Append m_new positions to prefix under spec's conditional prediction rule."""
    model = spec.eppf
    a, b = spec.base_a, spec.base_b
    if isinstance(model, IidDegenerate):
        draws = rng.beta(a, b, size=m_new)
        for x in draws:
            prefix.append(len(prefix.distinct), x)
        return
    if isinstance(model, IdenticalDegenerate):
        todo = m_new
        if len(prefix.distinct) == 0 and todo > 0:
            prefix.append(0, rng.beta(a, b))
            todo -= 1
        for _ in range(todo):
            prefix.append(0)
        return
    counts = prefix.counts
    for _ in range(m_new):
        existing, new_w = model.prediction_weights(counts)
        r = rng.random()
        acc = new_w
        if r < acc:
            prefix.append(len(prefix.distinct), rng.beta(a, b))
            continue
        chosen = len(counts) - 1  # guard against float round-off at the top end
        for j, wj in enumerate(existing):
            acc += wj
            if r < acc:
                chosen = j
                break
        prefix.append(chosen)


def sample_length_pairs(spec: SpeciesDriven, size: int,
                        rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized draws of (v1, v2): v1 from the Beta marginal, v2 = v1 with
    probability equal to the model's tie probability, otherwise an
    independent Beta draw.  This is the two-step prediction rule in closed
    form; the sequential sampler is the reference path it is tested against."""
    a, b = spec.base_a, spec.base_b
    rho = spec.eppf.tie_probability()
    v1 = rng.beta(a, b, size=size)
    v2 = rng.beta(a, b, size=size)
    tie = rng.random(size) < rho
    v2[tie] = v1[tie]
    return v1, v2


def _shared_needed(v: float, threshold: float) -> float:
    # smallest m with 1 - (1-v)^m >= threshold; inf when a subnormal v
    # overflows the ratio, which no integer could hold
    if threshold <= 0.0:
        return 1
    if v >= 1.0:
        return 1
    m = math.log1p(-threshold) / math.log1p(-v)
    return max(1, math.ceil(m)) if m < math.inf else m


def extend_weights_until(
    prefix: LengthPrefix,
    spec: SpeciesDriven,
    threshold: float,
    rng: np.random.Generator,
) -> Tuple[LengthPrefix, np.ndarray]:
    """Extend the prefix under the conditional prediction rule until the
    weight prefix covers `threshold` mass; returns (prefix, weights).

    Always materializes at least one stick.  Raises ExtensionCapError when
    EXTENSION_CAP sticks do not suffice, which diagnoses an improper configuration.
    """
    if not (0.0 <= threshold < 1.0):
        raise ValueError("threshold must lie in [0, 1)")
    if len(prefix) == 0:
        _extend(prefix, spec, 1, rng)

    residual = float(np.prod(1.0 - prefix.values))

    if isinstance(spec.eppf, IdenticalDegenerate) and 1.0 - residual < threshold:
        v = prefix.distinct[0]
        needed = _shared_needed(v, threshold)
        if needed > EXTENSION_CAP:
            raise ExtensionCapError(f"needs {needed} sticks, cap is {EXTENSION_CAP}")
        if needed > len(prefix):
            _extend(prefix, spec, needed - len(prefix), rng)
        return prefix, sb_transform(prefix.values)

    while 1.0 - residual < threshold:
        if len(prefix) >= EXTENSION_CAP:
            raise ExtensionCapError(
                f"stick mass {1.0 - residual:.6g} below target {threshold:.6g} "
                f"after {EXTENSION_CAP} sticks"
            )
        _extend(prefix, spec, 1, rng)
        residual *= 1.0 - prefix.distinct[prefix.atom_index[-1]]
    return prefix, sb_transform(prefix.values)
