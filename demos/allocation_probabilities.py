"""Exact allocation probabilities via set-partition sums.

P[d_1..d_n] is a finite sum over partitions of {1..max d} of EPPF terms
times Beta moments.  Every EPPF here is of Gibbs type, V(k, m) prod W(n_i),
so allocation_probability evaluates the sum by a dynamic programme over
subsets of {1..max d} instead of visiting the Bell(max d) partitions one at
a time.  The table below compares the exact sums against Monte
Carlo frequencies, and shows the truncated two-draw mass climbing toward 1
(properness) using the symmetric-moment identity.
"""

import numpy as np

from esbmix import (
    Dirichlet,
    PitmanYor,
    SpeciesDriven,
    allocation_probability,
    allocation_probability_mc,
    dsb,
    truncated_pair_mass,
)

rng = np.random.default_rng(4)

print("Dirichlet-driven, beta = theta = 1 (d = (2) is 5/24):")
spec = dsb(1.0, 1.0)
for d in ([1], [2], [1, 1], [1, 2], [1, 1, 2], [2, 1, 3]):
    exact = allocation_probability(d, Dirichlet(1.0), 1.0, 1.0)
    est, se = allocation_probability_mc(d, spec, 200_000, rng)
    print(f"  d={str(d):12s} exact {exact:.6f}  mc {est:.6f} (se {se:.6f})")

print("\nPitman-Yor(0.5, 0.5) driving measure:")
py = PitmanYor(0.5, 0.5)
for d in ([1], [2], [1, 2]):
    exact = allocation_probability(d, py, 1.0, 1.0)
    est, se = allocation_probability_mc(d, SpeciesDriven(py, 1.0, 1.0), 200_000, rng)
    print(f"  d={str(d):12s} exact {exact:.6f}  mc {est:.6f} (se {se:.6f})")

print("\ntwo-draw mass within the first J weights (beta = theta = 1):")
for J in (1, 2, 5, 10, 25):
    print(f"  J={J:3d}: {truncated_pair_mass(Dirichlet(1.0), 1.0, 1.0, J):.6f}")
