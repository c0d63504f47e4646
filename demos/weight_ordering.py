"""When is one stick weight larger than the next?

The probability P[w_j >= w_{j+1}] does not depend on j and interpolates
linearly (in the tie probability) between a base-measure quantity and one.
For Dirichlet-driven sticks with a Be(1, theta) base it has a closed
hypergeometric form, reproduced here against brute Monte Carlo; the
Pitman-Yor variant and the normalized inverse-Gaussian tie probability are
shown as well.
"""

import math

import numpy as np

from esbmix import (
    PitmanYor,
    dsb,
    nig_tie_probability,
    ordering_probability_dsb,
    ordering_probability_general,
    ordering_probability_mc,
)

rng = np.random.default_rng(3)

print("Dirichlet-driven sticks, closed form vs 10^5-pair Monte Carlo:")
for beta in (0.1, 1.0, 9.0):
    for theta in (1.0, 3.0):
        closed = ordering_probability_dsb(beta, theta)
        est, se = ordering_probability_mc(dsb(beta, theta), 100_000, rng)
        print(f"  beta={beta:4g} theta={theta:g}: {closed:.5f}  mc {est:.5f} (se {se:.5f})")

print("\ntheta = 1 has the elementary form (1 + beta log 2)/(1 + beta):")
for beta in (0.5, 1.0, 4.0):
    print(f"  beta={beta:g}: {(1 + beta * math.log(2)) / (1 + beta):.6f}"
          f"  == {ordering_probability_dsb(beta, 1.0):.6f}")

print("\nPitman-Yor driving measure, Be(1,1) base:")
for alpha, beta in ((0.25, 0.5), (0.5, 0.5), (0.5, 2.0)):
    val = ordering_probability_general(PitmanYor(alpha, beta), 1.0, 1.0)
    print(f"  alpha={alpha:g} beta={beta:g}: {val:.5f}")

print("\nnormalized inverse-Gaussian tie probability (bounded by 1/2, "
      "vanishes for large mass):")
for b in (0.01, 0.1, 1.0, 10.0, 100.0):
    print(f"  beta={b:6g}: rho = {nig_tie_probability(b):.5f}")
