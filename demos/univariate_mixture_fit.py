"""Density estimation for a three-component Normal mixture.

Fits a Dirichlet-driven stick-breaking mixture with tie probability 1/2 to
200 simulated points (modes at -6, 0, 6) using the slice-within-Gibbs
sampler, then prints the posterior distribution of the number of occupied
components and writes the EAP/MAP density grid.
"""

import os

import numpy as np

from esbmix import (
    FitConfig,
    cluster_assign,
    default_kernel,
    dsb,
    eap_density,
    fit,
    map_select,
    posterior_kn,
)

rng = np.random.default_rng(5)
data = np.concatenate([
    rng.normal(-6, 1, 60), rng.normal(0, 1, 80), rng.normal(6, 1, 60),
])
rng.shuffle(data)

kernel = default_kernel(data)
config = FitConfig(prior=dsb(1.0, 1.0), kernel=kernel,
                   iterations=10_000, burn_in=2_000, thin=4, seed=5)
result = fit(data, config)

summary = posterior_kn(result)
print("posterior number of occupied components:")
for k, p in summary.pmf.items():
    print(f"  K = {k:2d}: {p:.3f} " + "#" * int(60 * p))

grid = np.linspace(-12, 12, 481)
eap = eap_density(result.samples, kernel, grid)
best = map_select(result.samples)
map_dens = eap_density([result.samples[best]], kernel, grid)
labels = cluster_assign(result.samples[best], data, kernel)
print(f"\nMAP sweep index {best}; clusters found: {len(np.unique(labels))}")
print(f"EAP density integrates to {np.trapezoid(eap, grid):.4f}")

os.makedirs("demo_output", exist_ok=True)
with open("demo_output/univariate_density.csv", "w", newline="") as f:
    f.write("point,eap_density,map_density\n")
    for g, e, m in zip(grid, eap, map_dens):
        f.write(f"{g!r},{e!r},{m!r}\n")
print("wrote demo_output/univariate_density.csv")
