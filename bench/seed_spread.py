"""Seed-to-seed spread of the fit workloads (README, "Seed-to-seed spread").

    python3 bench/seed_spread.py [CHAIN_SEED ...]

Runs each fit workload on its fixed data with other chain seeds: one
untraced fit for sweeps per second, then one traced fit for phi, K_n and
the ESS diagnostics.  Prints one markdown table row per (workload, seed).
Takes a few minutes; it is a reference measurement, not part of a run.
"""

import os
import sys

import numpy as np

import workloads

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def main(argv):
    seeds = [int(s) for s in argv] or list(DEFAULT_SEEDS)
    print("| workload | chain seed | sweeps_per_s | mcmc.phi_mean | mcmc.kn_mean "
          "| mcmc.ess.kn | mcmc.ess.log_score | mcmc.ess.rho | EAP L1 | Rand index | checks |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for name, spec in workloads.FITS.items():
        fixture_seed = spec["chain_seed"]
        for seed in [fixture_seed] + [s for s in seeds if s != fixture_seed]:
            spec["chain_seed"] = seed
            out = os.path.join(workloads.ROOT, ".bench_out", "seed-spread", name)
            os.makedirs(out, exist_ok=True)
            workload = workloads.FitWorkload(name, out)
            tracer, untraced, traced, _ = workloads.run_traced(workload, 0, np.random.default_rng(0))
            m = workloads.per_layer(tracer, traced, 0.0)
            rate = untraced[0]["work"] / untraced[0]["work_seconds"]
            failures = list(dict.fromkeys(untraced[0]["failures"] + traced[0]["failures"]))
            summary = traced[0].get("summary", {})
            print(f"| {name} | {seed}{' (fixture)' if seed == fixture_seed else ''} | {rate:.1f} "
                  f"| {m['mcmc.phi_mean'][0]:.1f} | {m['mcmc.kn_mean'][0]:.2f} "
                  f"| {m['mcmc.ess.kn'][0]:.1f} | {m['mcmc.ess.log_score'][0]:.1f} "
                  f"| {m['mcmc.ess.rho'][0]:.1f} | {summary.get('l1', float('nan')):.3f} "
                  f"| {summary.get('rand_index', float('nan')):.3f} "
                  f"| {'; '.join(failures) or 'pass'} |", flush=True)
        spec["chain_seed"] = fixture_seed


if __name__ == "__main__":
    main(sys.argv[1:])
