"""Command-line front end: prior analytics, mixture fitting, and a
self-verification suite, all driven by JSON configs and emitting plot-ready
CSV tables plus a JSON run manifest.

Subcommands: prior-kn, prior-ekn, order-prob, alloc-prob, fit, verify.
Every output is a deterministic function of (config, seed, thread count).
"""

import argparse
import csv
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import analytics, mcmc, numerics, sticks
from .eppf import Dirichlet, IdenticalDegenerate, IidDegenerate, PitmanYor
from .sticks import IidBeta, SharedBeta, SpeciesDriven

log = logging.getLogger("esbmix")

FAMILIES = ("dirichlet", "geometric", "dsb", "pitman-yor", "random-rho")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config validation

def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _positive(obj, key, where, kind=float):
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number")
    if kind is int and int(val) != val:
        raise ConfigError(f"{where}.{key}: expected an integer")
    if val <= 0:
        raise ConfigError(f"{where}.{key}: must be positive")
    return kind(val)


def parse_prior(obj, where="prior", allow_random_rho=False):
    """Prior spec object -> (spec-or-RandomRho, label)."""
    _require_keys(
        obj,
        allowed={"family", "theta", "beta", "rho", "alpha", "base", "label", "rho_bounds"},
        required={"family"},
        where=where,
    )
    family = obj["family"]
    if family not in FAMILIES:
        raise ConfigError(f"{where}.family: must be one of {FAMILIES}")
    base = None
    if "base" in obj:
        if (not isinstance(obj["base"], list) or len(obj["base"]) != 2
                or any(not isinstance(x, (int, float)) or x <= 0 for x in obj["base"])):
            raise ConfigError(f"{where}.base: expected [a, b] with a, b > 0")
        base = (float(obj["base"][0]), float(obj["base"][1]))
    theta = _positive(obj, "theta", where) if "theta" in obj else None
    if base is None:
        if theta is None:
            raise ConfigError(f"{where}: needs theta (or an explicit base)")
        base = (1.0, theta)

    if family == "random-rho":
        if not allow_random_rho:
            raise ConfigError(f"{where}: random-rho is only valid for fit")
        if theta is None:
            raise ConfigError(f"{where}: random-rho needs theta")
        lo, hi = 0.0, 1.0
        if "rho_bounds" in obj:
            rb = obj["rho_bounds"]
            if (not isinstance(rb, list) or len(rb) != 2
                    or not (0 <= rb[0] < rb[1] <= 1)):
                raise ConfigError(f"{where}.rho_bounds: expected [lo, hi] in [0, 1]")
            lo, hi = float(rb[0]), float(rb[1])
        return mcmc.RandomRho(theta=theta, rho_lo=lo, rho_hi=hi), obj.get("label", "random-rho")

    if family == "dirichlet":
        spec = IidBeta(*base)
        label = obj.get("label", f"dirichlet_t{base[1]:g}")
    elif family == "geometric":
        spec = SharedBeta(*base)
        label = obj.get("label", f"geometric_t{base[1]:g}")
    elif family == "dsb":
        if "rho" in obj:
            rho = _positive(obj, "rho", where)
            if rho >= 1:
                raise ConfigError(f"{where}.rho: must lie in (0, 1)")
            beta = (1.0 - rho) / rho
        elif "beta" in obj:
            beta = _positive(obj, "beta", where)
        else:
            raise ConfigError(f"{where}: dsb needs beta or rho")
        spec = SpeciesDriven(Dirichlet(beta), *base)
        label = obj.get("label", f"dsb_b{beta:g}_t{base[1]:g}")
    else:  # pitman-yor
        if "alpha" not in obj or "beta" not in obj:
            raise ConfigError(f"{where}: pitman-yor needs alpha and beta")
        alpha = float(obj["alpha"])
        beta = float(obj["beta"])
        spec = SpeciesDriven(PitmanYor(alpha, beta), *base)
        label = obj.get("label", f"py_a{alpha:g}_b{beta:g}_t{base[1]:g}")
    return spec, label


def parse_kernel(obj, where="kernel"):
    _require_keys(
        obj,
        allowed={"type", "mu0", "lam", "a", "b", "psi", "nu"},
        required={"type"},
        where=where,
    )
    if obj["type"] == "univariate-normal-gamma":
        return mcmc.UnivariateNormalGamma(
            mu0=float(obj.get("mu0", 0.0)),
            lam=_positive(obj, "lam", where) if "lam" in obj else 0.01,
            a=_positive(obj, "a", where) if "a" in obj else 0.5,
            b=_positive(obj, "b", where) if "b" in obj else 0.5,
        )
    if obj["type"] == "bivariate-normal-invwishart":
        psi = obj.get("psi", [[1.0, 0.0], [0.0, 1.0]])
        return mcmc.BivariateNormalInvWishart(
            mu0=tuple(obj.get("mu0", (0.0, 0.0))),
            lam=_positive(obj, "lam", where) if "lam" in obj else 0.01,
            psi=tuple(tuple(float(x) for x in row) for row in psi),
            nu=_positive(obj, "nu", where) if "nu" in obj else 2.0,
        )
    raise ConfigError(f"{where}.type: unknown kernel type {obj['type']!r}")


# ---------------------------------------------------------------------------
# I/O helpers

def _fmt(x):
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(c) if not isinstance(c, str) else c for c in row) + "\n")


def write_manifest(outdir, subcommand, config, seed, threads, runtime, extra=None):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "threads": threads,
        "runtime_seconds": runtime,
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(outdir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_data_csv(path, expect_header=False):
    """1 or 2 finite numeric columns, one observation per row."""
    rows = []
    ncols = None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        for lineno, row in enumerate(reader, start=1):
            if expect_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if ncols is None:
                ncols = len(row)
                if ncols not in (1, 2):
                    raise ConfigError(f"{path}:{lineno}: expected 1 or 2 columns, got {ncols}")
            if len(row) != ncols:
                raise ConfigError(f"{path}:{lineno}: expected {ncols} columns, got {len(row)}")
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{path}:{lineno}: non-finite value in {row}")
            rows.append(values)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0] if ncols == 1 else arr


# ---------------------------------------------------------------------------
# subcommands

def cmd_prior_kn(config, outdir, seed, rng):
    _require_keys(config, {"specs", "n", "replicates", "seed"}, {"specs", "n"}, "config")
    n = _positive(config, "n", "config", int)
    reps = _positive(config, "replicates", "config", int) if "replicates" in config else 10_000
    specs = [parse_prior(s, f"specs[{i}]") for i, s in enumerate(config["specs"])]
    cols, labels = [], []
    for spec, label in specs:
        summary = analytics.sample_kn(spec, n, reps, rng)
        cols.append([summary.pmf.get(k, 0.0) for k in range(1, n + 1)])
        labels.append(label)
        log.info("prior-kn: %s mean K_%d = %.3f", label, n, summary.mean())
    rows = [[k] + [col[k - 1] for col in cols] for k in range(1, n + 1)]
    write_csv(os.path.join(outdir, "prior_kn.csv"), ["k"] + [f"freq_{l}" for l in labels], rows)


def cmd_prior_ekn(config, outdir, seed, rng):
    _require_keys(config, {"specs", "n_max", "replicates", "seed"}, {"specs", "n_max"}, "config")
    n_max = _positive(config, "n_max", "config", int)
    reps = _positive(config, "replicates", "config", int) if "replicates" in config else 10_000
    specs = [parse_prior(s, f"specs[{i}]") for i, s in enumerate(config["specs"])]
    cols, labels = [], []
    for spec, label in specs:
        cols.append(analytics.expected_kn_curve(spec, n_max, reps, rng))
        labels.append(label)
    rows = [[n] + [col[n - 1] for col in cols] for n in range(1, n_max + 1)]
    write_csv(os.path.join(outdir, "prior_ekn.csv"), ["n"] + [f"ekn_{l}" for l in labels], rows)


def cmd_order_prob(config, outdir, seed, rng):
    _require_keys(
        config, {"betas", "thetas", "mc_replicates", "seed"}, {"betas", "thetas"}, "config"
    )
    betas = config["betas"]
    thetas = config["thetas"]
    if not isinstance(betas, list) or not isinstance(thetas, list):
        raise ConfigError("config.betas / config.thetas: expected lists")
    reps = (_positive(config, "mc_replicates", "config", int)
            if "mc_replicates" in config else 1_000_000)
    rows = []
    for theta in thetas:
        for beta in betas:
            closed = analytics.ordering_probability_dsb(beta, theta)
            est, se = analytics.ordering_probability_mc(sticks.dsb(beta, theta), reps, rng)
            rows.append([beta, theta, closed, est, se])
    write_csv(
        os.path.join(outdir, "order_prob.csv"),
        ["beta", "theta", "closed_form", "mc_estimate", "mc_stderr"],
        rows,
    )


def cmd_alloc_prob(config, outdir, seed, rng, mc_fallback=False):
    _require_keys(
        config,
        {"d_vectors", "model", "replicates", "seed"},
        {"d_vectors", "model"},
        "config",
    )
    spec, _ = parse_prior(config["model"], "config.model")
    model = spec.eppf_model()
    base_a, base_b = spec.base()
    reps = (_positive(config, "replicates", "config", int)
            if "replicates" in config else 1_000_000)
    rows = []
    for i, d in enumerate(config["d_vectors"]):
        if (not isinstance(d, list) or not d
                or any(not isinstance(x, int) or x < 1 for x in d)):
            raise ConfigError(f"config.d_vectors[{i}]: expected a list of positive integers")
        k = max(d)
        if k > analytics.ENUMERATION_CAP:
            if not mc_fallback:
                raise ConfigError(
                    f"config.d_vectors[{i}]: k={k} exceeds the exact cap "
                    f"{analytics.ENUMERATION_CAP}; rerun with --mc-fallback"
                )
            exact = ""
        else:
            exact = analytics.allocation_probability(d, model, base_a, base_b)
        est, se = analytics.allocation_probability_mc(d, spec, reps, rng)
        rows.append([";".join(str(x) for x in d), exact, est, se])
    write_csv(
        os.path.join(outdir, "alloc_prob.csv"),
        ["d", "exact_probability", "mc_estimate", "mc_stderr"],
        rows,
    )


def _parse_grid(config, data, dim):
    grid_cfg = config.get("grid", {})
    _require_keys(grid_cfg, {"min", "max", "points"}, set(), "config.grid")
    if dim == 1:
        lo = float(grid_cfg.get("min", data.min() - 3.0))
        hi = float(grid_cfg.get("max", data.max() + 3.0))
        pts = int(grid_cfg.get("points", 481))
        return np.linspace(lo, hi, pts)
    lo = grid_cfg.get("min", [float(data[:, 0].min() - 3), float(data[:, 1].min() - 3)])
    hi = grid_cfg.get("max", [float(data[:, 0].max() + 3), float(data[:, 1].max() + 3)])
    pts = grid_cfg.get("points", [61, 61])
    gx = np.linspace(lo[0], hi[0], int(pts[0]))
    gy = np.linspace(lo[1], hi[1], int(pts[1]))
    xx, yy = np.meshgrid(gx, gy, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def cmd_fit(config, outdir, seed, rng, expect_header=False):
    _require_keys(
        config,
        {"data", "prior", "kernel", "iterations", "burn_in", "thin", "grid", "seed"},
        {"data", "prior"},
        "config",
    )
    data = load_data_csv(config["data"], expect_header=expect_header)
    dim = 1 if data.ndim == 1 else 2
    prior, prior_label = parse_prior(config["prior"], "config.prior", allow_random_rho=True)
    kernel = parse_kernel(config["kernel"]) if "kernel" in config else mcmc.default_kernel(data)
    if kernel.dim != dim:
        raise ConfigError(f"kernel dimension {kernel.dim} does not match data dimension {dim}")
    fit_config = mcmc.FitConfig(
        prior=prior,
        kernel=kernel,
        iterations=_positive(config, "iterations", "config", int) if "iterations" in config else 10_000,
        burn_in=_positive(config, "burn_in", "config", int) if "burn_in" in config else 2_000,
        thin=_positive(config, "thin", "config", int) if "thin" in config else 4,
        seed=seed,
    )
    log.info("fit: n=%d dim=%d prior=%s", len(data), dim, prior_label)
    result = mcmc.fit(data, fit_config, rng=rng)

    grid = _parse_grid(config, data, dim)
    eap = mcmc.eap_density(result.samples, kernel, grid)
    map_idx = mcmc.map_select(result.samples)
    map_dens = mcmc.eap_density([result.samples[map_idx]], kernel, grid)
    if dim == 1:
        rows = [[g, e, m] for g, e, m in zip(grid, eap, map_dens)]
        header = ["point", "eap_density", "map_density"]
    else:
        rows = [[g[0], g[1], e, m] for g, e, m in zip(grid, eap, map_dens)]
        header = ["x", "y", "eap_density", "map_density"]
    write_csv(os.path.join(outdir, "density.csv"), header, rows)

    kn_counts = {}
    for rec in result.trace:
        kn_counts[rec.kn] = kn_counts.get(rec.kn, 0) + 1
    total = sum(kn_counts.values())
    write_csv(
        os.path.join(outdir, "posterior_kn.csv"),
        ["k", "probability"],
        [[k, c / total] for k, c in sorted(kn_counts.items())],
    )

    labels = mcmc.cluster_assign(result.samples[map_idx], data, kernel)
    write_csv(
        os.path.join(outdir, "clusters.csv"),
        ["index", "label"],
        [[i, int(l)] for i, l in enumerate(labels)],
    )

    random_rho = isinstance(prior, mcmc.RandomRho)
    trace_rows = [
        [rec.sweep, rec.kn, (rec.rho if random_rho else ""), rec.log_score]
        for rec in result.trace
    ]
    write_csv(
        os.path.join(outdir, "trace.csv"), ["sweep", "k_n", "rho", "log_score"], trace_rows
    )

    extra = {
        "n_observations": len(data),
        "prior": prior_label,
        "map_sample_index": map_idx,
        "invariant_checks": {"infeasible_slice_updates": result.infeasible_slices},
    }
    if random_rho:
        rhos = np.array([rec.rho for rec in result.trace])
        edges = np.linspace(0.0, 1.0, 21)
        hist, _ = np.histogram(rhos, bins=edges)
        write_csv(
            os.path.join(outdir, "rho_hist.csv"),
            ["bin_left", "bin_right", "frequency"],
            [[edges[i], edges[i + 1], hist[i] / len(rhos)] for i in range(20)],
        )
        extra["posterior_rho_mean"] = float(rhos.mean())
    return extra


# ---------------------------------------------------------------------------
# verify

def _verify_checks(rng, fault=None):
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # spot value of the hypergeometric series
    val = numerics.gauss_2f1_11(3.0, 0.5)
    target = 4.0 * (1.0 - math.log(2.0))
    record("gauss-2f1-spot", abs(val - target) < 1e-10, f"|{val} - {target}|")

    # EPPF addition rule
    worst = 0.0
    for model in (Dirichlet(1.0), Dirichlet(3.0), PitmanYor(0.5, 0.5)):
        for _ in range(100):
            k = rng.integers(1, 5)
            sizes = [int(rng.integers(1, 4)) for _ in range(k)]
            from .eppf import check_addition_rule

            worst = max(worst, check_addition_rule(model, sizes))
    record("eppf-addition-rule", worst < 1e-12, f"max residual {worst:.3g}")

    # stick-breaking round trips
    v = rng.random(30) * 0.5
    err_v = float(np.max(np.abs(sticks.sb_inverse(sticks.sb_transform(v)) - v)))
    w = rng.dirichlet(np.ones(25))[:24]
    err_w = float(np.max(np.abs(sticks.sb_transform(sticks.sb_inverse(w)) - w)))
    record("stick-round-trip", err_v < 1e-12 and err_w < 1e-12, f"v {err_v:.3g}, w {err_w:.3g}")

    # ordering closed form vs Monte Carlo
    ok, detail = True, []
    for beta, theta in ((1.0, 1.0), (2.0, 0.5)):
        closed = analytics.ordering_probability_dsb(beta, theta)
        if fault == "ordering-sign-flip":
            f = numerics.gauss_2f1_11(theta + 2.0, 0.5)
            closed = 1.0 + f * beta * theta / (2.0 * (beta + 1.0) * (theta + 1.0))
        est, se = analytics.ordering_probability_mc(sticks.dsb(beta, theta), 200_000, rng)
        ok = ok and abs(closed - est) < 3.0 * se
        detail.append(f"({beta},{theta}): |{closed:.5f}-{est:.5f}| vs 3se={3*se:.5f}")
    record("ordering-closed-vs-mc", ok, "; ".join(detail))

    # conjugate update: posterior mean of the location given a fixed block
    kern = mcmc.UnivariateNormalGamma(mu0=0.0, lam=0.01, a=0.5, b=0.5)
    ys = rng.normal(3.0, 1.0, size=25)
    mu_n = kern.posterior_params(ys)[0]
    draws = np.array([kern.sample_posterior(ys, rng)[0] for _ in range(3000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    record(
        "conjugate-posterior-mean",
        abs(draws.mean() - mu_n) < 3.0 * se,
        f"|{draws.mean():.4f} - {mu_n:.4f}| vs 3se={3*se:.4f}",
    )

    # tie probability of simulated length pairs
    spec = sticks.dsb(1.0, 1.0)
    v1, v2 = sticks.sample_length_pairs(spec, 200_000, rng)
    freq = float(np.mean(v1 == v2))
    se = math.sqrt(0.5 * 0.5 / 200_000)
    record("tie-probability", abs(freq - 0.5) < 3.0 * se, f"|{freq:.5f} - 0.5|")

    # prior recovery of the distinct-count law under the zero-data sampler
    m = 6
    cfg = mcmc.FitConfig(prior=spec, kernel=kern, iterations=10, burn_in=1, seed=0)
    state = mcmc.GibbsState(
        u=np.empty(0),
        d=np.empty(0, dtype=np.int64),
        lengths=sticks.sample_lengths_prefix(spec, m, rng),
        weights=np.empty(0),
        atoms=[],
        rho=None,
    )
    state.weights = sticks.sb_transform(state.lengths.values)
    state.atoms = [kern.sample_prior(rng) for _ in range(m)]
    hits = np.zeros(m + 1)
    sweeps = 20_000
    for _ in range(sweeps):
        mcmc.gibbs_sweep(state, np.empty(0), cfg, rng, min_phi=m)
        hits[len(state.lengths.distinct)] += 1
    chain_pmf = {k: hits[k] / sweeps for k in range(1, m + 1)}
    sim = np.zeros(m + 1)
    for _ in range(sweeps):
        sim[len(sticks.sample_lengths_prefix(spec, m, rng).distinct)] += 1
    prior_pmf = {k: sim[k] / sweeps for k in range(1, m + 1)}
    tv = analytics.tv_distance(chain_pmf, prior_pmf)
    record("prior-recovery-kn", tv < 0.05, f"TV {tv:.4f} over {sweeps} sweeps")

    return checks


def cmd_verify(config, outdir, seed, rng):
    _require_keys(config, {"inject_fault", "seed"}, set(), "config")
    fault = config.get("inject_fault")
    if fault is not None and fault != "ordering-sign-flip":
        raise ConfigError(f"config.inject_fault: unknown fault {fault!r}")
    checks = _verify_checks(rng, fault=fault)
    all_passed = all(c["passed"] for c in checks)
    report = {"schema": "esbmix-verify-report/1", "seed": seed,
              "all_passed": all_passed, "checks": checks}
    path = os.path.join(outdir, "verify_report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    for c in checks:
        print(("PASS" if c["passed"] else "FAIL"), c["name"], "-", c["detail"])
    return all_passed


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="esbmix",
        description="Stick-breaking priors with exchangeable length variables: "
        "prior analytics and mixture density estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("prior-kn", "prior-ekn", "order-prob", "alloc-prob", "fit", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"), help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker count recorded in the manifest (execution is sequential)")
        p.add_argument("--mc-fallback", action="store_true",
                       help="allow Monte Carlo-only rows where the exact cap is exceeded")
        p.add_argument("--header", action="store_true",
                       help="data CSV has a header row (fit only)")
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("ESBMIX_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    if args.config:
        with open(args.config) as f:
            config = json.load(f)
        if not isinstance(config, dict):
            raise ConfigError("config root must be an object")
    else:
        config = {}
    seed = args.seed
    if seed is None:
        seed = config.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("config.seed: expected an integer")
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(seed)
    started = time.time()
    extra = None
    status = 0
    try:
        if args.subcommand == "prior-kn":
            cmd_prior_kn(config, args.out, seed, rng)
        elif args.subcommand == "prior-ekn":
            cmd_prior_ekn(config, args.out, seed, rng)
        elif args.subcommand == "order-prob":
            cmd_order_prob(config, args.out, seed, rng)
        elif args.subcommand == "alloc-prob":
            cmd_alloc_prob(config, args.out, seed, rng, mc_fallback=args.mc_fallback)
        elif args.subcommand == "fit":
            extra = cmd_fit(config, args.out, seed, rng, expect_header=args.header)
        elif args.subcommand == "verify":
            status = 0 if cmd_verify(config, args.out, seed, rng) else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runtime = round(time.time() - started, 3)
    write_manifest(args.out, args.subcommand, config, seed, args.threads, runtime, extra)
    return status


if __name__ == "__main__":
    sys.exit(main())
