"""Command-line front end: prior analytics, mixture fitting, and a
self-verification suite, all driven by JSON configs and emitting plot-ready
CSV tables plus a JSON run manifest.

Subcommands: prior-kn, prior-ekn, order-prob, alloc-prob, fit, verify.
Every output is a deterministic function of (config, seed).
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
from .eppf import Dirichlet, PitmanYor, check_addition_rule
from .sticks import IidBeta, SharedBeta, SpeciesDriven

log = logging.getLogger("esbmix")

# the keys of each prior family besides family and label: exactly one of
# theta or base, and for dsb exactly one of beta or rho
FAMILIES = {
    "dirichlet": {"theta", "base"},
    "geometric": {"theta", "base"},
    "dsb": {"theta", "base", "beta", "rho"},
    "pitman-yor": {"theta", "base", "alpha", "beta"},
    "random-rho": {"theta"},
}


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


def _number(val, where, kind=float):
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        raise ConfigError(f"{where}: expected a number")
    if kind is int and int(val) != val:
        raise ConfigError(f"{where}: expected an integer")
    return kind(val)


def _pair(val, where, kind=float):
    if not isinstance(val, list) or len(val) != 2:
        raise ConfigError(f"{where}: expected a list of two numbers")
    return tuple(_number(x, where, kind) for x in val)


def _positive(obj, key, where, kind=float):
    val = _number(obj[key], f"{where}.{key}", kind)
    if val <= 0:
        raise ConfigError(f"{where}.{key}: must be positive")
    return val


def _positive_item(val, where):
    """A finite number > 0, returned as given."""
    if _number(val, where) <= 0:
        raise ConfigError(f"{where}: must be positive")
    return val


def _d_vector(val, where):
    """A nonempty list of positive integers (not booleans), returned as given."""
    if (not isinstance(val, list) or not val
            or any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in val)):
        raise ConfigError(f"{where}: expected a list of positive integers")
    return val


def _list_of(config, key, read):
    """config[key] as a list, each item checked by read(item, where)."""
    if not isinstance(config[key], list):
        raise ConfigError(f"config.{key}: expected a list")
    return [read(val, f"config.{key}[{i}]") for i, val in enumerate(config[key])]


def _non_negative(obj, key, where, kind=float):
    val = _number(obj[key], f"{where}.{key}", kind)
    if val < 0:
        raise ConfigError(f"{where}.{key}: must be non-negative")
    return val


def _build(where, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError reported as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _one_of(obj, keys, where):
    """The one key of `keys` that obj holds."""
    held = [k for k in keys if k in obj]
    if len(held) != 1:
        raise ConfigError(f"{where}: needs exactly one of {' or '.join(keys)}")
    return held[0]


def parse_prior(obj, where="prior", allow_random_rho=False):
    """Prior spec object -> (spec-or-RandomRho, label).  Each family takes
    `family`, `label` and the keys FAMILIES lists, and no others."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    family = obj.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"{where}.family: must be one of {tuple(FAMILIES)}")
    _require_keys(obj, allowed={"family", "label"} | FAMILIES[family], required=(),
                  where=where)

    if family == "random-rho":
        if "theta" not in obj:
            raise ConfigError(f"{where}: random-rho needs theta")
        if not allow_random_rho:
            raise ConfigError(f"{where}: random-rho is only valid for fit")
        return mcmc.RandomRho(theta=_positive(obj, "theta", where)), obj.get("label", "random-rho")

    if _one_of(obj, ("theta", "base"), where) == "base":
        base = _pair(obj["base"], f"{where}.base")
        if min(base) <= 0:
            raise ConfigError(f"{where}.base: expected [a, b] with a, b > 0")
    else:
        base = (1.0, _positive(obj, "theta", where))

    if family == "dirichlet":
        spec = IidBeta(*base)
        label = obj.get("label", f"dirichlet_t{base[1]:g}")
    elif family == "geometric":
        spec = SharedBeta(*base)
        label = obj.get("label", f"geometric_t{base[1]:g}")
    elif family == "dsb":
        if _one_of(obj, ("beta", "rho"), where) == "rho":
            rho = _positive(obj, "rho", where)
            if rho >= 1:
                raise ConfigError(f"{where}.rho: must lie in (0, 1)")
            beta = (1.0 - rho) / rho
        else:
            beta = _positive(obj, "beta", where)
        spec = SpeciesDriven(Dirichlet(beta), *base)
        label = obj.get("label", f"dsb_b{beta:g}_t{base[1]:g}")
    else:  # pitman-yor
        if "alpha" not in obj or "beta" not in obj:
            raise ConfigError(f"{where}: pitman-yor needs alpha and beta")
        alpha = _number(obj["alpha"], f"{where}.alpha")
        beta = _number(obj["beta"], f"{where}.beta")
        spec = SpeciesDriven(_build(where, PitmanYor, alpha, beta), *base)
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
            mu0=_number(obj["mu0"], f"{where}.mu0") if "mu0" in obj else 0.0,
            lam=_positive(obj, "lam", where) if "lam" in obj else 0.01,
            a=_positive(obj, "a", where) if "a" in obj else 0.5,
            b=_positive(obj, "b", where) if "b" in obj else 0.5,
        )
    if obj["type"] == "bivariate-normal-invwishart":
        psi = obj.get("psi", [[1.0, 0.0], [0.0, 1.0]])
        if not isinstance(psi, list) or len(psi) != 2:
            raise ConfigError(f"{where}.psi: expected a 2x2 matrix")
        return _build(
            where,
            mcmc.BivariateNormalInvWishart,
            mu0=_pair(obj["mu0"], f"{where}.mu0") if "mu0" in obj else (0.0, 0.0),
            lam=_positive(obj, "lam", where) if "lam" in obj else 0.01,
            psi=tuple(_pair(row, f"{where}.psi") for row in psi),
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


def write_manifest(outdir, subcommand, config, seed, runtime, extra=None):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
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

def cmd_prior_kn(config, args, rng):
    _require_keys(config, {"specs", "n", "replicates", "seed"}, {"specs", "n"}, "config")
    n = _positive(config, "n", "config", int)
    reps = _positive(config, "replicates", "config", int) if "replicates" in config else 10_000
    specs = _list_of(config, "specs", parse_prior)
    cols, labels = [], []
    for spec, label in specs:
        summary = analytics.sample_kn(spec, n, reps, rng)
        cols.append([summary.pmf.get(k, 0.0) for k in range(1, n + 1)])
        labels.append(label)
        log.info("prior-kn: %s mean K_%d = %.3f", label, n, summary.mean())
    rows = [[k] + [col[k - 1] for col in cols] for k in range(1, n + 1)]
    write_csv(os.path.join(args.out, "prior_kn.csv"), ["k"] + [f"freq_{l}" for l in labels], rows)
    return 0, None


def cmd_prior_ekn(config, args, rng):
    _require_keys(config, {"specs", "n_max", "replicates", "seed"}, {"specs", "n_max"}, "config")
    n_max = _positive(config, "n_max", "config", int)
    reps = _positive(config, "replicates", "config", int) if "replicates" in config else 10_000
    specs = _list_of(config, "specs", parse_prior)
    cols, labels = [], []
    for spec, label in specs:
        cols.append(analytics.expected_kn_curve(spec, n_max, reps, rng))
        labels.append(label)
    rows = [[n] + [col[n - 1] for col in cols] for n in range(1, n_max + 1)]
    write_csv(os.path.join(args.out, "prior_ekn.csv"), ["n"] + [f"ekn_{l}" for l in labels], rows)
    return 0, None


def cmd_order_prob(config, args, rng):
    _require_keys(
        config, {"betas", "thetas", "mc_replicates", "seed"}, {"betas", "thetas"}, "config"
    )
    betas = _list_of(config, "betas", _positive_item)
    thetas = _list_of(config, "thetas", _positive_item)
    reps = (_positive(config, "mc_replicates", "config", int)
            if "mc_replicates" in config else 1_000_000)
    rows = []
    for theta in thetas:
        for beta in betas:
            closed = analytics.ordering_probability_dsb(beta, theta)
            est, se = analytics.ordering_probability_mc(sticks.dsb(beta, theta), reps, rng)
            rows.append([beta, theta, closed, est, se])
    write_csv(
        os.path.join(args.out, "order_prob.csv"),
        ["beta", "theta", "closed_form", "mc_estimate", "mc_stderr"],
        rows,
    )
    return 0, None


def cmd_alloc_prob(config, args, rng):
    _require_keys(
        config,
        {"d_vectors", "model", "replicates", "seed"},
        {"d_vectors", "model"},
        "config",
    )
    spec, _ = parse_prior(config["model"], "config.model")
    reps = (_positive(config, "replicates", "config", int)
            if "replicates" in config else 1_000_000)
    rows = []
    for i, d in enumerate(_list_of(config, "d_vectors", _d_vector)):
        k = max(d)
        if k > analytics.ENUMERATION_CAP:
            if not args.mc_fallback:
                raise ConfigError(
                    f"config.d_vectors[{i}]: k={k} exceeds the exact cap "
                    f"{analytics.ENUMERATION_CAP}; rerun with --mc-fallback"
                )
            exact = ""
        else:
            exact = analytics.allocation_probability(d, spec.eppf, spec.base_a, spec.base_b)
        est, se = analytics.allocation_probability_mc(d, spec, reps, rng)
        rows.append([";".join(str(x) for x in d), exact, est, se])
    write_csv(
        os.path.join(args.out, "alloc_prob.csv"),
        ["d", "exact_probability", "mc_estimate", "mc_stderr"],
        rows,
    )
    return 0, None


def _parse_grid(config, data, dim):
    """min and max take a number, points a positive integer, per dimension."""
    grid_cfg = config.get("grid", {})
    _require_keys(grid_cfg, {"min", "max", "points"}, set(), "config.grid")

    def read(key, default, kind=float):
        if key not in grid_cfg:
            return default
        where = f"config.grid.{key}"
        val = grid_cfg[key]
        vals = (_number(val, where, kind),) if dim == 1 else _pair(val, where, kind)
        if kind is int and min(vals) <= 0:
            raise ConfigError(f"{where}: must be positive")
        return vals

    data = data.reshape(len(data), dim)
    lo = read("min", data.min(axis=0) - 3.0)
    hi = read("max", data.max(axis=0) + 3.0)
    pts = read("points", [481] if dim == 1 else [61, 61], int)
    axes = [np.linspace(lo[i], hi[i], pts[i]) for i in range(dim)]
    if dim == 1:
        return axes[0]
    xx, yy = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def cmd_fit(config, args, rng):
    _require_keys(
        config,
        {"data", "prior", "kernel", "iterations", "burn_in", "thin", "grid", "seed"},
        {"data", "prior"},
        "config",
    )
    data = load_data_csv(config["data"], expect_header=args.header)
    dim = 1 if data.ndim == 1 else 2
    prior, prior_label = parse_prior(config["prior"], "config.prior", allow_random_rho=True)
    kernel = (parse_kernel(config["kernel"], "config.kernel") if "kernel" in config
              else mcmc.default_kernel(data))
    if kernel.dim != dim:
        raise ConfigError(f"kernel dimension {kernel.dim} does not match data dimension {dim}")
    grid = _parse_grid(config, data, dim)
    # the keys the config leaves out take FitConfig's defaults
    schedule = {key: read(config, key, "config", int)
                for key, read in (("iterations", _positive), ("burn_in", _non_negative),
                                  ("thin", _positive))
                if key in config}
    fit_config = _build("config", mcmc.FitConfig, prior=prior, kernel=kernel, seed=args.seed,
                        **schedule)
    log.info("fit: n=%d dim=%d prior=%s", len(data), dim, prior_label)
    result = mcmc.fit(data, fit_config, check_invariants=args.check_invariants)

    eap = mcmc.eap_density(result.samples, kernel, grid)
    map_idx = mcmc.map_select(result.samples)
    map_dens = mcmc.eap_density([result.samples[map_idx]], kernel, grid)
    if dim == 1:
        rows = [[g, e, m] for g, e, m in zip(grid, eap, map_dens)]
        header = ["point", "eap_density", "map_density"]
    else:
        rows = [[g[0], g[1], e, m] for g, e, m in zip(grid, eap, map_dens)]
        header = ["x", "y", "eap_density", "map_density"]
    write_csv(os.path.join(args.out, "density.csv"), header, rows)

    write_csv(
        os.path.join(args.out, "posterior_kn.csv"),
        ["k", "probability"],
        mcmc.posterior_kn(result).pmf.items(),
    )

    labels = mcmc.cluster_assign(result.samples[map_idx], data, kernel)
    write_csv(
        os.path.join(args.out, "clusters.csv"),
        ["index", "label"],
        [[i, int(l)] for i, l in enumerate(labels)],
    )

    random_rho = isinstance(prior, mcmc.RandomRho)
    trace_rows = [
        [rec.sweep, rec.kn, (rec.rho if random_rho else ""), rec.log_score]
        for rec in result.trace
    ]
    write_csv(
        os.path.join(args.out, "trace.csv"), ["sweep", "k_n", "rho", "log_score"], trace_rows
    )

    extra = {
        "n_observations": len(data),
        "prior": prior_label,
        "map_sample_index": map_idx,
        "map_unscored_samples": result.unscored_samples,
        "invariant_checks": {"class_value_redraws": result.infeasible_slices,
                             "state_validated_each_sweep": args.check_invariants},
    }
    if random_rho:
        rhos = np.array([rec.rho for rec in result.trace])
        edges = np.linspace(0.0, 1.0, 21)
        hist, _ = np.histogram(rhos, bins=edges)
        write_csv(
            os.path.join(args.out, "rho_hist.csv"),
            ["bin_left", "bin_right", "frequency"],
            [[edges[i], edges[i + 1], hist[i] / len(rhos)] for i in range(20)],
        )
        extra["posterior_rho_mean"] = float(rhos.mean())
    return 0, extra


# ---------------------------------------------------------------------------
# verify

def _verify_checks(rng):
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


def cmd_verify(config, args, rng):
    _require_keys(config, {"seed"}, set(), "config")
    checks = _verify_checks(rng)
    all_passed = all(c["passed"] for c in checks)
    report = {"schema": "esbmix-verify-report/1", "seed": args.seed,
              "all_passed": all_passed, "checks": checks}
    path = os.path.join(args.out, "verify_report.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    for c in checks:
        print(("PASS" if c["passed"] else "FAIL"), c["name"], "-", c["detail"])
    return (0 if all_passed else 1), None


# ---------------------------------------------------------------------------
# entry point

# subcommand -> (handler, the flags only it reads); a handler takes the
# config, the parsed arguments (with the seed resolved) and the generator,
# and returns (exit status, extra manifest fields or None)
SUBCOMMANDS = {
    "prior-kn": (cmd_prior_kn, {}),
    "prior-ekn": (cmd_prior_ekn, {}),
    "order-prob": (cmd_order_prob, {}),
    "alloc-prob": (cmd_alloc_prob, {
        "--mc-fallback": "allow Monte Carlo-only rows where the exact cap is exceeded",
    }),
    "fit": (cmd_fit, {
        "--header": "data CSV has a header row",
        "--check-invariants": "validate the sampler state after every sweep",
    }),
    "verify": (cmd_verify, {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esbmix",
        description="Stick-breaking priors with exchangeable length variables: "
        "prior analytics and mixture density estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "verify"), help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
        p.add_argument("--out", default=".", help="output directory")
        for flag, help_text in flags.items():
            p.add_argument(flag, action="store_true", help=help_text)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("ESBMIX_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        config = {}
        if args.config:
            with open(args.config) as f:
                config = json.load(f)
        if not isinstance(config, dict):
            raise ConfigError("config root must be an object")
        if args.seed is None:
            args.seed = config.get("seed", 0)
            if not isinstance(args.seed, int) or isinstance(args.seed, bool):
                raise ConfigError("config.seed: expected an integer")
        os.makedirs(args.out, exist_ok=True)
        rng = np.random.default_rng(args.seed)
        started = time.time()
        status, extra = args.handler(config, args, rng)
    except (ConfigError, OSError, json.JSONDecodeError, sticks.ExtensionCapError) as exc:
        # a bad or unreadable config or data file, or an improper prior: one
        # line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runtime = round(time.time() - started, 3)
    write_manifest(args.out, args.subcommand, config, args.seed, runtime, extra)
    return status


if __name__ == "__main__":
    sys.exit(main())
