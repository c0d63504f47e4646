"""One esbmix benchmark workload, run in its own single-threaded process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
                               [--setup-only]

Prints one JSON object on its last stdout line: the set-up time, the
operations attempted and failed, whether every output check passed, and the
workload's metrics (end-to-end with --trace 0, per-layer with --trace 1).
Failed checks and other notes go to stderr.  bench/run.py starts this script; it is
not meant to be the entry point.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

import checks  # noqa: E402

try:
    import esbmix  # noqa: E402
except ImportError as exc:
    sys.exit(f"esbmix is not importable from {SRC}: {exc}")
if not os.path.abspath(esbmix.__file__).startswith(SRC + os.sep):
    sys.exit(f"esbmix was imported from {esbmix.__file__}, not from {SRC}")

from esbmix import analytics, cli, mcmc, sticks  # noqa: E402
from esbmix.eppf import Dirichlet, IdenticalDegenerate, IidDegenerate, PitmanYor  # noqa: E402

GRID_1D = {"min": -12.0, "max": 12.0, "points": 481}


# ---------------------------------------------------------------------------
# fit workloads
#
# The data and the chain seed of each fit are fixed fixtures, not drawn from
# --seed: the sweep cost follows phi (the instantiated sticks), and phi moves
# so slowly that two chains on the same data differ by up to 3.5x in time per
# sweep (README, "Seed-to-seed spread").  A gate needs one fixed chain.

def three_modes(seed):
    """The criterion-9 fixture: 0.3 N(-6,1) + 0.4 N(0,1) + 0.3 N(6,1), n=200."""
    rng = np.random.default_rng(seed)
    data = np.concatenate([rng.normal(-6.0, 1.0, 60), rng.normal(0.0, 1.0, 80),
                           rng.normal(6.0, 1.0, 60)])
    labels = np.repeat([0, 1, 2], [60, 80, 60])
    perm = rng.permutation(len(data))  # the same draws as rng.shuffle(data)
    return data[perm], labels[perm]


def three_modes_pdf(points):
    x = points[:, 0]
    return (0.3 * stats.norm.pdf(x, -6, 1) + 0.4 * stats.norm.pdf(x, 0, 1)
            + 0.3 * stats.norm.pdf(x, 6, 1))


def one_mode(seed):
    return np.random.default_rng(seed).normal(0.0, 1.0, 20_000), None


def one_mode_pdf(points):
    return stats.norm.pdf(points[:, 0])


CENTERS = np.array([[5.0, 5.0], [-5.0, 5.0], [-5.0, -5.0], [5.0, -5.0]])


def four_blobs(seed):
    """The criterion-10 fixture: 75 points around each of (+-5, +-5), sd 0.5."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(4), 75)
    data = CENTERS[labels] + 0.5 * rng.normal(size=(300, 2))
    perm = rng.permutation(300)
    return data[perm], labels[perm]


def four_blobs_pdf(points):
    return sum(0.25 * stats.multivariate_normal.pdf(points, c, 0.25 * np.eye(2))
               for c in CENTERS)


FITS = {
    "fit-1d-small": dict(data=three_modes, data_seed=20260809, chain_seed=7,
                         prior={"family": "dsb", "beta": 1.0, "theta": 1.0},
                         iterations=1000, burn_in=500, grid=GRID_1D,
                         truth=three_modes_pdf, l1_limit=0.15),
    "fit-1d-large": dict(data=one_mode, data_seed=7, chain_seed=7,
                         prior={"family": "dsb", "beta": 1.0, "theta": 1.0},
                         iterations=400, burn_in=200, grid=GRID_1D,
                         truth=one_mode_pdf, l1_limit=0.05),
    "fit-2d-rrho": dict(data=four_blobs, data_seed=110, chain_seed=11,
                        prior={"family": "random-rho", "theta": 1.0},
                        iterations=1000, burn_in=500, grid=None,
                        truth=four_blobs_pdf, l1_limit=0.5),
}


class FitWorkload:
    def __init__(self, name, out):
        self.spec = FITS[name]
        self.out = out
        self.fit_seconds = []
        data, self.labels = self.spec["data"](self.spec["data_seed"])
        data_path = os.path.join(out, "data.csv")
        with open(data_path, "w") as f:
            for row in np.atleast_2d(data.T).T:
                f.write(",".join(repr(float(x)) for x in row) + "\n")
        config = {"data": data_path, "prior": self.spec["prior"],
                  "iterations": self.spec["iterations"], "burn_in": self.spec["burn_in"],
                  "thin": 4}
        if self.spec["grid"]:
            config["grid"] = self.spec["grid"]
        self.config_path = os.path.join(out, "config.json")
        with open(self.config_path, "w") as f:
            json.dump(config, f)
        self.result_dir = os.path.join(out, "fit")
        self._time_fit_calls()

    def _time_fit_calls(self):
        """Time the mcmc.fit call inside the command (the only inner timer
        of the untraced run)."""
        original = mcmc.fit

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.fit_seconds.append(time.perf_counter() - t0)

        mcmc.fit = timed

    def round(self, rng):
        """One operation: one `esbmix fit` command."""
        argv = ["fit", "--config", self.config_path, "--out", self.result_dir,
                "--seed", str(self.spec["chain_seed"])]
        timed_before = len(self.fit_seconds)
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        fit_s = self.fit_seconds[-1] if len(self.fit_seconds) > timed_before else None
        return {"wall": wall, "attempted": 1, "failed": int(code != 0),
                "work": self.spec["iterations"], "work_seconds": fit_s}

    def check(self, round_index, record):
        if record["failed"]:
            return []
        failures, summary = checks.check_fit_outputs(
            self.result_dir, self.spec["iterations"], self.spec["burn_in"],
            self.spec["truth"], self.spec["l1_limit"], labels=self.labels,
            random_rho=self.spec["prior"]["family"] == "random-rho")
        record["summary"] = summary
        return failures


# ---------------------------------------------------------------------------
# prior-analytics workload

GEOMETRIC_SEED = 10  # requests a ~20000 GiB `seen` matrix in kn_paths (README)
# kn_paths holds a (replicates, largest allocation index) matrix, and that
# index is a heavy-tailed maximum (4106 to 13732 for dsb(1/3, 1) over seeds
# 1-5), so with --seed the peak RSS would move from 450 to 770 MB between
# runs.  The K_n operations therefore draw from a fixed generator.
KN_SEED = 1
KN_N, KN_REPS = 200, 20_000
ORDER_REPS = 200_000
PY = PitmanYor(0.5, 1.0)


def kn_specs():
    specs = [(f"kn_paths iid theta={t}", sticks.IidBeta(1.0, t), t) for t in (0.5, 1.0, 2.5, 4.0)]
    specs += [("kn_paths dsb(1/3,1)", sticks.dsb(1.0 / 3.0, 1.0), None),
              ("kn_paths dsb(3,1)", sticks.dsb(3.0, 1.0), None),
              ("kn_paths py(0.5,1)", sticks.SpeciesDriven(PY, 1.0, 1.0), None)]
    return specs


ALLOC_MODELS = [("dirichlet", Dirichlet(1.0)), ("pitman-yor", PY)]


class AnalyticsWorkload:
    """One round runs every operation once; an exception fails that operation
    and the round goes on."""

    def __init__(self, name, out):
        self.first = {}
        self.geometric_ekn = None

    def _ops(self, rng):
        kn_rng = np.random.default_rng(KN_SEED)
        for label, spec, theta in kn_specs():
            yield label, "kn", (lambda s=spec: analytics.kn_paths(s, KN_N, KN_REPS, kn_rng)), theta
        yield ("sample_kn geometric K_20", "geometric",
               lambda: analytics.sample_kn(sticks.SharedBeta(1.0, 1.0), 20, 100_000,
                                           np.random.default_rng(GEOMETRIC_SEED)), None)
        for mname, model in ALLOC_MODELS:
            for k in (8, 9, 10):
                yield (f"alloc {mname} k={k}", "alloc",
                       lambda m=model, k=k: analytics.allocation_probability(
                           range(1, k + 1), m, 1.0, 1.0), (mname, k))
        for mname, model in (("iid", IidDegenerate()), ("identical", IdenticalDegenerate())):
            yield (f"alloc {mname} k=10", "alloc",
                   lambda m=model: analytics.allocation_probability(range(1, 11), m, 1.0, 1.0),
                   (mname, 10))
        for mname, model in ALLOC_MODELS:
            for J in (4, 30):
                yield (f"pair mass {mname} J={J}", "pair",
                       lambda m=model, J=J: analytics.truncated_pair_mass(m, 1.0, 1.0, J),
                       (mname, J))
        for beta in (0.5, 1.0, 9.0):
            for theta in (1.0, 3.0):
                yield (f"ordering mc beta={beta} theta={theta}", "order",
                       lambda b=beta, t=theta: analytics.ordering_probability_mc(
                           sticks.dsb(b, t), ORDER_REPS, rng), (beta, theta))

    def round(self, rng):
        ops = []
        t_round = time.perf_counter()
        for label, kind, call, arg in self._ops(rng):
            t0 = time.perf_counter()
            try:
                value, error = call(), None
            except Exception as exc:  # an operation that raises is counted failed
                value, error = None, f"{type(exc).__name__}: {exc}"
            ops.append((label, kind, arg, value, error, time.perf_counter() - t0))
        wall = time.perf_counter() - t_round
        kn_ok = [op for op in ops if op[1] == "kn" and op[4] is None]
        return {"wall": wall, "attempted": len(ops),
                "failed": sum(op[4] is not None for op in ops),
                "work": len(kn_ok) * KN_N * KN_REPS,
                "work_seconds": sum(op[5] for op in kn_ok),
                "alloc_exact_s": sum(op[5] for op in ops if op[1] == "alloc"),
                "ops": ops}

    def check(self, round_index, record):
        failures = []
        for label, kind, arg, value, error, _ in record.pop("ops"):
            if error is not None:
                if not (kind == "geometric" and error.startswith("MemoryError")):
                    failures.append(f"{label} raised {error}")
                continue
            if kind == "kn":
                failures += checks.check_kn_paths(value)
                if arg is not None:
                    failures += checks.check_crp_means(value, arg)[0]
            elif kind == "geometric":
                failures += self._check_geometric(value)
            elif kind == "alloc":
                failures += self._check_alloc(label, arg, value)
            elif kind == "pair":
                failures += self._check_pair(label, arg, value)
            else:
                est, se = value
                closed = analytics.ordering_probability_dsb(*arg)
                if not abs(est - closed) < 4.0 * se:
                    failures.append(f"{label}: {est:.5f} vs closed form {closed:.5f}, se {se:.2g}")
        return failures

    def _repeat(self, label, value):
        """Deterministic outputs are checked in full on the first round and
        must repeat exactly on later rounds."""
        if label in self.first:
            return [] if value == self.first[label] else [f"{label} changed between rounds"]
        self.first[label] = value
        return None

    def _check_alloc(self, label, arg, value):
        repeated = self._repeat(label, value)
        if repeated is not None:
            return repeated
        mname, k = arg
        d = list(range(1, k + 1))
        if mname == "dirichlet":
            ref = analytics.allocation_probability_dsb(d, 1.0, 1.0)
        elif mname == "iid":
            ref = checks.iid_allocation_closed_form(d, 1.0, 1.0)
        elif mname == "identical":
            ref = checks.identical_allocation_closed_form(d, 1.0, 1.0)
        else:
            return [] if 0.0 < value < 1.0 else [f"{label}: {value!r} is not a probability"]
        return checks.within(value, ref, 1e-9, label)

    def _check_pair(self, label, arg, value):
        repeated = self._repeat(label, value)
        if repeated is not None:
            return repeated
        mname, J = arg
        if J != 4:
            return [] if 0.0 < value < 1.0 else [f"{label}: {value!r} is not a probability"]
        model = dict(ALLOC_MODELS)[mname]
        total = sum(analytics.allocation_probability([i, j], model, 1.0, 1.0)
                    for i in range(1, 5) for j in range(1, 5))
        return checks.within(value, total, 1e-9, f"{label} vs summed allocation probabilities")

    def _check_geometric(self, summary):
        if self.geometric_ekn is None:
            self.geometric_ekn = checks.geometric_expected_kn(20)
        ks = np.array(list(summary.pmf))
        ps = np.array(list(summary.pmf.values()))
        mean = float(ks @ ps)
        se = math.sqrt(float(ps @ (ks - mean) ** 2) / summary.replicates)
        if abs(mean - self.geometric_ekn) < 5.0 * se:
            return []
        return [f"geometric E[K_20] {mean:.4f} vs quadrature {self.geometric_ekn:.4f}"]


WORKLOADS = {**{name: FitWorkload for name in FITS}, "prior-analytics": AnalyticsWorkload}


# ---------------------------------------------------------------------------
# runs

def one_round(workload, rng, index):
    record = workload.round(rng)
    record["failures"] = workload.check(index, record)
    return record


def run_rounds(workload, seconds, rng):
    """Whole rounds until `seconds` have passed; at least one."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(one_round(workload, rng, len(records)))
    return records


def run_traced(workload, seconds, rng):
    """Pairs of rounds, untraced then traced, until `seconds` have passed.
    The host's speed drifts over tens of seconds, so the tracing overhead is
    taken from adjacent pairs."""
    import tracer as tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(one_round(workload, rng, 2 * len(traced)))
        tracer.install()
        try:
            traced.append(one_round(workload, rng, 2 * len(traced) + 1))
        finally:
            tracer.uninstall()
    overhead = statistics.median(t["wall"] / u["wall"] - 1.0 for u, t in zip(untraced, traced))
    return tracer, untraced, traced, overhead


def end_to_end(records):
    """Median over rounds of the round's wall time and of its work rate:
    sweeps per second of mcmc.fit, or K_n draws per second."""
    rates = [r["work"] / r["work_seconds"] for r in records if r["work_seconds"]]
    return {
        "wall_s": statistics.median(r["wall"] for r in records),
        "work_per_s": statistics.median(rates) if rates else 0.0,
    }


def per_layer(tracer, records, overhead):
    total, self_time, calls = tracer.layer_times()
    counts = tracer.counts
    sweeps = calls["mcmc.gibbs_sweep"]
    ops = len(records)

    def per_sweep(x, scale=1e6):
        return x * scale / sweeps if sweeps else 0.0

    metrics = {}
    for name in ("update_lengths", "update_allocations", "update_slices",
                 "complete_data_log_score", "update_atoms", "update_rho", "ensure_truncation"):
        metrics[f"mcmc.{name}.us_per_sweep"] = (per_sweep(total[f"mcmc.{name}"]), "us")
    metrics["sticks.sb_transform.calls_per_sweep"] = (
        per_sweep(calls["sticks.sb_transform"], 1), "count")
    metrics["sticks.sb_transform.us_per_sweep"] = (per_sweep(total["sticks.sb_transform"]), "us")
    metrics["eppf.prediction_weights.calls_per_sweep"] = (
        per_sweep(counts["eppf.prediction_weights"], 1), "count")
    metrics["sticks.extend_weights_until.us_per_sweep"] = (
        per_sweep(total["sticks.extend_weights_until"]), "us")
    metrics["sticks.sticks_added_per_sweep"] = (per_sweep(counts["sticks.added"], 1), "count")
    metrics["mcmc.gibbs_sweep.self_us_per_sweep"] = (per_sweep(self_time["mcmc.gibbs_sweep"]), "us")
    for name in ("mcmc.eap_density", "mcmc.map_select", "mcmc.cluster_assign",
                 "cli.load_data_csv", "cli.write_csv", "analytics.sample_allocations",
                 "analytics.allocation_probability", "analytics.truncated_pair_mass",
                 "sticks.sample_length_pairs"):
        metrics[f"{name}.s"] = (total[name] / ops, "s")
    for name in ("mcmc.fit", "cli.main", "analytics.kn_paths"):
        metrics[f"{name}.self_s"] = (self_time[name] / ops, "s")
    retained = tracer.retained_bytes
    metrics["mcmc.retained_mb"] = (max(retained) / 2**20 if retained else 0.0, "MB")
    partitions = counts["partitions.enumerated"]
    metrics["analytics.allocation_probability.us_per_partition"] = (
        total["analytics.allocation_probability"] * 1e6 / partitions if partitions else 0.0, "us")
    metrics["partitions.enumerated"] = (partitions / ops, "count")
    metrics["eppf.log_eppf.calls"] = (counts["eppf.log_eppf"] / ops, "count")
    metrics["numerics.log_beta_moment.calls"] = (counts["numerics.log_beta_moment"] / ops, "count")

    stats_ = np.array(tracer.sweep_stats, dtype=float).reshape(-1, 4)
    means = stats_.mean(axis=0) if len(stats_) else np.zeros(4)
    for i, name in enumerate(("phi_mean", "tie_classes_mean", "kn_mean",
                              "infeasible_slices_per_sweep")):
        metrics[f"mcmc.{name}"] = (float(means[i]), "count")
    summary = records[-1].get("summary", {})
    for name in ("kn", "log_score", "rho"):
        metrics[f"mcmc.ess.{name}"] = (summary.get(f"ess_{name}", 0.0), "draws")
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    metrics["process.peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.out)
    rng = np.random.default_rng(args.seed)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    info = {}
    if args.trace:
        tracer, untraced, traced, overhead = run_traced(workload, args.seconds, rng)
        tracer.write(os.path.join(args.out, "spans.csv"))
        metrics = per_layer(tracer, traced, overhead)
        records = untraced + traced
    else:
        records = run_rounds(workload, args.seconds, rng)
        e2e = end_to_end(records)
        metrics = {
            "wall_s": (e2e["wall_s"], "s"),
            "work_per_s": (e2e["work_per_s"], "1/s"),
        }
        # peak RSS is not gated: on prior-analytics it moves by a quarter
        # between identical runs (README, "Peak RSS")
        info["peak_rss_mb"] = (peak_rss_mb(), "MB")
        # the same figures under the names of the workload's own units
        if isinstance(workload, FitWorkload):
            info["sweeps_per_s"] = (e2e["work_per_s"], "1/s")
        else:
            info["kn_draws_per_s"] = (e2e["work_per_s"], "1/s")
            info["alloc_exact_s"] = (statistics.median(r["alloc_exact_s"] for r in records), "s")

    failures = [f for r in records for f in r["failures"]]
    if "summary" in records[-1]:
        print("last fit: " + ", ".join(f"{k} {v:.4g}" for k, v in records[-1]["summary"].items()),
              file=sys.stderr)
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(f"{args.workload}: {len(records)} rounds, checks "
          f"{'passed' if not failures else 'FAILED'}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
