"""esbmix benchmark: one command for every workload, untraced and traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                # every workload, untraced then traced

Each workload runs in its own single-threaded process (bench/workloads.py).
Set-up (import plus input generation) is timed in that process and in two
more processes that only set up; setup_s is the median of the three.  Every
metric is printed with its name and unit; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is non-zero, and no result is printed, if a workload process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit-1d-small", "fit-1d-large", "fit-2d-rrho", "prior-analytics")
SETUP_PROBES = 2
DEADLINE_S = 175.0
SINGLE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class WorkloadError(RuntimeError):
    pass


def run_child(args, deadline):
    """Run bench/workloads.py; return its JSON result.  The child is killed
    and reaped if it outlives the deadline."""
    env = {**os.environ, **SINGLE_THREAD}
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkloadError(f"workload process timed out: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadError(f"workload process exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(ROOT, ".bench_out", workload)
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out]
    setups = [] if trace else [run_child(base + ["--setup-only"], deadline)["setup_s"]
                               for _ in range(SETUP_PROBES)]
    result = run_child(base, deadline)
    setups.append(result.pop("setup_s"))
    info = result.pop("info")
    if not trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
    return result, info


def report(workload, trace, result, info):
    for name, m in {**result["metrics"], **info}.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} trace={trace} attempted {result['attempted']} failed {result['failed']} "
          f"checks {'passed' if result['correct'] else 'FAILED'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="esbmix benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    runs = ([(args.workload, args.trace)] if args.workload
            else [(w, t) for t in (0, 1) for w in WORKLOADS])
    try:
        for workload, trace in runs:
            result, info = run_workload(workload, args.seed, args.seconds, trace)
            report(workload, trace, result, info)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
