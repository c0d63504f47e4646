"""In-memory span tracing of esbmix's public functions, installed from the
benchmark by replacing module and class attributes (the package itself is
not instrumented).

A span is (name, parent span, start, end).  Fine-grained functions that run
hundreds of thousands of times per operation are counted, not spanned.  A
layer's self time is its span time minus the time of its direct children.
"""

import csv
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from esbmix import analytics, cli, eppf, mcmc, sticks

EPPF_CLASSES = (eppf.Dirichlet, eppf.PitmanYor, eppf.IidDegenerate, eppf.IdenticalDegenerate)

# (owner, attribute, span name): every place a layer is called through
SPANNED = [
    (cli, "main", "cli.main"),
    (cli, "load_data_csv", "cli.load_data_csv"),
    (cli, "write_csv", "cli.write_csv"),
    (mcmc, "fit", "mcmc.fit"),
    (mcmc, "initial_state", "mcmc.initial_state"),
    (mcmc, "gibbs_sweep", "mcmc.gibbs_sweep"),
    (mcmc, "update_slices", "mcmc.update_slices"),
    (mcmc, "ensure_truncation", "mcmc.ensure_truncation"),
    (mcmc, "update_lengths", "mcmc.update_lengths"),
    (mcmc, "update_allocations", "mcmc.update_allocations"),
    (mcmc, "update_atoms", "mcmc.update_atoms"),
    (mcmc, "update_rho", "mcmc.update_rho"),
    (mcmc, "complete_data_log_score", "mcmc.complete_data_log_score"),
    (mcmc, "eap_density", "mcmc.eap_density"),
    (mcmc, "map_select", "mcmc.map_select"),
    (mcmc, "cluster_assign", "mcmc.cluster_assign"),
    (mcmc, "sb_transform", "sticks.sb_transform"),
    (sticks, "sb_transform", "sticks.sb_transform"),
    (mcmc, "extend_weights_until", "sticks.extend_weights_until"),
    (analytics, "kn_paths", "analytics.kn_paths"),
    (analytics, "sample_kn", "analytics.sample_kn"),
    (analytics, "sample_allocations", "analytics.sample_allocations"),
    (analytics, "allocation_probability", "analytics.allocation_probability"),
    (analytics, "truncated_pair_mass", "analytics.truncated_pair_mass"),
    (analytics, "ordering_probability_mc", "analytics.ordering_probability_mc"),
    (analytics, "sample_length_pairs", "sticks.sample_length_pairs"),
]

COUNTED = (
    [(cls, "prediction_weights", "eppf.prediction_weights") for cls in EPPF_CLASSES]
    + [(cls, "log_eppf", "eppf.log_eppf") for cls in EPPF_CLASSES]
    + [(analytics, "log_beta_moment", "numerics.log_beta_moment")]
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.sweep_stats = []  # (phi, tie classes, K_n, new infeasible slices)
        self.retained_bytes = []
        self._stack = []
        self._undo = []
        self._last_state = None
        self._infeasible_seen = 0

    # -- installation -------------------------------------------------------

    def install(self):
        for owner, attr, name in SPANNED:
            self._replace(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, name in COUNTED:
            self._replace(owner, attr, self._counted(name, owner.__dict__[attr]))
        self._replace(analytics, "enumerate_partitions",
                      self._counted_yields("partitions.enumerated",
                                           analytics.enumerate_partitions))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack
        after = {
            "mcmc.gibbs_sweep": self._after_sweep,
            "mcmc.fit": self._after_fit,
        }.get(name)
        before = self._before_extend if name == "sticks.extend_weights_until" else None

        def wrapped(*args, **kwargs):
            extra = before(args) if before else None
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after:
                after(args, result)
            if before:
                self.counts["sticks.added"] += len(result[0]) - extra
            return result

        return wrapped

    def _counted(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _counted_yields(self, name, gen_fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapped

    # -- state read after each sweep -----------------------------------------

    @staticmethod
    def _before_extend(args):
        return len(args[0])

    def _after_sweep(self, args, state):
        # the state's infeasible-slice counter is cumulative over one chain
        prev = self._infeasible_seen if state is self._last_state else 0
        self._last_state, self._infeasible_seen = state, state.infeasible_slices
        kn = int(np.count_nonzero(np.bincount(state.d))) if len(state.d) else 0
        self.sweep_stats.append((state.phi, len(state.lengths.distinct), kn,
                                 state.infeasible_slices - prev))

    def _after_fit(self, args, result):
        total = 0
        for s in result.samples:
            total += s.u.nbytes + s.d.nbytes + s.weights.nbytes
            total += sum(x.nbytes for atom in s.atoms for x in atom if isinstance(x, np.ndarray))
        self.retained_bytes.append(total)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["id", "parent", "name", "start", "end"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                out.writerow([i, parent, name, repr(start), repr(end)])

    def layer_times(self):
        """(total time, self time, calls) per span name."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, parent, start, end in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent >= 0:
                child[parent] += dur
        self_time = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            self_time[name] += (end - start) - child.get(i, 0.0)
        return total, self_time, calls
