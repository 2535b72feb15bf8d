"""Spans and counts at the package's layer boundaries, recorded from outside.

``installed(tracer)`` replaces each layer function at the name its caller
looks it up by (``qags.driver.grid_values``, ``qags.kernels.boltzmann``,
...) with a wrapper that records a span, and puts the originals back on
exit.  The package's own files are not changed.  Spans stay in memory.

A span's self time is its duration minus the durations of its direct
children.  The run span (``driver.run`` or ``classical.run_ags``) is the
root, so within one run the self times add up to the run's wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import checkout  # noqa: F401  (before qags)
import qags.contraction
import qags.driver
import qags.kernels
import qags.quantum
from qags.objectives import ObjectiveFunction

RUN_SPANS = {"qags": "driver.run", "ags": "classical.run_ags"}
SELF_NAMES = {"driver.run": "driver.self.s", "classical.run_ags": "classical.self.s"}


def _rows(args, kwargs, result):
    return len(args[1])


def _refine_counts(args, kwargs, result):
    # the driver calls refine(f, box, start, cfg) and gets (point, value, evals)
    evals, cfg = result[2], args[3]
    return {"refine.evals": evals, "refine.budget_exhausted": int(evals == cfg.max_evals)}


# (owner, attribute, span name, count of work done: a function of the
# call's arguments and result, giving one number for "<span>.rows" or a
# dict of named counts)
CALL_SITES = (
    (qags.kernels, "lattice_values", "kernels.lattice_values", None),
    (qags.kernels, "boltzmann", "kernels.boltzmann", None),
    (qags.driver, "grid_values", "quantum.grid_values",
     lambda a, k, r: {"quantum.grid_values.states": a[1].total_points}),
    (qags.quantum, "decode_many", "grid.decode_many.lattice", None),
    (ObjectiveFunction, "evaluate_batch", "objectives.evaluate_batch", _rows),
    (qags.driver, "distribution_from_values", "quantum.distribution_from_values", None),
    (qags.driver, "sample", "quantum.sample", None),
    (qags.driver, "select_region", "contraction.select_region",
     lambda a, k, r: {"contraction.selected_states": r.selected_indices.size}),
    (qags.driver, "contract_bounds", "contraction.contract_bounds", None),
    (qags.contraction, "decode_many", "grid.decode_many.hull", _rows),
    (qags.driver, "refine", "refine.refine", _refine_counts),
)
SPAN_NAMES = tuple(site[2] for site in CALL_SITES)


class Tracer:
    """Spans as [name, parent index, start, end] in call order, plus
    counts per run."""

    def __init__(self):
        self.spans = []
        self.runs = []  # (case label, index of the run's root span)
        self.counts = Counter()
        self._open = []

    def _enter(self, name):
        self.spans.append([name, self._open[-1] if self._open else None, time.perf_counter(), None])
        self._open.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._open.pop()][3] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                counted = count(args, kwargs, result)
                if isinstance(counted, dict):
                    self.counts.update(counted)
                else:
                    self.counts[name + ".rows"] += counted
            return result

        return traced

    def count_calls(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def run(self, label, method, run_fn, *args):
        """Call one run of a workload as a root span."""
        self.runs.append((label, len(self.spans)))
        return self.wrap(RUN_SPANS[method], run_fn)(*args)

    def self_times(self):
        """Per span index, its duration minus its direct children's."""
        own = [s[3] - s[2] for s in self.spans]
        for name, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_seconds(self):
        """Self time summed by span name, plus the run spans' totals."""
        total = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            if name in SELF_NAMES:
                total[name + ".s"] += span[3] - span[2]
                total[SELF_NAMES[name]] += own
            else:
                total[name + ".s"] += own
        return total

    def run_balance(self):
        """For each run: (label, wall time, sum of its spans' self times,
        lowest self time).  The sums must equal the walls and no self
        time may be negative, or a child span escaped its parent."""
        own = self.self_times()
        out = []
        bounds = [start for _, start in self.runs[1:]] + [len(self.spans)]
        for (label, first), last in zip(self.runs, bounds):
            root = self.spans[first]
            out.append(
                (label, root[3] - root[2], sum(own[first:last]), min(own[first:last]))
            )
        return out

    def to_json(self):
        return {
            "runs": [{"label": label, "first_span": first} for label, first in self.runs],
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
            ],
        }


@contextlib.contextmanager
def installed(tracer):
    """Wrap every layer call site with tracer spans for the duration."""
    saved = []
    try:
        for owner, attr, name, count in CALL_SITES:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        original = ObjectiveFunction.evaluate
        saved.append((ObjectiveFunction, "evaluate", original))
        ObjectiveFunction.evaluate = tracer.count_calls("objectives.evaluate.calls", original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
