"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the metasrl layers in place, in every
module namespace that binds them, so that calls made from inside the package
(for example `run_crpo` calling `sample_episode`) are recorded as well. Each
call becomes one span (name, start, end, parent) kept in memory; per-layer
counts are taken from the same call sites. Nothing is patched unless a
`Tracer` is entered, and everything is restored when it exits.
"""

from __future__ import annotations

import bisect
import itertools
import time

import numpy as np

# span name -> (module attribute, modules that bind it)
TRACED = {
    "taskgen.gen_task_sequence": ("gen_task_sequence", ("taskgen", "harness")),
    "taskgen.gen_frozen_lake": ("gen_frozen_lake", ("taskgen",)),
    "lp.solve": ("solve_optimal_lp", ("lp", "harness")),
    "crpo.run": ("run_crpo", ("crpo", "harness")),
    "crpo.sample_episode": ("sample_episode", ("crpo",)),
    "crpo.td_critic": ("td_critic", ("crpo",)),
    "cmdp.eval": ("policy_evaluation_exact", ("cmdp", "crpo")),
    "dice.fit": ("dualdice_fit", ("dice", "harness")),
    "dice.visitation": ("visitation_from_corrections", ("dice", "harness")),
    "meta.update": ("meta_update", ("meta", "harness")),
    "harness.run_experiment": ("run_experiment", ("harness",)),
}


class Tracer:
    """Records spans around calls into the metasrl layers while entered."""

    def __init__(self, modules):
        self.modules = modules          # short name -> imported module
        self.spans = []                 # [name, start, end, parent index]
        self.counts = dict.fromkeys(
            ("crpo.transitions_logged", "crpo.reward_steps",
             "crpo.constraint_steps", "crpo.degenerate", "dice.transitions_read",
             "lp.failed"), 0)
        self.max_gap = 0.0
        self.coverage = []
        self.visitations = []           # (cmdp, policy, nu_hat), checked later
        self._stack = []
        self._saved = []
        self._excluded = ([], [0.0])    # interval starts, cumulative seconds
        self._last_run = None           # (dataset id, cmdp) of the last CRPO run
        self._last_fit = None           # (corrections id, cmdp, policy)
        # per-call observers: counts taken where the work happens
        self._observers = {"lp.solve": self._lp_solved, "crpo.run": self._crpo_ran,
                           "dice.fit": self._dice_fitted,
                           "dice.visitation": self._visitation_made}

    def __enter__(self):
        for name, (attr, owners) in TRACED.items():
            original = getattr(self.modules[owners[0]], attr)
            wrapper = self._wrap(name, original)
            for owner in owners:
                module = self.modules[owner]
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def reset(self):
        """Forget everything recorded so far (between set-up and body)."""
        self.spans.clear()
        self.counts = dict.fromkeys(self.counts, 0)
        self.max_gap = 0.0
        self.coverage.clear()
        self.visitations.clear()
        self._last_run = self._last_fit = None
        self._excluded = ([], [0.0])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            span[2] = time.perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def _lp_solved(self, args, result, exc):
        if exc is not None:
            self.counts["lp.failed"] += 1
        elif result.feasible:
            self.max_gap = max(self.max_gap, float(result.duality_gap))

    def _crpo_ran(self, args, result, exc):
        outcome = result if exc is None else getattr(exc, "outcome", None)
        if exc is not None and outcome is not None:
            self.counts["crpo.degenerate"] += 1
        if outcome is None:
            return
        self.counts["crpo.transitions_logged"] += int(outcome.dataset.s.size)
        self.counts["crpo.reward_steps"] += len(outcome.reward_steps)
        self.counts["crpo.constraint_steps"] += sum(
            len(v) for v in outcome.constraint_steps)
        self._last_run = (id(outcome.dataset), args[0])

    def _dice_fitted(self, args, result, exc):
        dataset, policy = args[0], args[1]
        self.counts["dice.transitions_read"] += int(dataset.s.size)
        if exc is not None:
            return
        self.coverage.append(float(result.coverage_mask.mean()))
        run = self._last_run
        cmdp = run[1] if run is not None and run[0] == id(dataset) else None
        self._last_fit = (id(result), cmdp, policy)

    def _visitation_made(self, args, result, exc):
        fit = self._last_fit
        if exc is None and fit is not None and fit[0] == id(args[1]) \
                and fit[1] is not None:
            self.visitations.append((fit[1], fit[2], result))

    # aggregation

    def exclude(self, intervals):
        """Leave time spent in these (start, end, ...) intervals out of spans.

        The intervals are the host-speed reference kernels of pace.py, which
        can run in the middle of any span.
        """
        intervals = sorted(intervals)
        self._excluded = ([i[0] for i in intervals], list(itertools.accumulate(
            (i[1] - i[0] for i in intervals), initial=0.0)))

    def duration(self, span):
        """Seconds of a span, less the excluded intervals that start in it."""
        starts, cumulative = self._excluded
        lo = bisect.bisect_left(starts, span[1])
        hi = bisect.bisect_left(starts, span[2])
        return span[2] - span[1] - (cumulative[hi] - cumulative[lo])

    def busy(self, name):
        """Total seconds inside spans of one name."""
        return sum(self.duration(s) for s in self.spans if s[0] == name)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name):
        """Seconds inside spans of one name not covered by their child spans."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.duration(self.spans[i]) for i in own)
        covered = sum(self.duration(s) for s in self.spans if s[3] in own)
        return total - covered

    def tv_to_exact(self):
        """Mean TV distance between each nu_hat and the exact visitation."""
        exact = self.modules["cmdp"].visitation_exact
        if not self.visitations:
            return 0.0
        return float(np.mean([0.5 * np.abs(nu_hat.nu - exact(cmdp, pol).nu).sum()
                              for cmdp, pol, nu_hat in self.visitations]))

    def layer_metrics(self, body_s):
        """Per-layer metrics; busy times are shares of the traced body time."""
        def pct(seconds):
            return 100.0 * seconds / body_s

        c = self.counts
        sample_s = self.busy("crpo.sample_episode")
        episodes = self.calls("crpo.sample_episode")
        logged = c["crpo.transitions_logged"]
        return {
            "lp.solves": (self.calls("lp.solve"), "count"),
            "lp.failed": (c["lp.failed"], "count"),
            "lp.solve_pct": (pct(self.busy("lp.solve")), "%"),
            "lp.max_duality_gap": (self.max_gap, "gap"),
            "crpo.episodes": (episodes, "count"),
            "crpo.sample_pct": (pct(sample_s), "%"),
            "crpo.episodes_per_s": (episodes / sample_s if sample_s else 0.0, "1/s"),
            "crpo.transitions_logged": (logged, "count"),
            "dice.transitions_read": (c["dice.transitions_read"], "count"),
            "crpo.log_used_frac": (
                c["dice.transitions_read"] / logged if logged else 0.0, "ratio"),
            "crpo.td_calls": (self.calls("crpo.td_critic"), "count"),
            "crpo.td_pct": (pct(self.busy("crpo.td_critic")), "%"),
            "crpo.runs": (self.calls("crpo.run"), "count"),
            "crpo.run_pct": (pct(self.busy("crpo.run")), "%"),
            "crpo.reward_steps": (c["crpo.reward_steps"], "count"),
            "crpo.constraint_steps": (c["crpo.constraint_steps"], "count"),
            "crpo.degenerate": (c["crpo.degenerate"], "count"),
            "cmdp.eval_calls": (self.calls("cmdp.eval"), "count"),
            "cmdp.eval_pct": (pct(self.busy("cmdp.eval")), "%"),
            "dice.fits": (self.calls("dice.fit"), "count"),
            "dice.fit_pct": (pct(self.busy("dice.fit")), "%"),
            "dice.coverage": (
                float(np.mean(self.coverage)) if self.coverage else 0.0, "frac"),
            "dice.tv_to_exact": (self.tv_to_exact(), "tv"),
            "meta.updates": (self.calls("meta.update"), "count"),
            "meta.update_pct": (pct(self.busy("meta.update")), "%"),
            "harness.self_pct": (pct(self.self_time("harness.run_experiment")), "%"),
        }
