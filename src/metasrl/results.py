"""A sweep's outcomes as arrays over (strategy, run, task), and the record
view that the readers of the old record list still iterate."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RunRecord:
    """One (strategy, run, task) cell of a `SweepResult`, read from its
    arrays: a view until ROADMAP item 1b, for the readers that still
    iterate records."""

    strategy: str
    task_index: int
    run: int
    per_step_reward: np.ndarray
    per_step_costs: np.ndarray          # (M, p)
    final_objectives: np.ndarray        # (p+1,)
    taog_contribution: float
    tacv_contribution: np.ndarray
    is_test: bool
    degenerate: bool
    error: str
    wall_clock: float


@dataclass(frozen=True, eq=False)
class SweepResult(Sequence):
    """What a sweep measured, as arrays over N strategies, R runs and T
    tasks, the held-out task (if any) last. The learning-curve table, the
    regret inputs and errors.csv are reductions and masks over these axes.

    A run succeeded when its error is None, whatever its numbers. A failed
    run's objectives, KL term and kappa are NaN. As a sequence, the result
    is read-only `RunRecord` views in (strategy, run, task) order.

    A task's runs take their CRPO steps together, in one lockstep
    (`crpo.crpo_lanes`) that also makes each run's outcome and its output
    draw, so a cell's wall clock is the time of its own calls (its
    strategy's init, its `run_crpo` call, which hands back its lane, and its
    learning step) plus an equal share of its task's lockstep, which is
    split among the runs that joined it. A run whose init failed joined no
    lockstep and has only its own time.
    """

    strategies: tuple
    optima: np.ndarray       # (n_train,) each training task's LP optimum J_0*
    limits: np.ndarray       # (T, p) each task's cost limits
    curves: np.ndarray       # (N, R, T, M, p+1) J_0..J_p of every CRPO iterate
    returned: np.ndarray     # (N, R, T, p+1) J_0..J_p of the returned policy
    degenerate: np.ndarray   # (N, R, T) bool: the run took no reward step
    wall_clock: np.ndarray   # (N, R, T) seconds, never exported; see below
    errors: np.ndarray       # (N, R, T) object: None, or the failure's text
    kl_terms: np.ndarray     # (N, R, n_train) each training task's KL term; NaN
                             # also where the strategy fits none (the baselines)
    kappas: np.ndarray       # (N, R, n_train) the learning rate each run began with

    @classmethod
    def allocate(cls, strategies, n_runs, steps, limits, optima):
        """Every cell of a sweep before it runs: NaN numbers and no error."""
        limits, optima = np.array(limits, dtype=float), np.array(optima, dtype=float)
        cells = (len(strategies), n_runs, len(limits))
        objectives = limits.shape[1] + 1
        return cls(tuple(strategies), optima, limits,
                   curves=np.full(cells + (steps, objectives), np.nan),
                   returned=np.full(cells + (objectives,), np.nan),
                   degenerate=np.zeros(cells, dtype=bool),
                   wall_clock=np.zeros(cells),
                   errors=np.full(cells, None, dtype=object),
                   kl_terms=np.full(cells[:2] + optima.shape, np.nan),
                   kappas=np.full(cells[:2] + optima.shape, np.nan))

    @property
    def n_train(self):
        """The number of training tasks; a task index from it on is held out."""
        return len(self.optima)

    @property
    def ok(self):
        """(N, R, T) mask of the runs that succeeded."""
        return np.equal(self.errors, None)

    def curve_rows(self, s):
        """Strategy s's learning-curve table: per task and step, the mean,
        std and stderr of J_0..J_p over the task's successful runs. A task
        with none has no rows."""
        rows = []
        for t, ok in enumerate(self.ok[s].T):
            if not ok.any():
                continue
            # runs last and contiguous, so that each mean is numpy's
            # pairwise sum over one entry's runs; a mean over axis 0 of
            # (runs, M) adds whole rows in order, and can differ in the
            # last bit
            per_run = np.ascontiguousarray(np.moveaxis(self.curves[s, ok, t], 0, -1))
            std = per_run.std(axis=-1)
            stats = np.stack([per_run.mean(axis=-1), std, std / np.sqrt(ok.sum())],
                             axis=-1)
            rows += [[t, int(t >= self.n_train), m, *row]
                     for m, row in enumerate(stats.reshape(len(stats), -1).tolist())]
        return rows

    def __len__(self):
        return self.errors.size

    def __getitem__(self, i):
        cell = tuple(int(k) for k in np.unravel_index(range(len(self))[i],
                                                      self.errors.shape))
        s, run, t = cell
        curves, j = self.curves[cell], self.returned[cell]
        curves.flags.writeable = j.flags.writeable = False
        is_test = t >= self.n_train
        return RunRecord(
            strategy=self.strategies[s], task_index=t, run=run,
            per_step_reward=curves[:, 0], per_step_costs=curves[:, 1:],
            final_objectives=j,
            taog_contribution=np.nan if is_test else float(self.optima[t] - j[0]),
            tacv_contribution=j[1:] - self.limits[t],
            is_test=is_test, degenerate=bool(self.degenerate[cell]),
            error=self.errors[cell], wall_clock=float(self.wall_clock[cell]))
