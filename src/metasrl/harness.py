"""Experiment orchestration: run initialization strategies over a task
sequence, collect every run's outcome in one `SweepResult` and each
strategy's regret report, and export reproducible artifacts.

All exports are deterministic functions of the config (seeds derived from
master_seed via SeedSequence spawning, one child per (strategy, run), and
each DICE fit seeded from the DICE seed and its task's seed); no timestamps
or wall-clock values are written to disk.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .cmdp import _fmt, all_objectives
from .crpo import CrpoConfig, crpo_lanes, run_crpo
from .dice import DiceConfig, dualdice_fit, visitation_from_corrections
from .errors import (DegenerateRun, InvalidInput, NumericalFailure, check_counts,
                     check_reals, known_keys)
from .lp import solve_optimal_lp
from .meta import (MetaLearnerState, SimConstants, meta_update,
                   project_table_shrinkage_simplex, regret_report)
from .results import SweepResult
from .taskgen import TaskSequenceConfig, gen_task_sequence, load_task_sequence

STRATEGIES = ("Random", "Pretrained", "SimpleAverage", "FAL", "MetaSrl")


@dataclass(frozen=True)
class MetaConfig:
    ogd_step_init: float = 0.5
    ogd_step_sim: float = 0.0
    inner_updates: int = 1
    shrinkage: float = 1e-3
    rate_floor: float = 1e-4
    initial_rate: float = None   # defaults to the CRPO learning rate

    def __post_init__(self):
        check_reals(self, "ogd_step_init", "ogd_step_sim", "shrinkage", "rate_floor")
        if self.initial_rate is not None:
            check_reals(self, "initial_rate")
        for name in ("ogd_step_init", "rate_floor"):
            if not 0.0 < getattr(self, name) < np.inf:   # NaN fails too
                raise InvalidInput(f"{name} must be positive and finite")
        if not 0.0 <= self.ogd_step_sim < np.inf:
            raise InvalidInput("ogd_step_sim must be nonnegative and finite")
        check_counts(self, inner_updates=1)
        if not 0.0 <= self.shrinkage < 1.0:
            raise InvalidInput("shrinkage must lie in [0, 1)")
        if self.initial_rate is not None and not 0.0 < self.initial_rate < np.inf:
            raise InvalidInput("initial_rate must be positive and finite, or null")


@dataclass(frozen=True)
class ExperimentConfig:
    task_source: object                 # directory path or TaskSequenceConfig
    strategies: tuple = STRATEGIES
    runs_per_strategy: int = 10
    crpo: CrpoConfig = field(default_factory=CrpoConfig)
    dice: DiceConfig = field(default_factory=DiceConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    master_seed: int = 0
    holdout_test_task: bool = True

    def __post_init__(self):
        if not (isinstance(self.strategies, (list, tuple))
                and all(isinstance(s, str) for s in self.strategies)):
            raise InvalidInput("strategies must be a list of strategy names, "
                               f"got {self.strategies!r}")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        for name in self.strategies:
            if name not in STRATEGIES:
                raise InvalidInput(f"unknown strategy {name!r}")
        if len(set(self.strategies)) < len(self.strategies):
            raise InvalidInput(f"strategies must not repeat, got {self.strategies!r}")
        if not isinstance(self.task_source, (str, TaskSequenceConfig)):
            raise InvalidInput("task_source must be a directory path or a task "
                               f"sequence object, got {self.task_source!r}")
        check_counts(self, runs_per_strategy=1, master_seed=0)
        if not isinstance(self.holdout_test_task, bool):
            raise InvalidInput("holdout_test_task must be true or false, "
                               f"got {self.holdout_test_task!r}")
        if not self.strategies:
            raise InvalidInput("strategies must be nonempty")

    @classmethod
    def from_json(cls, doc):
        """The config of a JSON document (text or parsed); keys it leaves
        out take the dataclass defaults."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        kw = dict(known_keys(doc, cls, "the config", required=("task_source",)))
        if isinstance(kw["task_source"], dict):
            kw["task_source"] = TaskSequenceConfig.from_dict(kw["task_source"])
        for name, section in (("crpo", CrpoConfig), ("dice", DiceConfig),
                              ("meta", MetaConfig)):
            if name in kw:
                kw[name] = section(**known_keys(kw[name], section, name))
        return cls(**kw)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)


class Baseline:
    """Random, Pretrained, SimpleAverage and FAL over R runs: a fixed rule
    over the policies each run has learned so far, after the uniform table
    on task 0. Pretrained reads a run's first policy, SimpleAverage and FAL
    the mean of them all. Run r draws from the generator rngs[r]."""

    def __init__(self, kind, rngs, uniform, alpha, shrink):
        self.kind = kind
        self.rngs, self.uniform, self.alpha, self.shrink = rngs, uniform, alpha, shrink
        self.histories = [[] for _ in rngs]

    def init(self, t):
        """The runs' (R, S, A) init tables, (R,) rates, and each run's error
        (None where its init worked; its table is then the uniform one)."""
        n = len(self.histories)
        rates, errors = np.full(n, self.alpha), [None] * n
        if t == 0:
            return np.broadcast_to(self.uniform, (n,) + self.uniform.shape), rates, errors
        if self.kind == "Random":
            tables = [rng.dirichlet(np.ones(self.uniform.shape[1]),
                                    size=self.uniform.shape[0]) for rng in self.rngs]
        else:
            tables = [self.uniform] * n
            for run, history in enumerate(self.histories):
                if not history:   # the run failed task 0
                    errors[run] = InvalidInput(f"{self.kind} needs 1 prior policies, "
                                               "the run has 0")
                else:
                    tables[run] = history[0] if self.kind == "Pretrained" \
                        else np.mean(history, axis=0)
        return project_table_shrinkage_simplex(np.array(tables), self.shrink), rates, errors

    def learn(self, cmdp, run, outcome, task_seed):
        """NaN: a baseline fits no KL term."""
        self.histories[run].append(np.array(outcome.returned_policy.probs))
        return np.nan


class MetaSrl:
    """R runs of the meta-learned init and learning rate: each training task
    fits DICE to a run's CRPO log, and the meta update moves its state."""

    def __init__(self, state, n_runs, dice_cfg, steps, constants):
        self.states, self.dice, self.steps, self.constants = \
            [state] * n_runs, dice_cfg, steps, constants

    def init(self, t):
        tables, rates = zip(*((s.init_policy, s.learning_rate) for s in self.states))
        return np.array(tables), np.array(rates), [None] * len(self.states)

    def learn(self, cmdp, run, outcome, task_seed):
        """The task's KL term; the run's state changes only if every stage
        does. The DICE fit is seeded from the DICE and task seeds, apart from
        the CRPO stream, so averaging over runs averages the DICE noise too."""
        pi_hat = outcome.returned_policy
        seq = np.random.SeedSequence([self.dice.rng_seed, int(task_seed)])
        dice_cfg = replace(self.dice, rng_seed=int(seq.generate_state(1)[0]))
        corrections = dualdice_fit(outcome.dataset, pi_hat, cmdp.discount, dice_cfg)
        nu_hat = visitation_from_corrections(outcome.dataset, corrections)
        self.states[run] = meta_update(self.states[run], nu_hat, pi_hat, self.steps,
                                       self.constants)
        return self.states[run].kl_term


def solve_oracles(cmdps):
    """LP oracle per task; every objective J_0..J_p it reports is re-validated
    by exact policy evaluation of its policy, and a miss beyond 1e-6 raises
    NumericalFailure."""
    oracles = []
    for cmdp in cmdps:
        sol = solve_optimal_lp(cmdp)
        if sol.feasible:
            err = np.abs(all_objectives(cmdp, sol.policy) - sol.objective_values)
            i = int(np.argmax(err))
            if not err[i] <= 1e-6:
                raise NumericalFailure(f"LP oracle J_{i} is off by {err[i]:.3e} "
                                       "from exact evaluation of its policy")
        oracles.append(sol)
    return oracles


def run_experiment(config, tasks=None):
    """Run every strategy's R runs over the task sequence.

    The sweep is task-major. On each task one `init` call a strategy gives
    its R runs' init tables and rates (a run whose init fails records the
    error and sits the task out), all runs step together as the lanes of
    one `crpo_lanes` lockstep, and then, run by run in (strategy, run)
    order, one `run_crpo` call hands back the run's finished lane (output
    drawn and log built on its own seed) and its strategy learns from it.
    Runs share no state, so each gets the numbers it gets alone.

    Returns (result, reports): the `SweepResult`, the only store of every
    (strategy, run, task) cell's outcome, and each strategy's RegretReport
    over the training tasks, from the result's means over successful runs.
    The last task is held out as the test task when holdout_test_task is
    set. Every task must have the n_states, n_actions and n_costs of task 0.
    """
    if tasks is None:
        if isinstance(config.task_source, TaskSequenceConfig):
            tasks, _, _ = gen_task_sequence(config.task_source)
        else:
            tasks = load_task_sequence(config.task_source)
    if not tasks:
        raise InvalidInput("the task sequence is empty")
    shapes = [(task.n_states, task.n_actions, task.n_costs) for task in tasks]
    for t, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise InvalidInput(f"task {t} has (n_states, n_actions, n_costs) = "
                               f"{shape}, task 0 has {shapes[0]}")
    if config.holdout_test_task:
        if len(tasks) < 2:
            raise InvalidInput("need at least 2 tasks to hold one out")
        train_tasks = tasks[:-1]
    else:
        train_tasks = tasks

    oracles = solve_oracles(train_tasks)
    for t, sol in enumerate(oracles):
        if not sol.feasible:
            raise InvalidInput(f"training task {t} has no policy within its cost limits")
    dims = (tasks[0].n_states, tasks[0].n_actions)
    constants = SimConstants.from_problem(
        tasks[0].discount, tasks[0].c_max, dims[0], dims[1])
    meta_cfg = config.meta
    kappa1 = meta_cfg.initial_rate if meta_cfg.initial_rate is not None \
        else config.crpo.learning_rate
    uniform = project_table_shrinkage_simplex(np.full(dims, 1.0 / dims[1]),
                                              meta_cfg.shrinkage)
    meta_start = MetaLearnerState(
        init_policy=uniform,
        learning_rate=max(kappa1, meta_cfg.rate_floor),
        ogd_step_init=meta_cfg.ogd_step_init,
        ogd_step_sim=meta_cfg.ogd_step_sim,
        inner_updates=meta_cfg.inner_updates,
        shrinkage=meta_cfg.shrinkage,
        rate_floor=meta_cfg.rate_floor)

    n_runs, n_train = config.runs_per_strategy, len(train_tasks)
    children = np.random.SeedSequence(config.master_seed).spawn(
        len(config.strategies) * n_runs)
    result = SweepResult.allocate(
        config.strategies, n_runs, config.crpo.steps,
        limits=[task.limits for task in tasks],
        optima=[sol.objective_values[0] for sol in oracles])
    # (N, R, n_train + 1) every run's task seeds, from the run's own child
    task_seeds = np.reshape([child.generate_state(n_train + 1, dtype=np.uint32)
                             for child in children], (len(config.strategies), n_runs, -1))
    strategies = [MetaSrl(meta_start, n_runs, config.dice, config.crpo.steps, constants)
                  if name == "MetaSrl" else Baseline(
                      name, [np.random.default_rng(c) for c in children[si * n_runs:][:n_runs]],
                      uniform, config.crpo.learning_rate, meta_cfg.shrinkage)
                  for si, name in enumerate(config.strategies)]
    # the returned policy of the last successful run of each (strategy, task)
    last_policies = [[None] * n_train for _ in config.strategies]

    for t, cmdp in enumerate(tasks):
        is_test = t == n_train    # the held-out task, if any
        lanes = []                # (strategy, run, init table, rate, task seed)
        for si, strategy in enumerate(strategies):
            t0 = time.monotonic()
            tables, rates, errors = strategy.init(t)
            result.wall_clock[si, :, t] = (time.monotonic() - t0) / n_runs
            for run, exc in enumerate(errors):   # per-run failures never abort the sweep
                if exc is None:
                    lanes.append((si, run, tables[run], rates[run], task_seeds[si, run, t]))
                else:
                    result.errors[si, run, t] = f"{type(exc).__name__}: {exc}"
        if not lanes:
            continue
        t0 = time.monotonic()
        _, _, tables, rates, seeds = zip(*lanes)
        # a lane with a non-finite logit or rate gets its InvalidInput as its entry
        entries = crpo_lanes(cmdp, np.log(np.maximum(tables, 1e-300)), config.crpo,
                             rates, seeds)
        share = (time.monotonic() - t0) / len(lanes)
        for (si, run, _, rate, seed), entry in zip(lanes, entries):
            cell = si, run, t
            t0 = time.monotonic()
            try:
                try:  # the entry is the run: no init policy is read
                    outcome, degenerate = run_crpo(cmdp, None, config.crpo, entry), False
                except DegenerateRun as exc:
                    outcome, degenerate = exc.outcome, True
                if not is_test:
                    kl_term = strategies[si].learn(cmdp, run, outcome, seed)
            except Exception as exc:
                result.errors[cell] = f"{type(exc).__name__}: {exc}"
            else:
                result.curves[cell] = outcome.iterate_objectives
                result.returned[cell] = outcome.returned_objectives
                result.degenerate[cell] = degenerate
                if not is_test:
                    result.kl_terms[cell] = kl_term
                    result.kappas[cell] = rate
                    last_policies[si][t] = outcome.returned_policy
            result.wall_clock[cell] += time.monotonic() - t0 + share

    reports = {name: regret_report(
        result.optima, last_policies[si], train_tasks,
        j_hat=_mean_of_successes(result.returned[si, :, :n_train]),
        kl_terms=_mean_of_successes(result.kl_terms[si]),
        kappas=_mean_of_successes(result.kappas[si]),
        shrink=meta_cfg.shrinkage) for si, name in enumerate(config.strategies)}
    return result, reports


def _mean_of_successes(per_run):
    """Mean over the runs (axis 0) of the entries that are not NaN; NaN
    where no run succeeded."""
    ok = ~np.isnan(per_run)
    with np.errstate(invalid="ignore"):   # 0/0 where no run succeeded
        return np.where(ok, per_run, 0.0).sum(axis=0) / ok.sum(axis=0)


def _csv(header, rows):
    """A numeric table: integers as they are, every other number with 17
    significant digits, which reads back exactly."""
    return ",".join(header) + "\n" + "".join(
        ",".join(str(v) if isinstance(v, numbers.Integral) else f"{v:.17g}"
                 for v in row) + "\n" for row in rows)


def export_report(result, reports, out_dir, config=None, n_costs=None):
    """Write a `SweepResult`'s learning-curve tables, its strategies' regret
    summaries and the config snapshot, and errors.csv (one row a failed
    task run, in (strategy, run, task) order) when any run failed.

    The number of costs p is the result's; n_costs, kept for callers that
    pass it until ROADMAP item 1b, must agree with it.

    Byte-identical for identical inputs: fixed column order, sorted keys, no
    timestamps. The config and regret JSON are their dataclasses' fields,
    each float as its shortest repr that reads back exactly; the numeric CSV
    files follow `_csv`, and errors.csv is quoted by the csv module.
    """
    p = result.curves.shape[-1] - 1
    if n_costs is not None and n_costs != p:
        raise InvalidInput(f"n_costs is {n_costs}, the result has {p} costs")
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    curve_header = ["task", "is_test", "step", "reward_mean", "reward_std",
                    "reward_stderr"] + [f"cost_{i + 1}_{stat}" for i in range(p)
                                        for stat in ("mean", "std", "stderr")]
    for s, strategy in sorted(enumerate(result.strategies), key=lambda x: x[1]):
        files[f"curves_{strategy}.csv"] = _csv(curve_header, result.curve_rows(s))
        if strategy in reports:
            report = reports[strategy]
            files[f"regret_{strategy}.json"] = json.dumps(
                asdict(report), default=_fmt, sort_keys=True, indent=2)
            files[f"regret_{strategy}.csv"] = _csv(
                ["task", "taog_contribution",
                 *(f"tacv_{i + 1}" for i in range(len(report.tacv))),
                 "kl_term", "kappa"],
                [[r["task"], r["taog"], *r["tacv"], r["kl_term"], r["kappa"]]
                 for r in report.per_task])
    failed = np.argwhere(~result.ok).tolist()
    if failed:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [["strategy", "run", "task", "is_test", "error"]]
            + [[result.strategies[s], run, t, int(t >= result.n_train),
                result.errors[s, run, t]] for s, run, t in failed])
        files["errors.csv"] = buf.getvalue()
    if config is not None:
        files["config.json"] = config.to_json()
    files["environment.json"] = json.dumps(
        {"package_version": __version__, "numpy_version": np.__version__},
        sort_keys=True)
    written = [os.path.join(out_dir, name) for name in files]
    for path, text in zip(written, files.values()):
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return written
