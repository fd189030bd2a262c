"""The benchmark's workloads, built only from public calls into metasrl.

Every workload has a set-up (timed and repeated, its inputs made from the
workload seed) and a body made of identical-size passes. The number of passes
depends only on the requested seconds, never on the clock, so a traced and an
untraced run do the same work. Each pass reports its start and end to the
tally, which scales it by the host-speed reference of `pace.py`. Operations
are counted as attempted and failed; a failure never aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from metasrl import cmdp, crpo, dice, harness, meta, taskgen
from metasrl.errors import DegenerateRun, GenerationFailure

GAP_TOL = 1e-8          # LP duality-gap certificate
REEVAL_TOL = 1e-6       # exact re-evaluation of the oracle policy
SUM_TOL = 1e-9          # probability rows and nu_hat sum to one
# exports written for the byte-identity check; removed again right away
SCRATCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".bench_build")

# the CRPO settings of the test_09 acceptance config
CRPO_TEST09 = crpo.CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                              episodes_per_step=5, episode_horizon=60)
META_TEST09 = harness.MetaConfig(ogd_step_init=0.5)


@dataclass
class Tally:
    """What a workload body did: operations, failures and timings."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0                  # outputs that failed a check
    pace: object = None                 # a pace.Pace, or None for wall times
    passes: list = field(default_factory=list)      # (start, end) of every pass
    pass_wall: list = field(default_factory=list)   # less the reference kernels
    op_seconds: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (label, thunk) run after the body

    def pass_done(self, t0, t1):
        """Record a pass from t0 to t1; returns its wall seconds.

        The time of the reference kernels that ran inside the pass is not
        part of it.
        """
        wall_s = t1 - t0 - (self.pace.kernel_seconds(t0, t1) if self.pace else 0.0)
        self.passes.append((t0, t1))
        self.pass_wall.append(wall_s)
        return wall_s

    def pass_seconds(self, paced):
        """Seconds of each pass: at the nominal host speed when paced (see
        pace.py), else wall seconds.

        Call it once the reference has been timed after the last pass.
        """
        if self.pace is None or not paced:
            return list(self.pass_wall)
        return [self.pace.scaled(t0, t1) for t0, t1 in self.passes]

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def run_checks(self):
        """Run the deferred output checks, outside the timed and traced body."""
        for label, check in self.checks:
            problem = check()
            if problem is not None:
                self.incorrect += 1
                self.fail(f"{label}: {problem}")
        self.checks.clear()


def task_sequence(size, n_tasks, seed):
    """HighSimilarity sequence; seed 0 gives the test_09 tasks (task seed 2).

    About one 4x4 base grid in five has too few reachability-preserving
    flips for 11 tasks and the generator refuses it; the next candidate task
    seed, derived from the workload seed, is used instead.
    """
    candidates = [seed + 2] + [int(s.generate_state(1)[0]) for s in
                               np.random.SeedSequence(seed).spawn(20)]
    for task_seed in candidates:
        base = taskgen.GridSpec(rows=size, cols=size, seed=task_seed)
        config = taskgen.TaskSequenceConfig(mode="HighSimilarity",
                                            num_tasks=n_tasks, base=base,
                                            seed=task_seed)
        try:
            return config, taskgen.gen_task_sequence(config)[0]
        except GenerationFailure:
            continue
    raise GenerationFailure(f"no task sequence for workload seed {seed}")


def check_oracle(task, solution):
    """Why an LP oracle solution is wrong, or None when it passes."""
    if not solution.feasible:
        return "LP reported infeasible"
    if not solution.duality_gap <= GAP_TOL:
        return f"duality gap {solution.duality_gap:.3e}"
    j = cmdp.all_objectives(task, solution.policy)
    err = float(np.max(np.abs(j - solution.objective_values)))
    if not err <= REEVAL_TOL:
        return f"re-evaluation off by {err:.3e}"
    return None


def check_sums(pi_hat, nu_hat):
    """Why a returned policy or nu_hat is not a distribution, or None."""
    rows = float(np.abs(pi_hat.probs.sum(axis=1) - 1.0).max())
    mass = abs(float(nu_hat.nu.sum()) - 1.0)
    if rows <= SUM_TOL and mass <= SUM_TOL:
        return None
    return f"policy rows off by {rows:.2e}, nu_hat mass off by {mass:.2e}"


def solve_and_check(tasks, tally, label):
    """One oracle solve per task, each counted as an operation."""
    for i, task in enumerate(tasks):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            solution = harness.solve_oracles([task])[0]
        except Exception as exc:  # a failed solve is counted, not fatal
            tally.op_seconds.append(time.perf_counter() - t0)
            tally.fail(f"{label[i]}: {type(exc).__name__}: {exc}")
            continue
        tally.op_seconds.append(time.perf_counter() - t0)
        tally.checks.append((label[i], partial(check_oracle, task, solution)))


class Workload:
    name = ""
    pass_s = 1.0        # nominal seconds per pass on the reference machine
    why = ""
    moves = {}          # per-layer metric -> end-to-end metric it should move
    # whether run_s is scaled to the nominal host speed of pace.py
    paced = True

    def passes(self, seconds):
        return max(1, round(seconds / self.pass_s))

    def setup(self, seed):
        raise NotImplementedError

    def check_setup(self, state, tally):
        """Count failed checks on the set-up's outputs."""

    def run(self, state, n_passes, tally):
        raise NotImplementedError


class SweepGrid4(Workload):
    """`run_experiment` on the test_09 config, one run per strategy a pass."""

    name = "sweep_grid4"
    pass_s = 4.2
    why = ("The user-facing sweep: 5 strategies over 10 training tasks plus one "
           "held out, Exact critic, DirectSolve DICE. The per-step episode "
           "sampler dominates; DICE is tiny and the LP only runs in set-up and "
           "once per pass. One run per strategy a pass (the full 10 runs take "
           "about 45 s, more than one benchmark run may last).")
    moves = {
        "crpo.sample_pct": "run_s, strongly",
        "crpo.episodes_per_s": "run_s, strongly",
        "crpo.log_used_frac": "run_s and peak_rss_mb",
        "cmdp.eval_pct": "run_s",
        "harness.self_pct": "run_s",
        "ops.s_p50": "run_s",
        "ops.s_p90": "run_s",
        "lp.solve_pct": "setup_s (and run_s slightly)",
        "taskgen.gen_s": "setup_s",
    }

    def setup(self, seed):
        config, tasks = task_sequence(4, 11, seed)
        oracles = harness.solve_oracles(tasks[:-1])
        experiment = harness.ExperimentConfig(
            task_source=config, runs_per_strategy=1, crpo=CRPO_TEST09,
            meta=META_TEST09, master_seed=seed)
        return experiment, tasks, oracles

    def check_setup(self, state, tally):
        _, tasks, oracles = state
        for t, (task, solution) in enumerate(zip(tasks, oracles)):
            problem = check_oracle(task, solution)
            if problem is not None:
                tally.incorrect += 1
                tally.fail(f"set-up oracle {t}: {problem}")

    def run(self, state, n_passes, tally):
        experiment, tasks, _ = state
        expected = len(experiment.strategies) * experiment.runs_per_strategy \
            * len(tasks)
        digests = []
        for p in range(n_passes):
            tally.attempted += expected
            t0 = time.perf_counter()
            try:
                records, reports = harness.run_experiment(experiment, tasks)
            except Exception as exc:  # the whole pass failed
                tally.pass_done(t0, time.perf_counter())
                tally.failed += expected
                tally.errors.append(f"pass {p}: {type(exc).__name__}: {exc}")
                continue
            tally.pass_done(t0, time.perf_counter())
            for r in records:
                if r.error is not None:
                    tally.fail(f"pass {p} {r.strategy} task {r.task_index}: {r.error}")
            tally.failed += max(0, expected - len(records))
            tally.op_seconds += [r.wall_clock for r in records if r.error is None]
            if not tally.quality:
                tally.quality = _sweep_quality(records)
            tally.checks.append((f"pass {p}", partial(
                _same_export, records, reports, experiment, digests)))


def _same_export(records, reports, experiment, digests):
    """Export a pass and compare its bytes with the first pass's export."""
    os.makedirs(SCRATCH, exist_ok=True)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="sweep-", dir=SCRATCH) as out:
        harness.export_report(records, reports, out, config=experiment,
                              n_costs=records[0].per_step_costs.shape[1])
        for name in sorted(os.listdir(out)):
            h.update(name.encode())
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
    with contextlib.suppress(OSError):
        os.rmdir(SCRATCH)
    digests.append(h.hexdigest())
    return None if digests[-1] == digests[0] else "export differs from pass 0"


class MetaLoop(Workload):
    """The MetaSrl per-task loop: CRPO, DICE fit, visitation, meta update.

    A pass is one task of the loop. The loop runs over the task sequence and
    restarts from the uniform initialization after its last task, so every
    cycle repeats the first one exactly.
    """

    size = 16
    n_tasks = 10
    crpo_config = CRPO_TEST09
    dice_config = dice.DiceConfig()

    def setup(self, seed):
        _, tasks = task_sequence(self.size, self.n_tasks, seed)
        task_seeds = np.random.SeedSequence(seed).generate_state(self.n_tasks)
        first = tasks[0]
        constants = meta.SimConstants.from_problem(
            first.discount, first.c_max, first.n_states, first.n_actions)
        return tasks, [int(s) for s in task_seeds], constants

    def fresh_state(self, task):
        shrink = META_TEST09.shrinkage
        table = meta.project_table_shrinkage_simplex(
            np.full((task.n_states, task.n_actions), 1.0 / task.n_actions), shrink)
        return meta.MetaLearnerState(
            init_policy=table, learning_rate=self.crpo_config.learning_rate,
            ogd_step_init=META_TEST09.ogd_step_init,
            ogd_step_sim=META_TEST09.ogd_step_sim,
            inner_updates=META_TEST09.inner_updates, shrinkage=shrink,
            rate_floor=META_TEST09.rate_floor)

    def run(self, state, n_passes, tally):
        tasks, task_seeds, constants = state
        learner = None
        for p in range(n_passes):
            t = p % len(tasks)
            task = tasks[t]
            if t == 0:
                learner = self.fresh_state(task)
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                learner, pi_hat, nu_hat = self.step(task, task_seeds[t],
                                                    learner, constants)
            except Exception as exc:  # a failed task is counted, not fatal
                tally.pass_done(t0, time.perf_counter())
                tally.fail(f"pass {p} task {t}: {type(exc).__name__}: {exc}")
                continue
            tally.op_seconds.append(tally.pass_done(t0, time.perf_counter()))
            tally.checks.append((f"pass {p} task {t}",
                                 partial(check_sums, pi_hat, nu_hat)))

    def step(self, task, seed, learner, constants):
        policy = cmdp.SoftmaxPolicy(logits=np.log(learner.init_policy))
        config = replace(self.crpo_config, rng_seed=seed,
                         learning_rate=learner.learning_rate)
        try:
            outcome = crpo.run_crpo(task, policy, config)
        except DegenerateRun as exc:  # a valid outcome, as in the harness
            outcome = exc.outcome
        pi_hat = outcome.returned_policy
        corrections = dice.dualdice_fit(outcome.dataset, pi_hat, task.discount,
                                        self.dice_config)
        nu_hat = dice.visitation_from_corrections(outcome.dataset, corrections)
        learner = meta.meta_update(learner, nu_hat, pi_hat,
                                   self.crpo_config.steps, constants)
        return learner, pi_hat, nu_hat


class MetaGrid16(MetaLoop):
    name = "meta_grid16"
    pass_s = 0.9
    why = ("DICE-bound: the dense DirectSolve fit on 16x16 grids (S=257, "
           "SA=1028) takes most of each task; CRPO, mostly the sampler, the "
           "rest. No LP: it fails from 6x6 up.")
    moves = {
        "dice.fit_pct": "run_s, strongly",
        "crpo.sample_pct": "run_s, slightly",
        "meta.update_pct": "run_s, slightly",
        "taskgen.gen_s": "setup_s",
    }
    # about 80 % of a pass is the dense DICE fit, which slows far less than
    # the interpreter-bound reference on a busy host: scaling by it made
    # run_s spread more, and the wall time is steady
    paced = False


class SampledGrid4(MetaLoop):
    name = "sampled_grid4"
    pass_s = 4.4
    why = ("The sampled estimators: TD(0) critic (one rng.choice per TD step) "
           "and the SGD DICE fit on 4x4 grids. A change that only batches "
           "whole episodes should not move it.")
    moves = {
        "crpo.td_pct": "run_s, strongly",
        "dice.fit_pct": "run_s",
        "crpo.sample_pct": "no change expected",
        "taskgen.gen_s": "setup_s",
    }
    size = 4
    crpo_config = replace(CRPO_TEST09, critic_mode="TdSampled")
    dice_config = dice.DiceConfig(solver="Sgd")


class OracleLadder(Workload):
    """One LP solve per (size, grid seed), including the known failing grids.

    Workload seed n uses grid seeds n..n+3. At seed 0 the simplex fails on
    6x6 seeds 1-3 and on all four 8x8 grids (iteration cap, "unbounded", or
    a policy that fails re-validation), 7 of 16 solves. One pass, whatever
    the requested seconds: the failing solves alone take over a minute.
    """

    name = "oracle_ladder"
    sizes = (4, 5, 6, 8)
    grid_seeds = 4
    why = ("The LP across grid sizes 4, 5, 6 and 8, keeping the grids on which "
           "the simplex fails; not a gated workload, because operations fail "
           "and one pass takes about a minute.")
    moves = {
        "lp.failed": "failed (attempted/failed of the run)",
        "lp.solve_pct": "run_s",
    }

    def passes(self, seconds):
        return 1

    def cases(self, seed):
        return [(size, seed + k) for size in self.sizes
                for k in range(self.grid_seeds)]

    def setup(self, seed):
        cases = self.cases(seed)
        return cases, [taskgen.gen_frozen_lake(
            taskgen.GridSpec(rows=size, cols=size, seed=s)) for size, s in cases]

    def run(self, state, n_passes, tally):
        cases, tasks = state
        labels = [f"{size}x{size} seed {s}" for size, s in cases]
        for _ in range(n_passes):
            t0 = time.perf_counter()
            solve_and_check(tasks, tally, labels)
            tally.pass_done(t0, time.perf_counter())


WORKLOADS = {w.name: w for w in (SweepGrid4(), MetaGrid16(), SampledGrid4(),
                                  OracleLadder())}


def _sweep_quality(records):
    """TAOG of MetaSrl, the best baseline TAOG and MetaSrl's clipped TACV."""
    taog, tacv = {}, {}
    for r in records:
        if r.is_test or r.error is not None:
            continue
        taog.setdefault(r.strategy, []).append(r.taog_contribution)
        tacv.setdefault(r.strategy, []).append(
            float(np.maximum(r.tacv_contribution, 0.0).mean()))
    baselines = [float(np.mean(v)) for k, v in taog.items() if k != "MetaSrl"]
    return {
        "harness.meta_taog": float(np.mean(taog.get("MetaSrl", [0.0]))),
        "harness.best_baseline_taog": min(baselines, default=0.0),
        "harness.meta_tacv_clipped": float(np.mean(tacv.get("MetaSrl", [0.0]))),
    }
