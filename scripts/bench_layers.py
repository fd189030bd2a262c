#!/usr/bin/env python3
"""Time the exact Bellman layer and the DICE layer in-process, one grid size
after another.

For task 0 of a HighSimilarity task sequence (grid and sequence seed 2) at
each size, prints the time of four calls, the last three under the same
random softmax policy:

- build: building `TabularCmdp.elimination`, its successor view already
  built;
- evaluate: one `policy_evaluation_exact` on the policy's (S, A) table;
- visitation: one `visitation_exact`;
- td: one TdSampled CRPO step's critic, `td_critic` on that table with
  `td_iterations` 10 000 and horizon 60;

and two on a CRPO run on that task (the test_09 CRPO settings, seed 2,
from the uniform policy):

- sample: the draw of the run's transition log, one `sample_episode` over
  `outcome.iterates`, its (8, S, A) iterate stack, x 5 episodes at horizon
  60, as `outcome.dataset` draws it;
- dice: one DICE pass on that log: building the `TrajectoryDataset`, the
  DirectSolve `dualdice_fit` under the run's returned policy, and
  `visitation_from_corrections`. dice_peak_kb is the tracemalloc peak of
  that pass, in KiB.

Each time is the best, over --repeats rounds, of the mean time of
--number calls, in microseconds. Uses the standard library and numpy only.

Example:
    PYTHONPATH=src python3 scripts/bench_layers.py --sizes 4,8,16 --repeats 5
"""

import argparse
import time
import tracemalloc
import warnings

import numpy as np

from metasrl import cmdp, crpo, dice, taskgen
from metasrl.errors import CoverageWarning, DegenerateRun


def first_task(size):
    """Task 0 of the HighSimilarity sequence on a size x size grid, seed 2."""
    base = taskgen.GridSpec(rows=size, cols=size, seed=2)
    config = taskgen.TaskSequenceConfig(mode="HighSimilarity", num_tasks=2,
                                        base=base, seed=2)
    return taskgen.gen_task_sequence(config)[0][0]


def best_time(call, repeats, number):
    """Best over `repeats` rounds of the mean seconds of `number` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        best = min(best, (time.perf_counter() - start) / number)
    return best


# the test_09 CRPO settings
CRPO = crpo.CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                       episodes_per_step=5, episode_horizon=60, rng_seed=2)
TD_ITERATIONS = 10_000   # the td layer's chain length


def crpo_run(task):
    """The outcome of a CRPO run on `task` from the uniform policy."""
    try:
        return crpo.run_crpo(
            task, cmdp.SoftmaxPolicy.uniform(task.n_states, task.n_actions), CRPO)
    except DegenerateRun as exc:
        return exc.outcome


def log_draw(task, outcome):
    """The draw of the run's transition log from its iterate stack, as a call."""
    rng = np.random.default_rng(CRPO.rng_seed)
    return lambda: crpo.sample_episode(task, outcome.iterates, CRPO.episode_horizon,
                                       rng, CRPO.episodes_per_step)


def dice_pass(task, outcome):
    """One DICE pass on the log of a CRPO run on `task`, as a call."""
    log, target = outcome.dataset, outcome.returned_policy

    def call():
        ds = dice.TrajectoryDataset.from_samples(
            log.n_states, log.n_actions, log.s, log.a, log.s_next,
            log.initial_states)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            corrections = dice.dualdice_fit(ds, target, task.discount)
        return dice.visitation_from_corrections(ds, corrections)
    return call


def traced_peak(call):
    """tracemalloc peak bytes of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layer_times(task, repeats, number):
    """{layer: best seconds} for one task, and the DICE pass's traced peak
    bytes as "dice_peak"."""
    policy = cmdp.SoftmaxPolicy(logits=np.random.default_rng(0).standard_normal(
        (task.n_states, task.n_actions)))
    task.successors  # built once, as the first evaluation builds it
    build = type(task).elimination.func  # uncached: a fresh build each call
    rng = np.random.default_rng(0)
    outcome = crpo_run(task)
    dice_call = dice_pass(task, outcome)
    return {
        "build": best_time(lambda: build(task), repeats, number),
        "evaluate": best_time(lambda: cmdp.policy_evaluation_exact(task, policy.probs),
                              repeats, number),
        "visitation": best_time(lambda: cmdp.visitation_exact(task, policy),
                                repeats, number),
        "td": best_time(lambda: crpo.td_critic(task, policy.probs, TD_ITERATIONS,
                                               CRPO.episode_horizon, rng),
                        repeats, number),
        "sample": best_time(log_draw(task, outcome), repeats, number),
        "dice": best_time(dice_call, repeats, number),
        "dice_peak": traced_peak(dice_call),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="4,8,16",
                        help="comma-separated grid sizes (default 4,8,16)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.number < 1:
        parser.error("--repeats and --number must be at least 1")
    print(f"{'grid':>6} {'states':>6} {'|I|':>5} {'build_us':>9} "
          f"{'evaluate_us':>11} {'visitation_us':>13} {'td_us':>9} "
          f"{'sample_us':>9} {'dice_us':>9} "
          f"{'dice_peak_kb':>12}")
    for size in (int(s) for s in args.sizes.split(",")):
        task = first_task(size)
        times = layer_times(task, args.repeats, args.number)
        print(f"{f'{size}x{size}':>6} {task.n_states:>6} "
              f"{task.elimination.blocks[0]:>5} {1e6 * times['build']:>9.1f} "
              f"{1e6 * times['evaluate']:>11.1f} {1e6 * times['visitation']:>13.1f} "
              f"{1e6 * times['td']:>9.1f} {1e6 * times['sample']:>9.1f} "
              f"{1e6 * times['dice']:>9.1f} {times['dice_peak'] / 1024:>12.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
