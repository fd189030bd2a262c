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

three on a lockstep of L CRPO runs, L = 1, 5 and 50 (the test_09 CRPO
settings, the Exact critic, random initial logits, run k with seed k and
a learning rate drawn from [0.5, 1.5]):

- lanes_<L>: one `crpo_lanes` call, which takes the L runs through their
  8 steps together and builds each run's outcome, its output draw
  included; it makes --number / (8 L) calls a round, at least one, as one
  call is 8 L evaluations;

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
--number calls, in microseconds. Next to the times, each layer's `_calls`
column is the number of Python function calls (builtins included) that one
more call makes under cProfile, taken after the timed calls and apart from
them, so that the timings carry no profiler overhead. A count is the same
on every run, where the times swing with the host.

A second table, one row a (grid, layer), splits that count by where each
call is made: `metasrl_calls` from code in the metasrl package,
`other_calls` elsewhere (numpy's own Python code, and the layer's entry
call); the two add up to `<layer>_calls`. It also counts, in one more
call with no profiler, the layer's `np.linalg.solve` calls (`solves`) and
the shape of each call's matrix (`solve_shapes`: `<shape>*<calls>` in
first-call order, `-` if none; a leading axis is a stack of systems).
Call counts do not see the time spent inside numpy kernels, and the 16x16
exact and DICE solves are bound by those kernels: that is why every layer
stays timed, and why the solve shapes are recorded.
Uses the standard library and numpy only.

Example:
    PYTHONPATH=src python3 scripts/bench_layers.py --sizes 4,8,16 --repeats 5
"""

import argparse
import cProfile
import collections
import gc
import os
import pstats
import time
import tracemalloc
import warnings

import numpy as np

import metasrl
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
LANES = (1, 5, 50)       # the lockstep widths of the lanes layers
LAYERS = ("build", "evaluate", "visitation", "td", *(f"lanes_{n}" for n in LANES),
          "sample", "dice")


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


def lockstep(task, n_lanes):
    """One `crpo_lanes` call over n_lanes runs on `task`, as a call."""
    rng = np.random.default_rng(n_lanes)
    logits = rng.standard_normal((n_lanes, task.n_states, task.n_actions))
    rates = [float(rng.uniform(0.5, 1.5)) for _ in range(n_lanes)]
    return lambda: crpo.crpo_lanes(task, logits, CRPO, rates, range(n_lanes))


def traced_peak(call):
    """tracemalloc peak bytes of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PACKAGE = os.path.dirname(os.path.abspath(metasrl.__file__)) + os.sep


def call_counts(call):
    """(total, metasrl, other): the Python function calls, builtins
    included, that one call makes, and those made from code in the metasrl
    package and elsewhere. A call with no recorded caller, such as the
    entry call, is made elsewhere. Garbage collection is held off during
    the call: a collection inside it would add the calls of whatever gc
    callbacks are installed (hypothesis installs one), so the count would
    depend on the garbage left by earlier code."""
    profile = cProfile.Profile()
    collecting = gc.isenabled()
    gc.disable()
    try:
        profile.runcall(call)
    finally:
        if collecting:
            gc.enable()
    stats = pstats.Stats(profile)
    metasrl_calls = other = 0
    for (*_, calls, _, _, callers) in stats.stats.values():
        from_package = sum(c[1] for (path, *_), c in callers.items()
                           if path.startswith(PACKAGE))
        metasrl_calls += from_package
        other += calls - from_package
    return stats.total_calls, metasrl_calls, other


def solve_shapes(call):
    """The matrix shape of each `np.linalg.solve` call one call makes, in
    call order."""
    solve, shapes = np.linalg.solve, []

    def recording(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)

    np.linalg.solve = recording
    try:
        call()
    finally:
        np.linalg.solve = solve
    return shapes


def shape_summary(shapes):
    """`<shape>*<calls>` for each distinct shape, in first-call order, or
    `-` if there are none."""
    counts = collections.Counter("x".join(map(str, shape)) for shape in shapes)
    return ",".join(f"{key}*{n}" for key, n in counts.items()) or "-"


def layer_calls(task):
    """{layer: one call of the layer} for one task."""
    policy = cmdp.SoftmaxPolicy(logits=np.random.default_rng(0).standard_normal(
        (task.n_states, task.n_actions)))
    task.successors  # built once, as the first evaluation builds it
    build = type(task).elimination.func  # uncached: a fresh build each call
    rng = np.random.default_rng(0)
    outcome = crpo_run(task)
    return {
        "build": lambda: build(task),
        "evaluate": lambda: cmdp.policy_evaluation_exact(task, policy.probs),
        "visitation": lambda: cmdp.visitation_exact(task, policy),
        "td": lambda: crpo.td_critic(task, policy.probs, TD_ITERATIONS,
                                     CRPO.episode_horizon, rng),
        **{f"lanes_{n}": lockstep(task, n) for n in LANES},
        "sample": log_draw(task, outcome),
        "dice": dice_pass(task, outcome),
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
    numbers = {name: args.number for name in LAYERS}
    numbers.update({f"lanes_{n}": max(1, args.number // (CRPO.steps * n)) for n in LANES})
    width = {name: max(9, len(name) + 3) for name in LAYERS}
    print(f"{'grid':>6} {'states':>6} {'|I|':>5} "
          + " ".join(f"{name + '_us':>{width[name]}}" for name in LAYERS)
          + f" {'dice_peak_kb':>12} "
          + " ".join(f"{name + '_calls':>{len(name) + 6}}" for name in LAYERS))
    work = []
    for size in (int(s) for s in args.sizes.split(",")):
        task = first_task(size)
        calls = layer_calls(task)
        times = {name: best_time(call, args.repeats, numbers[name])
                 for name, call in calls.items()}
        peak = traced_peak(calls["dice"])
        counts = {name: call_counts(call) for name, call in calls.items()}
        shapes = {name: solve_shapes(call) for name, call in calls.items()}
        print(f"{f'{size}x{size}':>6} {task.n_states:>6} {task.elimination.blocks[0]:>5} "
              + " ".join(f"{1e6 * times[name]:>{width[name]}.1f}" for name in LAYERS)
              + f" {peak / 1024:>12.1f} "
              + " ".join(f"{counts[name][0]:>{len(name) + 6}}" for name in LAYERS))
        work += [f"{f'{size}x{size}':>6} {name:>10} {counts[name][1]:>13} "
                 f"{counts[name][2]:>11} {len(shapes[name]):>6} "
                 f"{shape_summary(shapes[name])}" for name in LAYERS]
    print(f"\n{'grid':>6} {'layer':>10} {'metasrl_calls':>13} {'other_calls':>11} "
          f"{'solves':>6} solve_shapes")
    print("\n".join(work))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
