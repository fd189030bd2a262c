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
- td: one TdSampled CRPO step of one lane from that policy, as
  `crpo_lanes` takes it (`crpo._lockstep`), with `td_iterations` 10 000
  and horizon 60: the chain, its counts, and the one stacked exact solve
  of the iterate on the task and on the chain's counted model;

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

With --against DIR, the script also imports the package under
DIR/src/metasrl, under a module name of its own, and builds each grid's
task with that package's own `taskgen`: the metasrl the script imports is
the change, DIR's is the parent. It times every layer of the two round by
round, --repeats rounds of --number calls a side (the lanes layers as
above), alternating which side goes first, and prints one row a (grid,
layer) and nothing else: each side's best time in microseconds
(`change_us`, `parent_us`), the median of the per-round ratios
change/parent (`ratio`) and the share of rounds the change was faster
(`won`). Both sides of a round run under the same host load, which two
separate runs of the script do not. A DIR without src/metasrl exits 2.
Uses the standard library and numpy only.

Examples:
    PYTHONPATH=src python3 scripts/bench_layers.py --sizes 4,8,16 --repeats 5
    PYTHONPATH=src python3 scripts/bench_layers.py --against ../parent --repeats 21
"""

import argparse
import cProfile
import collections
import dataclasses
import functools
import gc
import importlib
import importlib.util
import os
import pstats
import sys
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np

import metasrl
from metasrl import cmdp, crpo, dice, errors, taskgen

MODULES = ("cmdp", "crpo", "dice", "errors", "taskgen")
HERE = SimpleNamespace(cmdp=cmdp, crpo=crpo, dice=dice, errors=errors, taskgen=taskgen)


@functools.cache
def load_package(path):
    """The modules a layer call uses of the metasrl package in directory
    path, imported under a module name of their own, beside the metasrl
    this script imports."""
    name = f"metasrl_against_{abs(hash(path))}"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def first_task(size, pkg=HERE):
    """Task 0 of the HighSimilarity sequence on a size x size grid, seed 2."""
    base = pkg.taskgen.GridSpec(rows=size, cols=size, seed=2)
    config = pkg.taskgen.TaskSequenceConfig(mode="HighSimilarity", num_tasks=2,
                                            base=base, seed=2)
    return pkg.taskgen.gen_task_sequence(config)[0][0]


def mean_time(call, number):
    """The mean seconds of `number` calls."""
    start = time.perf_counter()
    for _ in range(number):
        call()
    return (time.perf_counter() - start) / number


def best_time(call, repeats, number):
    """Best over `repeats` rounds of the mean seconds of `number` calls."""
    return min(mean_time(call, number) for _ in range(repeats))


def paired_times(change, parent, repeats, number):
    """(best change time, best parent time, per-round change/parent ratios)
    of two calls timed round by round, `number` calls a side a round; the
    change goes first in even rounds, the parent in odd ones."""
    rounds = []
    for r in range(repeats):
        if r % 2:
            t_parent = mean_time(parent, number)
            t_change = mean_time(change, number)
        else:
            t_change = mean_time(change, number)
            t_parent = mean_time(parent, number)
        rounds.append((t_change, t_parent))
    t_change, t_parent = np.array(rounds).T
    return t_change.min(), t_parent.min(), t_change / t_parent


# the test_09 CRPO settings
CRPO = crpo.CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                       episodes_per_step=5, episode_horizon=60, rng_seed=2)
TD_ITERATIONS = 10_000   # the td layer's chain length
TD = dataclasses.replace(CRPO, critic_mode="TdSampled", td_iterations=TD_ITERATIONS)
LANES = (1, 5, 50)       # the lockstep widths of the lanes layers
LAYERS = ("build", "evaluate", "visitation", "td", *(f"lanes_{n}" for n in LANES),
          "sample", "dice")


def own(pkg, config):
    """config as the package pkg's own `CrpoConfig`."""
    return pkg.crpo.CrpoConfig(**dataclasses.asdict(config))


def crpo_run(task, pkg=HERE):
    """The outcome of a CRPO run on `task` from the uniform policy."""
    try:
        return pkg.crpo.run_crpo(
            task, pkg.cmdp.SoftmaxPolicy.uniform(task.n_states, task.n_actions),
            own(pkg, CRPO))
    except pkg.errors.DegenerateRun as exc:
        return exc.outcome


def log_draw(task, outcome, pkg=HERE):
    """The draw of the run's transition log from its iterate stack, as a call."""
    rng = np.random.default_rng(CRPO.rng_seed)
    return lambda: pkg.crpo.sample_episode(task, outcome.iterates, CRPO.episode_horizon,
                                           rng, CRPO.episodes_per_step)


def dice_pass(task, outcome, pkg=HERE):
    """One DICE pass on the log of a CRPO run on `task`, as a call."""
    log, target, dice = outcome.dataset, outcome.returned_policy, pkg.dice

    def call():
        ds = dice.TrajectoryDataset.from_samples(
            log.n_states, log.n_actions, log.s, log.a, log.s_next,
            log.initial_states)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pkg.errors.CoverageWarning)
            corrections = dice.dualdice_fit(ds, target, task.discount)
        return dice.visitation_from_corrections(ds, corrections)
    return call


def lockstep(task, n_lanes, pkg=HERE):
    """One `crpo_lanes` call over n_lanes runs on `task`, as a call."""
    rng = np.random.default_rng(n_lanes)
    logits = rng.standard_normal((n_lanes, task.n_states, task.n_actions))
    rates = [float(rng.uniform(0.5, 1.5)) for _ in range(n_lanes)]
    config = own(pkg, CRPO)
    return lambda: pkg.crpo.crpo_lanes(task, logits, config, rates, range(n_lanes))


def td_step(task, policy, pkg=HERE):
    """One TdSampled lockstep step of one lane from the policy, as a call;
    each call starts from empty counts."""
    rng = np.random.default_rng(0)
    step = np.full((1, 1, 1), TD.learning_rate / (1.0 - task.discount))
    counts = np.zeros((1,) + task.successors[1].shape, int)
    config = own(pkg, TD)
    return lambda: pkg.crpo._lockstep(task, config, policy.logits[None], step, [rng],
                                      counts)


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


def layer_calls(task, pkg=HERE):
    """{layer: one call of the layer} for one task of the package pkg."""
    cmdp = pkg.cmdp
    policy = cmdp.SoftmaxPolicy(logits=np.random.default_rng(0).standard_normal(
        (task.n_states, task.n_actions)))
    task.successors  # built once, as the first evaluation builds it
    build = type(task).elimination.func  # uncached: a fresh build each call
    outcome = crpo_run(task, pkg)
    return {
        "build": lambda: build(task),
        "evaluate": lambda: cmdp.policy_evaluation_exact(task, policy.probs),
        "visitation": lambda: cmdp.visitation_exact(task, policy),
        "td": td_step(task, policy, pkg),
        **{f"lanes_{n}": lockstep(task, n, pkg) for n in LANES},
        "sample": log_draw(task, outcome, pkg),
        "dice": dice_pass(task, outcome, pkg),
    }


def print_pairs(sizes, parent, repeats, numbers):
    """The interleaved table: per (grid, layer), the change's and the
    parent's best time, the median per-round ratio and the change's share
    of won rounds."""
    print(f"{'grid':>6} {'layer':>10} {'change_us':>10} {'parent_us':>10} "
          f"{'ratio':>6} {'won':>5}")
    for size in sizes:
        change_calls = layer_calls(first_task(size))
        parent_calls = layer_calls(first_task(size, parent), parent)
        for name in LAYERS:
            t_change, t_parent, ratios = paired_times(
                change_calls[name], parent_calls[name], repeats, numbers[name])
            print(f"{f'{size}x{size}':>6} {name:>10} {1e6 * t_change:>10.1f} "
                  f"{1e6 * t_parent:>10.1f} {np.median(ratios):>6.3f} "
                  f"{np.mean(ratios < 1.0):>5.2f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="4,8,16",
                        help="comma-separated grid sizes (default 4,8,16)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--number", type=int, default=200)
    parser.add_argument("--against", metavar="DIR",
                        help="time each layer interleaved with the package "
                             "under DIR/src/metasrl, the parent")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.number < 1:
        parser.error("--repeats and --number must be at least 1")
    numbers = {name: args.number for name in LAYERS}
    numbers.update({f"lanes_{n}": max(1, args.number // (CRPO.steps * n)) for n in LANES})
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.against is not None:
        path = os.path.realpath(os.path.join(args.against, "src", "metasrl"))
        if not os.path.isfile(os.path.join(path, "__init__.py")):
            parser.error(f"no metasrl package under {args.against}/src")
        print_pairs(sizes, load_package(path), args.repeats, numbers)
        return 0
    width = {name: max(9, len(name) + 3) for name in LAYERS}
    print(f"{'grid':>6} {'states':>6} {'|I|':>5} "
          + " ".join(f"{name + '_us':>{width[name]}}" for name in LAYERS)
          + f" {'dice_peak_kb':>12} "
          + " ".join(f"{name + '_calls':>{len(name) + 6}}" for name in LAYERS))
    work = []
    for size in sizes:
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
