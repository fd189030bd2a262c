"""Tests of the benchmark itself: output contract, failure counting, tracing.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_package()

from metasrl.taskgen import GridSpec, gen_frozen_lake  # noqa: E402
from pace import INTERVAL_S, NOMINAL_S, Pace  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Tally, solve_and_check  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = run.load_spec()
    proc = bench("--workload", "meta_grid16", "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == expected
    assert all(NAME.fullmatch(name) for name in printed)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_known_failing_lp_case_is_counted_not_fatal():
    # GridSpec(rows=6, cols=6, seed=3): the dense simplex reports "LP is
    # unbounded" although an occupancy LP is always bounded.
    tasks = [gen_frozen_lake(GridSpec(seed=0)),
             gen_frozen_lake(GridSpec(rows=6, cols=6, seed=3))]
    modules = run.import_package()
    tally = Tally()
    with Tracer(modules) as tracer:
        solve_and_check(tasks, tally, ["4x4 seed 0", "6x6 seed 3"])
    tally.run_checks()
    assert (tally.attempted, tally.failed, tally.incorrect) == (2, 1, 0)
    assert "6x6 seed 3" in tally.errors[0] and "unbounded" in tally.errors[0]
    assert tracer.calls("lp.solve") == 2 and tracer.counts["lp.failed"] == 1


@pytest.mark.parametrize("name", ["sweep_grid4", "meta_grid16"])
def test_traced_and_untraced_runs_do_the_same_work(name):
    plain = run.run_workload(name, 1, 0.5, trace=False)["result"]
    traced = run.run_workload(name, 1, 0.5, trace=True)["result"]
    assert (plain["attempted"], plain["failed"]) == (traced["attempted"], traced["failed"])
    assert plain["correct"] and traced["correct"]
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layers["crpo.runs"] == traced["attempted"]
    if name == "sweep_grid4":
        assert traced["attempted"] == 55      # 5 strategies x 11 tasks
        assert layers["dice.fits"] == layers["meta.updates"] == 10
    else:
        assert layers["dice.fits"] == layers["meta.updates"] == traced["attempted"]


def test_pass_times_are_scaled_by_the_reference_around_them():
    pace = Pace()
    # (start, end): one before the pass, two inside, one after
    pace.samples = [(0.0, 0.010), (1.0, 1.020), (2.0, 2.015), (3.5, 3.509)]
    tally = Tally(pace=pace)
    assert tally.pass_done(0.5, 3.0) == pytest.approx(2.5 - 0.035)
    slowdown = (0.010 + 0.020 + 0.015 + 0.009) / 4 / NOMINAL_S
    assert tally.pass_seconds(True) == pytest.approx([2.465 / slowdown])
    assert tally.pass_seconds(False) == pytest.approx([2.465])


def test_reference_runs_inside_passes_and_stops():
    before = signal.getsignal(signal.SIGALRM)
    with Pace() as pace:
        pace.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * INTERVAL_S:
            sum(range(1000))
        pace.stop()
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pace.samples) >= 2
    assert all(t0 <= s[0] < s[1] <= t1 for s in pace.samples)
    assert 0 < pace.kernel_seconds(t0, t1) < t1 - t0


def test_tracer_restores_the_package():
    modules = run.import_package()
    crpo, harness = modules["crpo"], modules["harness"]
    before = (crpo.sample_episode, harness.run_crpo, harness.solve_optimal_lp)
    with Tracer(modules):
        assert crpo.sample_episode is not before[0]
        assert harness.run_crpo is crpo.run_crpo
    assert (crpo.sample_episode, harness.run_crpo, harness.solve_optimal_lp) == before


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "meta_grid16", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
