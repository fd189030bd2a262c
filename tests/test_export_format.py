"""The exact bytes of a run export, from a sweep result and a report built
by hand.

The values cover what the format has to get right: integers, NaN, -0.0,
1/3 (17 significant digits in CSV, the shortest exact repr in JSON), a
tiny 1e-300, and an error message with a comma and a quote.
"""

import os

import numpy as np
import pytest

from metasrl.crpo import CrpoConfig
from metasrl.dice import DiceConfig
from metasrl.errors import InvalidInput
from metasrl.harness import ExperimentConfig, MetaConfig, export_report
from metasrl.meta import RegretReport
from metasrl.results import SweepResult
from metasrl.taskgen import GridSpec, TaskSequenceConfig

nan = np.nan


def sweep_result():
    """FAL and Random, 2 runs each, over training task 0 and held-out task 1
    (2 steps, 2 costs). Random ran only task 0 of run 0; its other three
    cells failed."""
    result = SweepResult.allocate(("FAL", "Random"), n_runs=2, steps=2,
                                  limits=np.full((2, 2), 0.5), optima=[1.25])
    cells = {
        (0, 0, 0): ([1.0, 0.5], [[0.0, 1.0], [0.25, 2.0]]),
        (0, 1, 0): ([2.0, 1.5], [[1.0, 1.0], [1 / 3, 3.0]]),
        (0, 0, 1): ([1 / 3, -0.0], [[1e-300, 7], [-0.0, nan]]),
        (1, 0, 0): ([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]]),
    }
    for cell, (reward, costs) in cells.items():
        result.curves[cell] = np.column_stack([reward, costs])
        result.returned[cell] = result.curves[cell][-1]
    result.errors[0, 1, 1] = 'ValueError: bad "row", at step 2'
    for cell in [(1, 0, 1), (1, 1, 0), (1, 1, 1)]:
        result.errors[cell] = "InvalidInput: Random did not run"
    return result


REPORT = RegretReport(
    taog=nan, tacv=np.array([-0.0, 1 / 3]), tacv_clipped=np.array([0.0, 1 / 3]),
    static_regret=1e-300, d_hat_sq=np.float64(1 / 3),
    per_task=[{"task": 0, "taog": 1 / 3, "tacv": [-0.0, 1e-300], "kl_term": nan,
               "kappa": 0.5},
              {"task": 1, "taog": -0.0, "tacv": [2.0, nan], "kl_term": 1e-300,
               "kappa": 1 / 3}])

CONFIG = ExperimentConfig(
    task_source=TaskSequenceConfig(
        mode="LowSimilarity", num_tasks=3, base=GridSpec(rows=3, cols=5, seed=7),
        low_sim_prob_range=(0.25, 0.75), seed=11),
    strategies=("FAL", "Random"), runs_per_strategy=2,
    crpo=CrpoConfig(learning_rate=1 / 3, steps=2), dice=DiceConfig(rng_seed=4),
    meta=MetaConfig(initial_rate=0.2), master_seed=5)

CURVE_HEADER = ("task,is_test,step,reward_mean,reward_std,reward_stderr,"
                "cost_1_mean,cost_1_std,cost_1_stderr,"
                "cost_2_mean,cost_2_std,cost_2_stderr\n")

EXPECTED = {
    "curves_FAL.csv": CURVE_HEADER + """\
0,0,0,1.5,0.5,0.35355339059327373,0.5,0.5,0.35355339059327373,1,0,0
0,0,1,1,0.5,0.35355339059327373,0.29166666666666663,0.041666666666666657,\
0.029462782549439473,2.5,0.5,0.35355339059327373
1,1,0,0.33333333333333331,0,0,1e-300,0,0,7,0,0
1,1,1,0,0,0,0,0,0,nan,nan,nan
""",
    "curves_Random.csv": CURVE_HEADER + """\
0,0,0,0.5,0,0,0,0,0,0,0,0
0,0,1,0.5,0,0,0,0,0,0,0,0
""",
    "regret_FAL.json": """\
{
  "d_hat_sq": 0.3333333333333333,
  "per_task": [
    {
      "kappa": 0.5,
      "kl_term": NaN,
      "tacv": [
        -0.0,
        1e-300
      ],
      "taog": 0.3333333333333333,
      "task": 0
    },
    {
      "kappa": 0.3333333333333333,
      "kl_term": 1e-300,
      "tacv": [
        2.0,
        NaN
      ],
      "taog": -0.0,
      "task": 1
    }
  ],
  "static_regret": 1e-300,
  "tacv": [
    -0.0,
    0.3333333333333333
  ],
  "tacv_clipped": [
    0.0,
    0.3333333333333333
  ],
  "taog": NaN
}""",
    "regret_FAL.csv": """\
task,taog_contribution,tacv_1,tacv_2,kl_term,kappa
0,0.33333333333333331,-0,1e-300,nan,0.5
1,-0,2,nan,1e-300,0.33333333333333331
""",
    "errors.csv": """\
strategy,run,task,is_test,error
FAL,1,1,1,"ValueError: bad ""row"", at step 2"
Random,0,1,1,InvalidInput: Random did not run
Random,1,0,0,InvalidInput: Random did not run
Random,1,1,1,InvalidInput: Random did not run
""",
    "config.json": """\
{
  "crpo": {
    "critic_mode": "Exact",
    "episode_horizon": 50,
    "episodes_per_step": 5,
    "learning_rate": 0.3333333333333333,
    "rng_seed": 0,
    "steps": 2,
    "td_iterations": 10000,
    "tolerance": 0.0
  },
  "dice": {
    "rng_seed": 4,
    "sgd_step_size": 0.05,
    "sgd_steps": 10000,
    "solver": "DirectSolve"
  },
  "holdout_test_task": true,
  "master_seed": 5,
  "meta": {
    "initial_rate": 0.2,
    "inner_updates": 1,
    "ogd_step_init": 0.5,
    "ogd_step_sim": 0.0,
    "rate_floor": 0.0001,
    "shrinkage": 0.001
  },
  "runs_per_strategy": 2,
  "strategies": [
    "FAL",
    "Random"
  ],
  "task_source": {
    "base": {
      "cols": 5,
      "cost_limit": 0.3,
      "discount": 0.95,
      "frozen_prob": 0.7,
      "goal_reward": 2.0,
      "hole_cost": 1.0,
      "rows": 3,
      "seed": 7,
      "slip_prob": 0.3333333333333333
    },
    "low_sim_prob_range": [
      0.25,
      0.75
    ],
    "mode": "LowSimilarity",
    "num_tasks": 3,
    "seed": 11
  }
}""",
}


def test_export_bytes(tmp_path):
    written = export_report(sweep_result(), {"FAL": REPORT}, str(tmp_path),
                            config=CONFIG, n_costs=2)
    names = sorted(os.path.basename(p) for p in written)
    assert names == sorted([*EXPECTED, "environment.json"])
    for name, text in EXPECTED.items():
        with open(tmp_path / name, newline="") as fh:
            assert fh.read() == text, name


def test_config_json_reads_back_to_the_same_bytes():
    text = EXPECTED["config.json"]
    assert ExperimentConfig.from_json(text) == CONFIG
    assert ExperimentConfig.from_json(text).to_json() == text


def test_n_costs_must_agree_with_the_result(tmp_path):
    with pytest.raises(InvalidInput, match="n_costs is 1, the result has 2 costs"):
        export_report(sweep_result(), {"FAL": REPORT}, str(tmp_path), n_costs=1)
    assert not os.listdir(tmp_path)
