import json
import os
from dataclasses import replace

import numpy as np
import pytest

from metasrl import harness
from metasrl.crpo import CrpoConfig
from metasrl.dice import DiceConfig
from metasrl.errors import InvalidInput, NumericalFailure
from metasrl.harness import (ExperimentConfig, MetaConfig, baseline_init,
                             export_report, run_experiment, solve_oracles)
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import GridSpec, TaskSequenceConfig

from oracles import random_cmdp


def tiny_config(**kw):
    kw.setdefault("task_source", "unused")
    kw.setdefault("strategies", ("Random", "MetaSrl"))
    kw.setdefault("runs_per_strategy", 2)
    kw.setdefault("crpo", CrpoConfig(learning_rate=0.5, steps=5,
                                     tolerance=0.05, episodes_per_step=1,
                                     episode_horizon=2))
    return ExperimentConfig(**kw)


def tiny_tasks(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [random_cmdp(rng, feasible_margin=0.1) for _ in range(n)]


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            task_source=TaskSequenceConfig(
                mode="HighSimilarity", num_tasks=3, base=GridSpec(seed=1)),
            strategies=("Random",), runs_per_strategy=2,
            crpo=CrpoConfig(steps=7), dice=DiceConfig(rng_seed=4),
            meta=MetaConfig(ogd_step_init=0.25), master_seed=9)
        text = cfg.to_json()
        again = ExperimentConfig.from_json(text)
        assert again.to_json() == text
        assert again.crpo.steps == 7
        assert again.meta.ogd_step_init == 0.25

    def test_validation(self):
        with pytest.raises(InvalidInput):
            tiny_config(strategies=("Bogus",))
        with pytest.raises(InvalidInput):
            tiny_config(runs_per_strategy=0)

    def test_pretrained_arg_allowed(self):
        cfg = tiny_config(strategies=("Pretrained:2",))
        assert cfg.strategies == ("Pretrained:2",)


class TestBaselineInit:
    def test_random_feasible(self):
        rng = np.random.default_rng(0)
        table = baseline_init("Random", [], rng, 0.01, (3, 2))
        assert np.allclose(table.sum(axis=1), 1.0)
        assert np.all(table >= 0.01 - 1e-12)

    def test_pretrained_picks_index(self):
        rng = np.random.default_rng(1)
        hist = [np.array([[0.9, 0.1]]), np.array([[0.2, 0.8]])]
        table = baseline_init("Pretrained:1", hist, rng, 0.0, (1, 2))
        assert np.allclose(table, hist[1])
        table0 = baseline_init("Pretrained", hist, rng, 0.0, (1, 2))
        assert np.allclose(table0, hist[0])

    def test_average(self):
        rng = np.random.default_rng(2)
        hist = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]
        for name in ("SimpleAverage", "FAL"):
            table = baseline_init(name, hist, rng, 0.0, (1, 2))
            assert np.allclose(table, [[0.5, 0.5]])

    def test_empty_history_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInput):
            baseline_init("SimpleAverage", [], rng, 0.0, (1, 2))


class TestSolveOracles:
    def test_solves_all(self):
        tasks = tiny_tasks()
        oracles = solve_oracles(tasks)
        assert len(oracles) == 3
        assert all(o.feasible for o in oracles)

    def test_every_objective_is_revalidated(self, monkeypatch):
        """A cost value J_1 off by 1e-3 fails re-validation, not only J_0."""
        def off_in_j1(cmdp):
            sol = solve_optimal_lp(cmdp)
            return replace(sol, objective_values=sol.objective_values + [0.0, 1e-3])

        monkeypatch.setattr(harness, "solve_optimal_lp", off_in_j1)
        with pytest.raises(NumericalFailure, match="J_1"):
            solve_oracles(tiny_tasks(1))


class TestRunExperiment:
    def test_record_shape_and_holdout(self):
        cfg = tiny_config()
        tasks = tiny_tasks(4)
        records, reports = run_experiment(cfg, tasks=tasks)
        # 2 strategies x 2 runs x (3 train + 1 test)
        assert len(records) == 2 * 2 * 4
        test_recs = [r for r in records if r.is_test]
        assert len(test_recs) == 4
        assert all(r.task_index == 3 for r in test_recs)
        assert set(reports) == {"Random", "MetaSrl"}
        for rep in reports.values():
            assert len(rep.per_task) == 3

    def test_deterministic(self):
        cfg = tiny_config()
        tasks = tiny_tasks(3)
        _, rep_a = run_experiment(cfg, tasks=tasks)
        _, rep_b = run_experiment(cfg, tasks=tasks)
        for k in rep_a:
            assert rep_a[k].to_json() == rep_b[k].to_json()

    def test_seed_changes_results(self):
        tasks = tiny_tasks(3)
        _, rep_a = run_experiment(tiny_config(master_seed=0), tasks=tasks)
        _, rep_b = run_experiment(tiny_config(master_seed=1), tasks=tasks)
        assert rep_a["Random"].to_json() != rep_b["Random"].to_json()

    def test_no_holdout(self):
        cfg = tiny_config(holdout_test_task=False,
                          strategies=("Random",), runs_per_strategy=1)
        records, reports = run_experiment(cfg, tasks=tiny_tasks(2))
        assert not any(r.is_test for r in records)
        assert len(reports["Random"].per_task) == 2

    def test_curves_match_step_count(self):
        cfg = tiny_config(strategies=("Random",), runs_per_strategy=1)
        records, _ = run_experiment(cfg, tasks=tiny_tasks(2))
        for rec in records:
            assert rec.per_step_reward.shape == (5,)
            assert rec.per_step_costs.shape == (5, 1)


    def test_held_out_failure_is_recorded(self, monkeypatch):
        tasks = tiny_tasks(3)
        run_crpo = harness.run_crpo

        def failing_on_test_task(cmdp, *args, **kwargs):
            if cmdp is tasks[-1]:
                raise RuntimeError("held-out task failed")
            return run_crpo(cmdp, *args, **kwargs)

        monkeypatch.setattr(harness, "run_crpo", failing_on_test_task)
        records, reports = run_experiment(tiny_config(), tasks=tasks)
        assert len(records) == 2 * 2 * 3
        for rec in records:
            if rec.is_test:
                assert rec.task_index == 2
                assert rec.error == "RuntimeError: held-out task failed"
            else:
                assert rec.error is None
        assert set(reports) == {"Random", "MetaSrl"}

    def test_every_dice_fit_draws_its_own_stream(self, monkeypatch):
        crpo_seeds, dice_seeds = [], []
        run_crpo, fit = harness.run_crpo, harness.dualdice_fit

        def recording_crpo(cmdp, policy, cfg, *args):
            crpo_seeds.append(cfg.rng_seed)
            return run_crpo(cmdp, policy, cfg, *args)

        def recording_fit(dataset, target, gamma, cfg):
            assert cfg.solver == "Sgd" and cfg.sgd_steps == 50
            dice_seeds.append(cfg.rng_seed)
            return fit(dataset, target, gamma, cfg)

        monkeypatch.setattr(harness, "run_crpo", recording_crpo)
        monkeypatch.setattr(harness, "dualdice_fit", recording_fit)
        cfg = tiny_config(strategies=("MetaSrl",),
                          dice=DiceConfig(solver="Sgd", sgd_steps=50))
        records, _ = run_experiment(cfg, tasks=tiny_tasks(3))
        assert all(rec.error is None for rec in records)
        # 2 runs x 2 training tasks, each fit with its own seed, none of
        # them a CRPO seed
        assert len(dice_seeds) == len(set(dice_seeds)) == 4
        assert not set(dice_seeds) & set(crpo_seeds)
        run_experiment(cfg, tasks=tiny_tasks(3))
        assert dice_seeds[4:] == dice_seeds[:4]

    def test_without_stored_iterates(self):
        crpo_cfg = CrpoConfig(learning_rate=0.5, steps=5, tolerance=0.05,
                              episodes_per_step=1, episode_horizon=2,
                              store_all_iterates=False)
        records, reports = run_experiment(tiny_config(crpo=crpo_cfg),
                                          tasks=tiny_tasks(3))
        assert len(records) == 2 * 2 * 3
        assert all(rec.error is None for rec in records)
        assert all(rec.per_step_costs.shape == (5, 1) for rec in records)


class TestExportReport:
    def _run(self, tmp_path, fmt="csv", cfg=None):
        cfg = cfg or tiny_config()
        records, reports = run_experiment(cfg, tasks=tiny_tasks(3))
        out = str(tmp_path / "out")
        written = export_report(records, reports, out, fmt=fmt, config=cfg)
        return out, written

    def test_csv_files_and_headers(self, tmp_path):
        out, written = self._run(tmp_path)
        path = os.path.join(out, "curves_Random.csv")
        assert path in written
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == ("task,is_test,step,reward_mean,reward_std,"
                          "reward_stderr,cost_1_mean,cost_1_std,cost_1_stderr")
        assert os.path.exists(os.path.join(out, "regret_MetaSrl.json"))
        assert os.path.exists(os.path.join(out, "regret_MetaSrl.csv"))
        assert os.path.exists(os.path.join(out, "config.json"))
        assert os.path.exists(os.path.join(out, "environment.json"))

    def test_byte_identical_reruns(self, tmp_path):
        sgd = tiny_config(strategies=("MetaSrl",),
                          dice=DiceConfig(solver="Sgd", sgd_steps=50))
        for k, cfg in enumerate([tiny_config(), sgd]):
            out_a, _ = self._run(tmp_path / f"a{k}", cfg=cfg)
            out_b, _ = self._run(tmp_path / f"b{k}", cfg=cfg)
            for name in sorted(os.listdir(out_a)):
                with open(os.path.join(out_a, name), "rb") as fh:
                    a = fh.read()
                with open(os.path.join(out_b, name), "rb") as fh:
                    b = fh.read()
                assert a == b, name

    def test_json_format(self, tmp_path):
        out, _ = self._run(tmp_path, fmt="json")
        path = os.path.join(out, "curves_Random.json")
        rows = json.loads(open(path).read())
        assert rows and {"task", "is_test", "step", "reward_mean"} <= set(rows[0])

    def test_no_timestamps(self, tmp_path):
        out, _ = self._run(tmp_path)
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                text = fh.read().lower()
            for word in ("timestamp", "wall_clock", "created_at", "datetime"):
                assert word not in text
