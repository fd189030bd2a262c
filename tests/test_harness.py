import csv
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from metasrl import harness
from metasrl.crpo import CrpoConfig
from metasrl.dice import DiceConfig
from metasrl.errors import DegenerateRun, InvalidInput, NumericalFailure
from metasrl.harness import (Baseline, ExperimentConfig, MetaConfig,
                             export_report, parse_strategy, run_experiment,
                             solve_oracles)
from metasrl.lp import solve_optimal_lp
from metasrl.meta import RegretReport, project_table_shrinkage_simplex
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


def export_texts(records, reports, out):
    """File name -> text of the export of a run."""
    texts = {}
    for path in export_report(records, reports, str(out)):
        with open(path) as fh:
            texts[os.path.basename(path)] = fh.read()
    return texts


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

    def test_from_json_leaves_absent_keys_to_the_dataclass(self):
        assert ExperimentConfig.from_json({"task_source": "tasks"}) \
            == ExperimentConfig(task_source="tasks")
        cfg = ExperimentConfig.from_json({"task_source": "tasks",
                                          "strategies": ["FAL"],
                                          "crpo": {"steps": 3}})
        assert cfg.strategies == ("FAL",)
        assert cfg.crpo == CrpoConfig(steps=3)
        assert cfg.dice == DiceConfig() and cfg.meta == MetaConfig()

    def test_directory_source_round_trip(self):
        cfg = ExperimentConfig(task_source="runs/tasks", strategies=["MetaSrl"])
        assert cfg.strategies == ("MetaSrl",)
        text = cfg.to_json()
        assert '"task_source": "runs/tasks"' in text
        assert ExperimentConfig.from_json(text) == cfg

    def test_validation(self):
        with pytest.raises(InvalidInput):
            tiny_config(strategies=("Bogus",))
        with pytest.raises(InvalidInput):
            tiny_config(runs_per_strategy=0)
        # only Pretrained takes an argument, and only an integer >= 0
        for name in ("MetaSrl:x", "Pretrained:abc", "SimpleAverage:2",
                     "Random:zz", "FAL:0", "Pretrained:-1", "Pretrained:",
                     "Pretrained:1.5", "Random:"):
            with pytest.raises(InvalidInput, match="unknown strategy"):
                tiny_config(strategies=(name,))
        # one name, one row of the sweep's arrays and one curves file
        with pytest.raises(InvalidInput, match="strategies must not repeat"):
            tiny_config(strategies=("FAL", "Random", "FAL"))

    @pytest.mark.parametrize("field,value", [
        ("runs_per_strategy", 2.5), ("runs_per_strategy", "2"),
        ("runs_per_strategy", True), ("holdout_test_task", "no"),
        ("holdout_test_task", 0), ("strategies", "MetaSrl"),
        ("strategies", ["MetaSrl", 3]), ("strategies", {"MetaSrl": 1}),
        ("master_seed", -1), ("master_seed", 1.5), ("task_source", 5),
        ("task_source", None), ("task_source", ["tasks"])])
    def test_badly_typed_field_rejected_when_built(self, field, value):
        with pytest.raises(InvalidInput, match=f"^{field} must be"):
            ExperimentConfig.from_json({"task_source": "tasks", field: value})

    def test_typed_fields_accepted(self):
        cfg = ExperimentConfig(task_source="tasks", strategies=["FAL"],
                               runs_per_strategy=np.int64(3),
                               master_seed=np.uint32(5), holdout_test_task=False)
        assert cfg.strategies == ("FAL",) and cfg.runs_per_strategy == 3

    @pytest.mark.parametrize("field,value", [
        ("ogd_step_init", 0.0), ("ogd_step_init", -0.5), ("ogd_step_init", np.nan),
        ("ogd_step_init", np.inf), ("ogd_step_sim", -1.0), ("ogd_step_sim", np.nan),
        ("inner_updates", 0), ("inner_updates", 1.5), ("shrinkage", -0.1),
        ("shrinkage", 1.0), ("shrinkage", np.nan), ("rate_floor", 0.0),
        ("rate_floor", np.nan), ("initial_rate", 0.0), ("initial_rate", np.nan)])
    def test_meta_config_rejected_when_built(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            MetaConfig(**{field: value})

    @pytest.mark.parametrize("build,field", [
        (lambda: CrpoConfig(learning_rate=True), "learning_rate"),
        (lambda: CrpoConfig(tolerance=True), "tolerance"),
        (lambda: CrpoConfig(learning_rate="0.1"), "learning_rate"),
        (lambda: DiceConfig(solver="Sgd", sgd_step_size=True), "sgd_step_size"),
        (lambda: DiceConfig(sgd_step_size=False), "sgd_step_size"),
        (lambda: DiceConfig(solver="Sgd", sgd_steps=2.5), "sgd_steps"),
        (lambda: DiceConfig(solver="Sgd", sgd_steps=True), "sgd_steps"),
        (lambda: GridSpec(frozen_prob=True), "frozen_prob"),
        (lambda: GridSpec(discount=False), "discount"),
        (lambda: MetaConfig(rate_floor=True), "rate_floor"),
        (lambda: MetaConfig(initial_rate=True), "initial_rate")])
    def test_bool_or_non_number_setting_rejected_when_built(self, build, field):
        with pytest.raises(InvalidInput, match=f"^{field} must be"):
            build()

    def test_bool_setting_rejected_by_from_json(self):
        with pytest.raises(InvalidInput, match="^learning_rate must be a real number"):
            ExperimentConfig.from_json({"task_source": "tasks",
                                        "crpo": {"learning_rate": True}})

    def test_real_settings_accept_numpy_numbers(self):
        assert CrpoConfig(learning_rate=np.float32(0.5), tolerance=0).tolerance == 0
        assert DiceConfig(solver="Sgd", sgd_steps=np.int64(3)).sgd_steps == 3
        assert GridSpec(frozen_prob=np.float64(0.5)).frozen_prob == 0.5

    def test_meta_config_edge_values_accepted(self):
        assert MetaConfig(ogd_step_sim=0.0, initial_rate=None).ogd_step_sim == 0.0
        MetaConfig(shrinkage=0.0, initial_rate=0.3, inner_updates=np.int64(2))

    def test_pretrained_arg_allowed(self):
        cfg = tiny_config(strategies=("Pretrained:2",))
        assert cfg.strategies == ("Pretrained:2",)
        assert parse_strategy("Pretrained:2") == ("Pretrained", 2)
        assert parse_strategy("Pretrained") == ("Pretrained", 0)
        assert parse_strategy("MetaSrl") == ("MetaSrl", 0)


def baseline(name, histories=((),), seed=0, shrink=0.0, dims=(1, 2)):
    """A baseline of one run a history, run r drawing from seed + r."""
    uniform = np.full(dims, 1.0 / dims[1])
    strategy = Baseline(name, [np.random.default_rng(seed + r) for r in range(len(histories))],
                        uniform, 0.5, shrink)
    strategy.histories = [[np.asarray(h) for h in history] for history in histories]
    return strategy


class TestBaseline:
    def test_random_feasible(self):
        strategy = baseline("Random", [()] * 3, shrink=0.01, dims=(3, 2))
        tables, rates, errors = strategy.init(1)
        assert tables.shape == (3, 3, 2)
        assert rates.tolist() == [0.5] * 3 and errors == [None] * 3
        assert np.allclose(tables.sum(axis=2), 1.0)
        assert np.all(tables >= 0.01 - 1e-12)

    def test_pretrained_picks_index(self):
        hist = [[[0.9, 0.1]], [[0.2, 0.8]]]
        other = [[[0.3, 0.7]], [[0.6, 0.4]], [[0.1, 0.9]]]
        assert np.allclose(baseline("Pretrained:1", [hist, other]).init(3)[0],
                           [hist[1], other[1]])
        assert np.allclose(baseline("Pretrained", [hist, other]).init(3)[0],
                           [hist[0], other[0]])

    def test_average(self):
        """Each run averages its own history, of whatever length."""
        hist = [[[1.0, 0.0]], [[0.0, 1.0]]]
        longer = [[[1.0, 0.0]], [[1.0, 0.0]], [[0.25, 0.75]]]
        for name in ("SimpleAverage", "FAL"):
            tables, _, errors = baseline(name, [hist, longer]).init(3)
            assert errors == [None, None]
            assert np.allclose(tables, [[[0.5, 0.5]], [[0.75, 0.25]]])

    def test_too_short_history_rejected(self):
        """A run whose history is too short gets the error as its own; its
        sibling runs are served."""
        tables, _, errors = baseline("SimpleAverage", [(), [[[1.0, 0.0]]]]).init(1)
        assert isinstance(errors[0], InvalidInput)
        assert str(errors[0]) == "SimpleAverage needs 1 prior policies, the run has 0"
        assert errors[1] is None and np.allclose(tables[1], [[1.0, 0.0]])
        two, three = [[[1.0, 0.0]], [[0.0, 1.0]]], [[[1.0, 0.0]], [[0.0, 1.0]], [[0.5, 0.5]]]
        tables, _, errors = baseline("Pretrained:2", [three, two]).init(3)
        assert errors[0] is None and np.allclose(tables[0], [[0.5, 0.5]])
        assert str(errors[1]) == "Pretrained needs 3 prior policies, the run has 2"

    def test_random_generator_draw_order(self):
        """Task 0 takes the uniform table without a draw; each later task
        makes one dirichlet draw from each run's generator, in run order and
        task order, and projects it as the table alone would be."""
        shrink, dims = 1e-3, (3, 2)
        strategy = baseline("Random", [()] * 3, seed=5, shrink=shrink, dims=dims)
        references = [np.random.default_rng(5 + r) for r in range(3)]
        assert all(np.array_equal(table, strategy.uniform) for table in strategy.init(0)[0])
        for t in (1, 2, 3):
            tables = strategy.init(t)[0]
            for table, reference in zip(tables, references):
                draw = reference.dirichlet(np.ones(dims[1]), size=dims[0])
                assert np.array_equal(table, project_table_shrinkage_simplex(draw, shrink))
        assert [rng.bit_generator.state for rng in strategy.rngs] == \
            [reference.bit_generator.state for reference in references]


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

    def test_deterministic(self, tmp_path):
        cfg = tiny_config()
        tasks = tiny_tasks(3)
        a = export_texts(*run_experiment(cfg, tasks=tasks), tmp_path / "a")
        b = export_texts(*run_experiment(cfg, tasks=tasks), tmp_path / "b")
        assert "regret_MetaSrl.json" in a
        assert a == b

    def test_seed_changes_results(self, tmp_path):
        tasks = tiny_tasks(3)
        a = export_texts(*run_experiment(tiny_config(master_seed=0), tasks=tasks),
                         tmp_path / "a")
        b = export_texts(*run_experiment(tiny_config(master_seed=1), tasks=tasks),
                         tmp_path / "b")
        assert a["regret_Random.json"] != b["regret_Random.json"]

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

    def test_learning_step_failure_is_recorded(self, monkeypatch):
        """A failed meta update becomes the task's error record; the meta
        state stays as it was and the run goes on to the next task."""
        tasks = tiny_tasks(4)
        # the state each meta_update call starts from, by task and then in
        # run order; a run's update follows its own CRPO call
        states = [[] for _ in tasks]
        running = []
        run_crpo, meta_update = harness.run_crpo, harness.meta_update

        def recording_crpo(cmdp, *args):
            running[:] = [next(t for t, task in enumerate(tasks) if task is cmdp)]
            return run_crpo(cmdp, *args)

        def failing_on_task_1(state, *args):
            states[running[0]].append(state)
            if running[0] == 1:
                raise InvalidInput("non-finite gradient")
            return meta_update(state, *args)

        monkeypatch.setattr(harness, "run_crpo", recording_crpo)
        monkeypatch.setattr(harness, "meta_update", failing_on_task_1)
        records, reports = run_experiment(tiny_config(strategies=("MetaSrl",)),
                                          tasks=tasks)
        assert len(records) == 2 * 4
        for rec in records:
            assert rec.error == ("InvalidInput: non-finite gradient"
                                 if rec.task_index == 1 else None)
        assert [len(s) for s in states] == [2, 2, 2, 0]
        for run in range(2):
            s0, s1, s2 = (states[t][run] for t in range(3))
            assert s1 is not s0
            assert s2 is s1         # task 1's update did not land
        task_1 = reports["MetaSrl"].per_task[1]
        assert np.isnan(task_1["taog"]) and np.isnan(task_1["kl_term"])
        assert np.isfinite(reports["MetaSrl"].per_task[2]["taog"])
        assert np.isfinite(reports["MetaSrl"].d_hat_sq)

    def test_diverging_sgd_dice_does_not_abort_the_sweep(self):
        cfg = tiny_config(strategies=("Random", "MetaSrl"),
                          dice=DiceConfig(solver="Sgd", sgd_steps=2000,
                                          sgd_step_size=1e6))
        records, reports = run_experiment(cfg, tasks=tiny_tasks(3))
        meta = [rec for rec in records if rec.strategy == "MetaSrl"]
        assert all(rec.error == "InvalidInput: non-finite gradient"
                   for rec in meta if not rec.is_test)
        assert all(rec.error is None for rec in records if rec.strategy == "Random")
        assert np.isnan(reports["MetaSrl"].taog)
        assert np.isnan(reports["MetaSrl"].static_regret)
        assert np.isfinite(reports["Random"].taog)

    def test_task_failing_in_every_run(self):
        """Pretrained:2 has no third policy before task 2, so tasks 1 and 2
        fail in every run; the report reads NaN there and goes on."""
        tasks = tiny_tasks(4)
        records, reports = run_experiment(
            tiny_config(strategies=("Pretrained:2",)), tasks=tasks)
        for rec in records:
            assert (rec.error is None) == (rec.task_index == 0)
            if rec.error is not None:   # a failed run's numbers are NaN
                assert np.isnan(rec.final_objectives).all()
                assert np.isnan(rec.per_step_reward).all()
                assert rec.per_step_costs.shape == (5, 1)
        report = reports["Pretrained:2"]
        gaps = [row["taog"] for row in report.per_task]
        assert np.isfinite(gaps[0]) and np.isnan(gaps[1:]).all()
        assert np.isnan(report.taog)
        # task 0 alone has runs, and a baseline fits no KL term
        assert np.isfinite(report.d_hat_sq)
        assert np.isnan(report.static_regret)

    def test_infeasible_training_task_rejected_before_any_run(self, monkeypatch):
        tasks = tiny_tasks(4)
        tasks[1] = replace(tasks[1], limits=np.array([-0.1]))

        def no_run(*args, **kwargs):
            raise AssertionError("CRPO ran")

        monkeypatch.setattr(harness, "run_crpo", no_run)
        with pytest.raises(InvalidInput, match="training task 1 has no policy"):
            run_experiment(tiny_config(), tasks=tasks)

    @pytest.mark.parametrize("odd", [dict(n_states=5), dict(n_actions=2),
                                     dict(n_costs=2)])
    def test_mixed_task_shapes_rejected_before_any_solve(self, monkeypatch, odd):
        tasks = tiny_tasks(4)
        tasks[2] = random_cmdp(np.random.default_rng(1), feasible_margin=0.1, **odd)
        tasks.append(random_cmdp(np.random.default_rng(2), n_states=6))

        def no_solve(*args, **kwargs):
            raise AssertionError("an oracle was solved")

        monkeypatch.setattr(harness, "solve_optimal_lp", no_solve)
        with pytest.raises(InvalidInput, match=r"^task 2 has \(n_states, n_actions, "
                           r"n_costs\) = \(\d, \d, \d\), task 0 has \(4, 3, 1\)$"):
            run_experiment(tiny_config(), tasks=tasks)

    def test_failed_runs_do_not_enter_the_task_mean(self, monkeypatch):
        tasks = tiny_tasks(3)
        run_crpo = harness.run_crpo
        task_1_calls = []

        def failing_once_on_task_1(cmdp, *args, **kwargs):
            if cmdp is tasks[1]:
                task_1_calls.append(cmdp)
                if len(task_1_calls) == 1:
                    raise RuntimeError("first run of task 1 failed")
            return run_crpo(cmdp, *args, **kwargs)

        monkeypatch.setattr(harness, "run_crpo", failing_once_on_task_1)
        cfg = tiny_config(strategies=("Random",), holdout_test_task=False)
        records, reports = run_experiment(cfg, tasks=tasks)
        task_1 = [rec for rec in records if rec.task_index == 1]
        assert [rec.error is None for rec in task_1] == [False, True]
        row = reports["Random"].per_task[1]
        assert row["taog"] == task_1[1].taog_contribution
        assert row["tacv"] == list(task_1[1].tacv_contribution)

    def test_one_stacked_projection_per_baseline_and_task(self, monkeypatch):
        """Each baseline projects its R runs' init tables in one call a task
        after task 0, and MetaSrl none: the harness's only other projection
        is the uniform table's, once a sweep."""
        shapes = []
        project = harness.project_table_shrinkage_simplex

        def counting(table, shrink):
            shapes.append(np.shape(table))
            return project(table, shrink)

        monkeypatch.setattr(harness, "project_table_shrinkage_simplex", counting)
        baselines = ("Random", "Pretrained", "SimpleAverage", "FAL")
        result, _ = run_experiment(tiny_config(strategies=baselines + ("MetaSrl",),
                                               runs_per_strategy=3), tasks=tiny_tasks(4))
        assert result.ok.all()
        assert shapes == [(4, 3)] + [(3, 4, 3)] * (len(baselines) * 3)

    def test_a_failed_run_averages_only_its_own_history(self, monkeypatch):
        """SimpleAverage's run 1 raises in its task-1 CRPO call: at tasks 2
        and 3 it averages its own successful tasks alone, while its sibling
        runs and FAL's runs average all of theirs."""
        tasks, shrink = tiny_tasks(4), MetaConfig().shrinkage
        run_crpo, init = harness.run_crpo, harness.Baseline.init
        returned = {}   # (strategy, run, task) -> the returned policy's table
        inits = {}      # (strategy, task) -> the init tables

        def failing_run_1_on_task_1(cmdp, *args):
            # every run joins every task, its call in (strategy, run) order
            t = next(t for t, task in enumerate(tasks) if task is cmdp)
            cell = divmod(sum(key[2] == t for key in returned), 3) + (t,)
            returned[cell] = None
            if cell == (0, 1, 1):
                raise RuntimeError("run 1 failed on task 1")
            try:
                outcome = run_crpo(cmdp, *args)
            except DegenerateRun as exc:
                returned[cell] = exc.outcome.returned_policy.probs.copy()
                raise
            returned[cell] = outcome.returned_policy.probs.copy()
            return outcome

        def recording_init(self, t):
            tables, rates, errors = init(self, t)
            assert errors == [None] * 3
            inits[self.kind, t] = tables
            return tables, rates, errors

        monkeypatch.setattr(harness, "run_crpo", failing_run_1_on_task_1)
        monkeypatch.setattr(harness.Baseline, "init", recording_init)
        result, _ = run_experiment(tiny_config(strategies=("SimpleAverage", "FAL"),
                                               runs_per_strategy=3), tasks=tasks)
        assert [(s, run, t) for s, run, t in np.argwhere(~result.ok)] == [(0, 1, 1)]
        assert result.errors[0, 1, 1] == "RuntimeError: run 1 failed on task 1"
        for si, name in enumerate(("SimpleAverage", "FAL")):
            for t in (2, 3):
                for run in range(3):
                    learned = [k for k in range(t) if (si, run, k) != (0, 1, 1)]
                    mean = np.mean([returned[si, run, k] for k in learned], axis=0)
                    assert np.array_equal(inits[name, t][run],
                                          project_table_shrinkage_simplex(mean, shrink))

    def test_every_dice_fit_draws_its_own_stream(self, monkeypatch):
        crpo_seeds, dice_seeds = [], []
        crpo_lanes, fit = harness.crpo_lanes, harness.dualdice_fit

        def recording_crpo(cmdp, logits, cfg, rates, seeds):
            crpo_seeds.extend(int(seed) for seed in seeds)
            return crpo_lanes(cmdp, logits, cfg, rates, seeds)

        def recording_fit(dataset, target, gamma, cfg):
            assert cfg.solver == "Sgd" and cfg.sgd_steps == 50
            dice_seeds.append(cfg.rng_seed)
            return fit(dataset, target, gamma, cfg)

        monkeypatch.setattr(harness, "crpo_lanes", recording_crpo)
        monkeypatch.setattr(harness, "dualdice_fit", recording_fit)
        cfg = tiny_config(strategies=("MetaSrl",),
                          dice=DiceConfig(solver="Sgd", sgd_steps=50))
        records, _ = run_experiment(cfg, tasks=tiny_tasks(3))
        assert all(rec.error is None for rec in records)
        # 2 runs x 2 training tasks, each fit with its own seed, none of
        # them a CRPO seed
        assert len(dice_seeds) == len(set(dice_seeds)) == 4
        assert len(crpo_seeds) == len(set(crpo_seeds)) == 2 * 3
        assert not set(dice_seeds) & set(crpo_seeds)
        run_experiment(cfg, tasks=tiny_tasks(3))
        assert dice_seeds[4:] == dice_seeds[:4]


class TestExportReport:
    def _run(self, tmp_path, cfg=None):
        cfg = cfg or tiny_config()
        records, reports = run_experiment(cfg, tasks=tiny_tasks(3))
        out = str(tmp_path / "out")
        written = export_report(records, reports, out, config=cfg)
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
        assert not os.path.exists(os.path.join(out, "errors.csv"))  # no run failed

    def test_byte_identical_reruns(self, tmp_path):
        sgd = tiny_config(strategies=("MetaSrl",),
                          dice=DiceConfig(solver="Sgd", sgd_steps=50))
        td = tiny_config(crpo=CrpoConfig(learning_rate=0.5, steps=5, tolerance=0.05,
                                         critic_mode="TdSampled", td_iterations=40,
                                         episodes_per_step=1, episode_horizon=4))
        for k, cfg in enumerate([tiny_config(), sgd, td]):
            out_a, _ = self._run(tmp_path / f"a{k}", cfg=cfg)
            out_b, _ = self._run(tmp_path / f"b{k}", cfg=cfg)
            for name in sorted(os.listdir(out_a)):
                with open(os.path.join(out_a, name), "rb") as fh:
                    a = fh.read()
                with open(os.path.join(out_b, name), "rb") as fh:
                    b = fh.read()
                assert a == b, name

    def test_failed_runs_go_to_errors_csv(self, tmp_path, monkeypatch):
        tasks = tiny_tasks(3)
        run_crpo = harness.run_crpo

        def failing_on_task_1(cmdp, *args, **kwargs):
            if cmdp is tasks[1]:
                raise RuntimeError("task 1 failed, with a comma")
            return run_crpo(cmdp, *args, **kwargs)

        monkeypatch.setattr(harness, "run_crpo", failing_on_task_1)
        cfg = tiny_config()
        records, reports = run_experiment(cfg, tasks=tasks)
        out = str(tmp_path / "out")
        written = export_report(records, reports, out, config=cfg)
        path = os.path.join(out, "errors.csv")
        assert path in written
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "run", "task", "is_test", "error"]
        assert rows[1:] == [
            [strategy, str(run), "1", "0", "RuntimeError: task 1 failed, with a comma"]
            for strategy in ("Random", "MetaSrl") for run in range(2)]

    def test_non_finite_init_table_is_the_cell_error(self, tmp_path, monkeypatch):
        """A strategy whose init table is not finite: `crpo_lanes` refuses
        the lane, and errors.csv reads the lane's InvalidInput."""
        init = harness.Baseline.init

        def nan_on_task_1(self, t):
            tables, rates, errors = init(self, t)
            return (np.full_like(tables, np.nan) if t == 1 else tables), rates, errors

        monkeypatch.setattr(harness.Baseline, "init", nan_on_task_1)
        cfg = tiny_config()
        result, reports = run_experiment(cfg, tasks=tiny_tasks(3))
        out = str(tmp_path / "out")
        export_report(result, reports, out, config=cfg)
        with open(os.path.join(out, "errors.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["Random", str(run), "1", "0",
                             "InvalidInput: logits must be finite"] for run in range(2)]

    def test_errors_csv_keeps_strategy_run_task_order(self, tmp_path, monkeypatch):
        """Failures on cells of both strategies, held-out task among them,
        come out in (strategy, run, task) order, each with its own text."""
        tasks = tiny_tasks(3)
        cfg = tiny_config()
        run_crpo, crpo_lanes = harness.run_crpo, harness.crpo_lanes
        calls, lane_seeds = [], []   # each task's lane seeds, in lane order
        # a cell is its task and its CRPO seed, each (strategy, run) drawing
        # its task seeds from its own child of the master seed; it is named
        # by its index in (strategy, run, task) order
        children = np.random.SeedSequence(cfg.master_seed).spawn(4)
        failing = {(t, int(children[s * 2 + run].generate_state(3, dtype=np.uint32)[t])):
                   s * 6 + run * 3 + t
                   for s, run, t in [(0, 0, 2), (0, 1, 0), (1, 0, 1), (1, 1, 2)]}

        def recording_seeds(cmdp, logits, crpo_cfg, rates, seeds):
            lane_seeds.append([int(seed) for seed in seeds])
            return crpo_lanes(cmdp, logits, crpo_cfg, rates, seeds)

        def failing_on_some_cells(cmdp, policy, crpo_cfg, *args):
            # one call a cell, a task's calls in the order of its lanes
            t = next(t for t, task in enumerate(tasks) if task is cmdp)
            seed = lane_seeds[t][sum(c is cmdp for c in calls)]
            calls.append(cmdp)
            if (t, seed) in failing:
                raise RuntimeError(f"call {failing[t, seed]} failed")
            return run_crpo(cmdp, policy, crpo_cfg, *args)

        monkeypatch.setattr(harness, "crpo_lanes", recording_seeds)
        monkeypatch.setattr(harness, "run_crpo", failing_on_some_cells)
        result, reports = run_experiment(cfg, tasks=tasks)
        assert len(calls) == 12
        out = str(tmp_path / "out")
        export_report(result, reports, out, config=cfg)
        with open(os.path.join(out, "errors.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["Random", "0", "2", "1", "RuntimeError: call 2 failed"],
                            ["Random", "1", "0", "0", "RuntimeError: call 3 failed"],
                            ["MetaSrl", "0", "1", "0", "RuntimeError: call 7 failed"],
                            ["MetaSrl", "1", "2", "1", "RuntimeError: call 11 failed"]]
        assert [[rec.strategy, str(rec.run), str(rec.task_index),
                 str(int(rec.is_test)), rec.error]
                for rec in result if rec.error is not None] == rows[1:]

    def test_regret_report_holds_only_measured_fields(self, tmp_path):
        """A baseline fits no KL term, so its KL and static regret are NaN;
        MetaSrl's static regret is its KL terms less T times D^2."""
        result, reports = run_experiment(tiny_config(), tasks=tiny_tasks(3))
        out = str(tmp_path / "out")
        export_report(result, reports, out)
        assert [f.name for f in fields(RegretReport)] == [
            "taog", "tacv", "tacv_clipped", "static_regret", "d_hat_sq", "per_task"]
        random, meta = reports["Random"], reports["MetaSrl"]
        assert all(np.isnan(row["kl_term"]) for row in random.per_task)
        assert np.isnan(random.static_regret)
        kl = [row["kl_term"] for row in meta.per_task]
        assert np.isfinite(meta.static_regret)
        assert meta.static_regret == pytest.approx(
            sum(kl) - len(kl) * meta.d_hat_sq, abs=1e-12)
        for strategy in ("Random", "MetaSrl"):
            with open(os.path.join(out, f"regret_{strategy}.csv")) as fh:
                assert fh.readline() == "task,taog_contribution,tacv_1,kl_term,kappa\n"

    def test_cost_free_regret_csv_has_no_empty_column(self, tmp_path):
        task = random_cmdp(np.random.default_rng(0))
        task = replace(task, costs=task.costs[:0], limits=task.limits[:0])
        cfg = tiny_config(strategies=("Random",), runs_per_strategy=1)
        out = str(tmp_path / "out")
        export_report(*run_experiment(cfg, tasks=[task] * 3), out, n_costs=0)
        with open(os.path.join(out, "regret_Random.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "task,taog_contribution,kl_term,kappa"
        assert [len(line.split(",")) for line in lines[1:]] == [4, 4]

    def test_no_timestamps(self, tmp_path):
        out, _ = self._run(tmp_path)
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as fh:
                text = fh.read().lower()
            for word in ("timestamp", "wall_clock", "created_at", "datetime"):
                assert word not in text
