import json
import os
from dataclasses import replace

import pytest

from metasrl import harness
from metasrl.cli import main
from metasrl.harness import ExperimentConfig
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import GridSpec, gen_frozen_lake

from test_acceptance import TEST09_CONFIG

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "examples")


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


TASK_DOC = {"mode": "HighSimilarity", "num_tasks": 3,
            "base": {"rows": 3, "cols": 3, "seed": 2}, "seed": 1}

RUN_DOC = {
    "task_source": TASK_DOC,
    "strategies": ["Random", "MetaSrl"],
    "runs_per_strategy": 2,
    "crpo": {"learning_rate": 0.5, "steps": 4, "tolerance": 0.05,
             "episodes_per_step": 1, "episode_horizon": 3},
    "master_seed": 7,
}


class TestGenTasks:
    def test_success(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "tasks.json", TASK_DOC)
        out = str(tmp_path / "tasks")
        assert main(["gen-tasks", "--config", cfg, "--out", out]) == 0
        names = sorted(os.listdir(out))
        assert names == ["manifest.json", "task_000.json", "task_001.json",
                         "task_002.json"]
        assert "wrote 3 tasks" in capsys.readouterr().out

    def test_bad_mode_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {**TASK_DOC, "mode": "Nope"})
        assert main(["gen-tasks", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "typo.json", {**TASK_DOC, "num_task": 3})
        assert main(["gen-tasks", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert ("config error: unknown key 'num_task' in task_source"
                in capsys.readouterr().err)

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["gen-tasks", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_prob_range_exit_2(self, tmp_path, capsys):
        doc = {**TASK_DOC, "mode": "LowSimilarity", "low_sim_prob_range": [0.8, 0.2]}
        cfg = write_json(tmp_path / "reversed.json", doc)
        assert main(["gen-tasks", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 2
        assert "low_sim_prob_range" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_generation_failure_exit_3(self, tmp_path, capsys):
        doc = {"mode": "LowSimilarity", "num_tasks": 1,
               "base": {"rows": 2, "cols": 2},
               "low_sim_prob_range": [0.0, 0.0]}
        cfg = write_json(tmp_path / "impossible.json", doc)
        assert main(["gen-tasks", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 3
        assert "runtime failure" in capsys.readouterr().err


class TestRun:
    def test_run_and_report(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        out = str(tmp_path / "run_out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert "failed" not in capsys.readouterr().err
        files = os.listdir(out)
        assert "errors.csv" not in files
        assert "curves_Random.csv" in files
        assert "regret_MetaSrl.json" in files
        assert "config.json" in files

        assert main(["report", "--in", out, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ("strategy,taog,static_regret,dynamic_regret,d_hat_sq,"
                            "v_hat_sq,path_length,sq_path_length,tacv")
        assert {l.split(",")[0] for l in lines[1:]} == {"Random", "MetaSrl"}

        assert main(["report", "--in", out, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"Random", "MetaSrl"}
        assert "taog" in doc["Random"]

    def test_strategy_and_seed_overrides(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        out = str(tmp_path / "one")
        assert main(["run", "--config", cfg, "--out", out,
                     "--seed", "3", "--strategy", "Random"]) == 0
        files = os.listdir(out)
        assert "curves_Random.csv" in files
        assert not any("MetaSrl" in f for f in files)
        with open(os.path.join(out, "config.json")) as fh:
            written = json.load(fh)
        assert written["master_seed"] == 3
        assert written["strategies"] == ["Random"]

    def test_run_from_task_directory(self, tmp_path):
        """The test_09 sweep read from a gen-tasks directory exports the same
        curve and regret files, byte for byte, as the sweep on the sequence
        generated in process: a loaded task is the task it was written from."""
        example = os.path.join(EXAMPLES, "test09.json")
        tasks_dir = str(tmp_path / "tasks")
        assert main(["gen-tasks", "--config", example, "--out", tasks_dir]) == 0
        with open(example) as fh:
            doc = json.load(fh)
        from_dir = write_json(tmp_path / "from_dir.json", {**doc, "task_source": tasks_dir})
        exports = {}
        for name, cfg in (("generated", example), ("loaded", from_dir)):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            exports[name] = {path.name: path.read_bytes() for path in out.iterdir()
                             if path.name.startswith(("curves_", "regret_"))}
        assert len(exports["generated"]) == 3 * len(doc["strategies"])
        assert exports["loaded"] == exports["generated"]

    @pytest.mark.parametrize("holdout", [False, True])
    def test_empty_task_directory_exit_2(self, tmp_path, capsys, holdout):
        tasks_dir = tmp_path / "tasks"
        tasks_dir.mkdir()
        rcfg = write_json(tmp_path / "run.json", {
            **RUN_DOC, "task_source": str(tasks_dir), "holdout_test_task": holdout})
        out = tmp_path / "x"
        assert main(["run", "--config", rcfg, "--out", str(out)]) == 2
        assert "config error: the task sequence is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_task_shapes_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "tasks.json", TASK_DOC)
        tasks_dir = tmp_path / "tasks"
        assert main(["gen-tasks", "--config", cfg, "--out", str(tasks_dir)]) == 0
        # a 4x4 grid among the 3x3 ones, as the held-out task
        odd = gen_frozen_lake(GridSpec(rows=4, cols=4, seed=2))
        (tasks_dir / "task_002.json").write_text(odd.to_json())
        run_doc = {**RUN_DOC, "task_source": str(tasks_dir)}
        rcfg = write_json(tmp_path / "run.json", run_doc)
        out = tmp_path / "x"
        assert main(["run", "--config", rcfg, "--out", str(out)]) == 2
        assert "task 2 has (n_states, n_actions, n_costs) = (17, 4, 1), " \
            "task 0 has (10, 4, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_revalidation_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def off_in_j1(cmdp):
            sol = solve_optimal_lp(cmdp)
            return replace(sol, objective_values=sol.objective_values + [0.0, 1e-3])

        monkeypatch.setattr(harness, "solve_optimal_lp", off_in_j1)
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: NumericalFailure" in err and "J_1" in err

    def test_bad_strategy_argument_exit_2(self, tmp_path, capsys):
        for name in ("MetaSrl:x", "Pretrained:-1"):
            cfg = write_json(tmp_path / "run.json", {**RUN_DOC, "strategies": [name]})
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
            assert f"unknown strategy {name!r}" in capsys.readouterr().err

    def test_infeasible_training_task_exit_2(self, tmp_path, capsys):
        doc = {**RUN_DOC, "task_source": {
            **TASK_DOC, "base": {**TASK_DOC["base"], "cost_limit": -0.1}}}
        cfg = write_json(tmp_path / "run.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "training task 0 has no policy" in capsys.readouterr().err

    def test_failed_task_runs_reported_exit_0(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json",
                         {**RUN_DOC, "strategies": ["Pretrained:2"]})
        out = str(tmp_path / "x")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        err = capsys.readouterr().err
        # tasks 1 and 2 of each of the 2 runs have no third policy to start from
        assert f"4 of 6 task runs failed; see {os.path.join(out, 'errors.csv')}" in err
        assert os.path.exists(os.path.join(out, "errors.csv"))

    @pytest.mark.parametrize("section,field,value", [
        ("meta", "ogd_step_init", 0), ("crpo", "learning_rate", float("nan")),
        ("crpo", "td_iterations", -5), ("crpo", "steps", 4.5)])
    def test_invalid_setting_exit_2(self, tmp_path, capsys, section, field, value):
        doc = {**RUN_DOC, section: {**RUN_DOC.get(section, {}), field: value}}
        cfg = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,field,value", [
        ("dice", "rng_seed", -1), ("dice", "rng_seed", True),
        ("crpo", "rng_seed", True), ("crpo", "rng_seed", 1.0),
        ("task_source", "num_tasks", True), ("task_source", "num_tasks", 2.5),
        ("task_source", "seed", -1), ("task_source.base", "rows", 4.0),
        ("task_source.base", "cols", True), ("task_source.base", "seed", True)])
    def test_bad_seed_or_count_exit_2(self, tmp_path, capsys, section, field, value):
        doc = json.loads(json.dumps(RUN_DOC))
        where = doc
        for name in section.split("."):
            where = where.setdefault(name, {})
        where[field] = value
        cfg = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,field,value,message", [
        ("crpo", "learning_rate", True, "a real number"),
        ("crpo", "tolerance", True, "a real number"),
        ("dice", "sgd_step_size", True, "a real number"),
        ("dice", "sgd_steps", 2.5, "an integer"),
        ("dice", "sgd_steps", True, "an integer"),
        ("task_source.base", "frozen_prob", True, "a real number")])
    def test_bool_or_fractional_setting_exit_2(self, tmp_path, capsys, section, field,
                                               value, message):
        doc = json.loads(json.dumps(RUN_DOC))
        where = doc
        for name in section.split("."):
            where = where.setdefault(name, {})
        where[field] = value
        if section == "dice":
            where["solver"] = "Sgd"
        cfg = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field} must be {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("runs_per_strategy", 2.5), ("holdout_test_task", "no"),
        ("strategies", "MetaSrl"), ("task_source", 5), ("task_source", ["tasks"])])
    def test_badly_typed_field_exit_2(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path / "run.json", {**RUN_DOC, field: value})
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [
        (None, "runs_per_stratgy"), ("crpo", "td_step_size"),
        ("crpo", "store_all_iterates"), ("dice", "sgd_step"),
        ("meta", "ogd_step"), ("task_source", "num_task"),
        ("task_source.base", "row")])
    def test_unknown_key_exit_2(self, tmp_path, capsys, section, key):
        doc = json.loads(json.dumps(RUN_DOC))
        where = doc
        for name in section.split(".") if section else ():
            where = where.setdefault(name, {})
        where[key] = 1
        cfg = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert (f"config error: unknown key {key!r} in {section or 'the config'}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [
        (None, "task_source"), ("task_source", "mode"), ("task_source", "num_tasks")])
    def test_missing_key_exit_2(self, tmp_path, capsys, section, key):
        doc = json.loads(json.dumps(RUN_DOC))
        del (doc[section] if section else doc)[key]
        cfg = write_json(tmp_path / "run.json", doc)
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert (f"config error: missing key {key!r} in {section or 'the config'}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_exported_config_loads_and_round_trips(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", {**RUN_DOC, "strategies": ["Random"]})
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "config.json").read_text()
        again = ExperimentConfig.from_json(text)
        assert again.to_json() == text
        assert again == replace(ExperimentConfig.from_json(RUN_DOC), strategies=("Random",))
        rerun = tmp_path / "rerun"
        assert main(["run", "--config", str(out / "config.json"), "--out", str(rerun)]) == 0
        assert (rerun / "config.json").read_text() == text

    @pytest.mark.parametrize("names", [["Pretrained", "Pretrained:0"],
                                       ["Pretrained:7", "Pretrained:07"]])
    def test_one_strategy_under_two_names_exit_2(self, tmp_path, capsys, names):
        cfg = write_json(tmp_path / "run.json", {**RUN_DOC, "strategies": names})
        out = tmp_path / "x"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: strategies must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_strategy_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", RUN_DOC)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--strategy", "Bogus"]) == 2


class TestExampleConfig:
    def test_test09_example_is_the_test_09_config(self):
        with open(os.path.join(EXAMPLES, "test09.json")) as fh:
            assert ExperimentConfig.from_json(json.load(fh)) == TEST09_CONFIG


    def test_every_example_config_loads(self):
        names = [n for n in sorted(os.listdir(EXAMPLES)) if n.endswith(".json")]
        assert "test09.json" in names
        for name in names:
            with open(os.path.join(EXAMPLES, name)) as fh:
                ExperimentConfig.from_json(json.load(fh))   # validated when built


class TestReport:
    def test_empty_dir_exit_2(self, tmp_path):
        assert main(["report", "--in", str(tmp_path)]) == 2
