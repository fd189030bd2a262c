import json
import os
import re

import numpy as np
import pytest

from metasrl import taskgen
from metasrl.cmdp import SoftmaxPolicy, all_objectives
from metasrl.errors import GenerationFailure, InvalidInput
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import (GridSpec, TaskSequenceConfig, _goal_reachable,
                             gen_frozen_lake, gen_grid, gen_task_sequence,
                             grid_ascii, grid_to_cmdp, load_task_sequence,
                             write_task_sequence)

from oracles import (dense_kernel, goal_reachable_reference, grid_ascii_reference,
                     grid_to_cmdp_reference, quadratic_stream)

CMDP_ARRAYS = ("reward", "costs", "limits", "initial_dist")


def assert_same_cmdp(a, b):
    """Every field equal, the arrays and the dense kernels bit for bit."""
    for name in CMDP_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    x, y = dense_kernel(a.kernel), dense_kernel(b.kernel)
    assert x.shape == y.shape and x.tobytes() == y.tobytes(), "kernel"
    assert a.discount == b.discount and a.c_max == b.c_max


def grid_family(rows, cols, rng):
    """All frozen, holes along every border (start and goal kept frozen, or
    not), and random bitmaps at frozen probability 0.3 and 0.7."""
    border = np.ones((rows, cols), dtype=bool)
    border[[0, -1]] = border[:, [0, -1]] = False
    kept = border.copy()
    kept[0, 0] = kept[-1, -1] = True
    return [np.ones((rows, cols), dtype=bool), border, kept,
            rng.random((rows, cols)) < 0.3, rng.random((rows, cols)) < 0.7]


SIZES = [(n, n) for n in range(2, 17)] + [(2, 7), (7, 2), (3, 5)]


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            GridSpec(rows=1)
        with pytest.raises(InvalidInput):
            GridSpec(frozen_prob=1.5)

    @pytest.mark.parametrize("field,value", [
        ("rows", 4.0), ("rows", True), ("rows", "4"), ("cols", 1), ("cols", 3.5),
        ("seed", -1), ("seed", True), ("seed", 2.0), ("seed", None)])
    def test_counts_refused_when_built(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            GridSpec(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        spec = GridSpec(rows=np.int64(3), cols=np.uint8(5), seed=np.uint32(7))
        assert (spec.rows, spec.cols, spec.seed) == (3, 5, 7)

    def test_negative_goal_reward_is_named(self):
        with pytest.raises(InvalidInput, match="goal_reward"):
            GridSpec(goal_reward=-0.5)

    def test_negative_hole_cost_is_named(self):
        with pytest.raises(InvalidInput, match="hole_cost"):
            GridSpec(hole_cost=-1.0)


class TestGridToCmdp:
    def test_all_frozen_2x2(self):
        spec = GridSpec(rows=2, cols=2)
        frozen = np.ones((2, 2), dtype=bool)
        cmdp = grid_to_cmdp(frozen, spec)
        assert cmdp.n_states == 5 and cmdp.n_actions == 4
        transition = dense_kernel(cmdp.kernel)
        # goal (state 3) and the absorbing state (4) absorb
        assert np.all(transition[3, :, 4] == 1.0)
        assert np.all(transition[4, :, 4] == 1.0)
        # from (1,0): action right goes to the goal w.p. 2/3, so the
        # expected reward is 2 * 2/3
        assert abs(cmdp.reward[2, 3] - 4.0 / 3.0) < 1e-12
        # no holes means zero cost everywhere
        assert np.all(cmdp.costs == 0.0)
        assert cmdp.c_max == 2.0

    def test_hole_costs(self):
        spec = GridSpec(rows=2, cols=2)
        frozen = np.array([[True, False], [True, True]])
        cmdp = grid_to_cmdp(frozen, spec)
        # from start, action right lands in the hole (state 1) w.p. 2/3
        assert abs(cmdp.costs[0, 0, 3] - 2.0 / 3.0) < 1e-12
        # hole state itself absorbs without further cost
        assert np.all(cmdp.costs[0, 1] == 0.0)

    def test_slip_distribution(self):
        spec = GridSpec(rows=3, cols=3)
        frozen = np.ones((3, 3), dtype=bool)
        transition = dense_kernel(grid_to_cmdp(frozen, spec).kernel)
        # center cell (state 4), action up: 2/3 to state 1, 1/6 each to 3 and 5
        assert abs(transition[4, 0, 1] - 2.0 / 3.0) < 1e-12
        assert abs(transition[4, 0, 3] - 1.0 / 6.0) < 1e-12
        assert abs(transition[4, 0, 5] - 1.0 / 6.0) < 1e-12

    def test_edge_clipping(self):
        spec = GridSpec(rows=2, cols=2)
        frozen = np.ones((2, 2), dtype=bool)
        transition = dense_kernel(grid_to_cmdp(frozen, spec).kernel)
        # from start, action up clips in place with the non-slip mass
        assert transition[0, 0, 0] >= 2.0 / 3.0 - 1e-12


class TestGridToCmdpMatchesTheLoop:
    """The array build against the per-cell += loop, bit for bit."""

    @pytest.mark.parametrize("rows, cols", SIZES)
    def test_grid_family(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        for frozen in grid_family(rows, cols, rng):
            specs = [GridSpec(rows=rows, cols=cols, slip_prob=slip)
                     for slip in (0.0, 0.2, 1.0 / 3.0, 1.0)]
            specs += [GridSpec(rows=rows, cols=cols, slip_prob=0.2, goal_reward=0.0),
                      GridSpec(rows=rows, cols=cols, slip_prob=0.2, hole_cost=0.0)]
            for spec in specs:
                assert_same_cmdp(grid_to_cmdp(frozen, spec),
                                 grid_to_cmdp_reference(frozen, spec))


class TestReachability:
    def test_matches_the_tuple_search(self):
        rng = np.random.default_rng(8)
        reachable = 0
        for _ in range(2000):
            rows, cols = (int(n) for n in rng.integers(2, 12, size=2))
            frozen = rng.random((rows, cols)) < rng.random()
            if rng.random() < 0.5:
                frozen[0, 0] = frozen[-1, -1] = True
            expected = goal_reachable_reference(frozen, rows, cols)
            assert _goal_reachable(frozen, rows, cols) == expected
            reachable += expected
        assert 200 < reachable < 1800   # both answers well represented

    def test_blocked_goal(self):
        frozen = np.array([[True, False], [False, True]])
        assert not _goal_reachable(frozen, 2, 2)

    def test_open_goal(self):
        assert _goal_reachable(np.ones((2, 2), dtype=bool), 2, 2)

    def test_move_tables_are_built_once_and_read_only(self):
        tables = taskgen._shape_tables(3, 4)
        assert taskgen._shape_tables(3, 4) is tables
        assert tables.moves[5] == (1, 9, 4, 6)   # cell (1, 1): up, down, left, right
        assert tables.outcomes.shape == (13, 4, 3)
        assert tables.outcomes[5].tolist() == [[1, 4, 6], [9, 4, 6],
                                               [4, 1, 9], [6, 1, 9]]
        with pytest.raises(ValueError, match="read-only"):
            tables.outcomes[0, 0, 0] = 5
        with pytest.raises(TypeError):
            tables.moves[0][0] = 5

    def test_generation_failure(self):
        with pytest.raises(GenerationFailure, match="no reachable 2x3 grid at "
                           "frozen_prob 0.0312 in 5 attempts"):
            gen_grid(GridSpec(rows=2, cols=3, frozen_prob=0.03125), max_attempts=5)


class TestGenFrozenLake:
    def test_deterministic_and_solvable(self):
        spec = GridSpec(seed=7)
        a = gen_frozen_lake(spec)
        b = gen_frozen_lake(spec)
        assert a.to_json() == b.to_json()
        sol = solve_optimal_lp(a)
        assert sol.feasible
        assert sol.objective_values[0] > 0.0

    def test_uniform_policy_objectives_bounded(self):
        cmdp = gen_frozen_lake(GridSpec(seed=1))
        pol = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
        j0, j1 = all_objectives(cmdp, pol)
        assert 0.0 <= j0 <= cmdp.c_max / (1 - cmdp.discount)
        assert 0.0 <= j1 <= cmdp.c_max / (1 - cmdp.discount)


class TestTaskSequence:
    def test_high_similarity_one_cell_flips(self):
        cfg = TaskSequenceConfig(mode="HighSimilarity", num_tasks=6,
                                 base=GridSpec(seed=3), seed=11)
        cmdps, grids, manifest = gen_task_sequence(cfg)
        assert len(cmdps) == 6
        flips = set()
        for g in grids[1:]:
            diff = np.argwhere(g != grids[0])
            assert diff.shape[0] == 1
            flips.add(tuple(diff[0]))
            assert _goal_reachable(g, 4, 4)
        assert len(flips) == 5  # all distinct
        assert manifest["mode"] == "HighSimilarity"
        assert manifest["tasks"][0]["flip"] is None
        assert manifest["tasks"][1]["flip"] is not None

    def test_low_similarity_prob_range(self):
        cfg = TaskSequenceConfig(mode="LowSimilarity", num_tasks=5,
                                 base=GridSpec(seed=3), seed=11,
                                 low_sim_prob_range=(0.4, 0.6))
        cmdps, grids, manifest = gen_task_sequence(cfg)
        for task in manifest["tasks"]:
            assert 0.4 <= task["frozen_prob"] <= 0.6

    def test_low_similarity_failure_names_its_task_and_range(self):
        """At 16x16 the default range can draw a frozen probability at which
        no reachable grid turns up; the error says which task and range."""
        cfg = TaskSequenceConfig(mode="LowSimilarity", num_tasks=11,
                                 base=GridSpec(rows=16, cols=16, seed=4), seed=9)
        with pytest.raises(GenerationFailure) as info:
            gen_task_sequence(cfg)
        assert str(info.value) == (
            "LowSimilarity task 0 of 11: no reachable 16x16 grid at frozen_prob "
            "0.406 in 100 attempts; low_sim_prob_range is (0.3, 0.7)")
        assert isinstance(info.value.__cause__, GenerationFailure)

    @pytest.mark.parametrize("mode,spawned", [("HighSimilarity", [1]),
                                              ("LowSimilarity", [1, 4])])
    def test_spawns_only_the_child_seeds_it_reads(self, monkeypatch, mode, spawned):
        counts = []

        class Recording(np.random.SeedSequence):
            def spawn(self, n_children):
                counts.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(taskgen.np.random, "SeedSequence", Recording)
        gen_task_sequence(TaskSequenceConfig(mode=mode, num_tasks=4,
                                             base=GridSpec(seed=3), seed=11))
        assert counts == spawned

    def test_low_similarity_grids_use_children_1_to_n(self):
        """The frozen probabilities are drawn from child 0 and grid t from
        child t + 1 of spawn(num_tasks + 1), as when all the children were
        spawned at once."""
        cfg = TaskSequenceConfig(mode="LowSimilarity", num_tasks=4,
                                 base=GridSpec(seed=3), seed=11)
        _, grids, manifest = gen_task_sequence(cfg)
        children = np.random.SeedSequence(11).spawn(5)
        rng = np.random.default_rng(children[0])
        lo, hi = cfg.low_sim_prob_range
        for grid, task, child in zip(grids, manifest["tasks"], children[1:], strict=True):
            prob = float(lo + (hi - lo) * rng.random())
            assert task["frozen_prob"] == prob
            spec = GridSpec(**{**cfg.base.__dict__, "frozen_prob": prob,
                               "seed": int(child.generate_state(1)[0])})
            assert np.array_equal(grid, gen_grid(spec))

    @pytest.mark.parametrize("prob_range", [
        (0.8, 0.2), (0.5, 1.5), (-0.1, 0.5), (0.2,), (0.1, 0.2, 0.3),
        (np.nan, 0.5), ("0.1", "0.2"), (False, True), 0.5, None])
    def test_prob_range_rejected_when_built(self, prob_range):
        with pytest.raises(InvalidInput, match="low_sim_prob_range"):
            TaskSequenceConfig(mode="LowSimilarity", num_tasks=2,
                               low_sim_prob_range=prob_range)

    @pytest.mark.parametrize("field,value", [
        ("num_tasks", 0), ("num_tasks", 2.5), ("num_tasks", True),
        ("num_tasks", "3"), ("seed", -1), ("seed", True), ("seed", 1.0)])
    def test_counts_refused_when_built(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            TaskSequenceConfig(**{"mode": "HighSimilarity", "num_tasks": 2,
                                  field: value})

    def test_prob_range_edges_accepted(self):
        for prob_range in ([0.0, 0.0], (1.0, 1.0), (0, 1)):
            cfg = TaskSequenceConfig(mode="LowSimilarity", num_tasks=2,
                                     low_sim_prob_range=prob_range)
            assert cfg.low_sim_prob_range == tuple(prob_range)

    def test_from_dict_leaves_absent_keys_to_the_dataclass(self):
        doc = {"mode": "LowSimilarity", "num_tasks": 2}
        assert TaskSequenceConfig.from_dict(doc) == TaskSequenceConfig(**doc)
        cfg = TaskSequenceConfig.from_dict({**doc, "base": {"rows": 3},
                                            "low_sim_prob_range": [0.5, 0.5]})
        assert cfg.base == GridSpec(rows=3)
        assert cfg.low_sim_prob_range == (0.5, 0.5)

    def test_too_many_tasks(self):
        cfg = TaskSequenceConfig(mode="HighSimilarity", num_tasks=16,
                                 base=GridSpec(seed=3), seed=0)
        with pytest.raises(InvalidInput):
            gen_task_sequence(cfg)

    def test_write_load_round_trip(self, tmp_path):
        cfg = TaskSequenceConfig(mode="HighSimilarity", num_tasks=3,
                                 base=GridSpec(seed=5), seed=2)
        written = write_task_sequence(cfg, str(tmp_path))
        assert os.path.exists(tmp_path / "manifest.json")
        loaded = load_task_sequence(str(tmp_path))
        assert len(loaded) == 3
        for a, b in zip(written, loaded):
            assert a.to_json() == b.to_json()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["num_tasks"] == 3

    def test_malformed_task_file_is_named(self, tmp_path):
        cfg = TaskSequenceConfig(mode="HighSimilarity", num_tasks=2,
                                 base=GridSpec(seed=5), seed=2)
        write_task_sequence(cfg, str(tmp_path))
        path = tmp_path / "task_001.json"
        doc = json.loads(path.read_text())
        doc["kernel"]["prob"][0][0][0] += 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInput, match=f"^{re.escape(str(path))}: "
                           "transition rows must sum to 1$"):
            load_task_sequence(str(tmp_path))

    @pytest.mark.parametrize("mode", ["HighSimilarity", "LowSimilarity"])
    def test_same_sequence_as_the_references(self, mode, monkeypatch, tmp_path):
        # a 16x16 grid below frozen probability 0.7 rarely reaches its goal
        for base, prob_range in [(GridSpec(rows=5, cols=6, seed=4), (0.3, 0.7)),
                                 (GridSpec(rows=16, cols=16, seed=4), (0.7, 0.9))]:
            cfg = TaskSequenceConfig(mode=mode, num_tasks=6, base=base,
                                     low_sim_prob_range=prob_range, seed=9)
            with monkeypatch.context() as patch:
                self._assert_same_sequence(cfg, patch, tmp_path / f"{base.rows}")

    @staticmethod
    def _assert_same_sequence(cfg, monkeypatch, out):
        cmdps, grids, manifest = gen_task_sequence(cfg)
        write_task_sequence(cfg, str(out / "array"))
        monkeypatch.setattr(taskgen, "grid_to_cmdp", grid_to_cmdp_reference)
        monkeypatch.setattr(taskgen, "_goal_reachable", goal_reachable_reference)
        monkeypatch.setattr(taskgen, "grid_ascii", grid_ascii_reference)
        ref_cmdps, ref_grids, ref_manifest = gen_task_sequence(cfg)
        write_task_sequence(cfg, str(out / "loop"))
        for a, b in zip(cmdps, ref_cmdps, strict=True):
            assert_same_cmdp(a, b)
        for a, b in zip(grids, ref_grids, strict=True):
            assert np.array_equal(a, b)
        assert manifest == ref_manifest
        names = sorted(os.listdir(out / "loop"))
        assert sorted(os.listdir(out / "array")) == names
        assert len(names) == 7
        for name in names:
            assert (out / "array" / name).read_bytes() \
                == (out / "loop" / name).read_bytes()

    def test_grid_ascii(self):
        frozen = np.array([[True, False], [True, True]])
        assert grid_ascii(frozen) == ["SH", ".G"]
        frozen = np.array([[False, True, False, True],
                           [True, False, True, True],
                           [True, True, True, False]])
        assert grid_ascii(frozen) == ["S.H.", ".H..", "...G"]
        rng = np.random.default_rng(5)
        for rows, cols in [(1, 1), (1, 3), (3, 1)] + SIZES:
            frozen = rng.random((rows, cols)) < 0.5
            assert grid_ascii(frozen) == grid_ascii_reference(frozen)


class TestSyntheticStreams:
    def test_quadratic_stream_consistency(self):
        stream = quadratic_stream(dim=3, t_tasks=8, lam=2.0, drift=0.3, seed=4)
        prev = None
        for target, loss, grad in stream:
            assert loss(target) == 0.0
            assert np.allclose(grad(target), 0.0)
            x = np.array([1.0, -2.0, 0.5])
            assert abs(loss(x) - np.sum((x - target) ** 2)) < 1e-12
            assert np.allclose(grad(x), 2.0 * (x - target))
            if prev is not None:
                assert np.linalg.norm(target - prev) <= 0.3 + 1e-12
            prev = target
