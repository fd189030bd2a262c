"""The sweep result's arrays, its learning-curve reduction and its record
view."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasrl.harness import _csv
from metasrl.results import RunRecord, SweepResult

from oracles import curve_rows_reference

FAILED = "RuntimeError: run failed"


def random_result(rng, n_strategies, n_runs, n_tasks, n_train, steps, p,
                  fail_prob=0.0, nan_prob=0.0):
    """A result over random magnitudes from 1e-3 to 1e3, with a share of
    failed cells (NaN, with an error) and of NaN entries in successful runs."""
    result = SweepResult.allocate(
        [f"S{i}" for i in range(n_strategies)], n_runs, steps,
        limits=rng.uniform(size=(n_tasks, p)), optima=rng.uniform(size=n_train))
    shape = result.curves.shape
    result.curves[...] = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    result.curves[rng.random(shape) < nan_prob] = np.nan
    fail_cells(result, rng.random(result.errors.shape) < fail_prob)
    return result


def fail_cells(result, failed):
    """Mark the cells of the (N, R, T) mask failed, as `run_experiment`
    leaves them, and set every cell's returned J to its last iterate's."""
    result.errors[failed] = FAILED
    result.curves[failed] = np.nan
    result.returned[...] = result.curves[..., -1, :]


def curve_tables(result):
    """{strategy: (reduction CSV, reference CSV)}: the curve table of the
    arrays and the one grouped record by record from the view."""
    p = result.curves.shape[-1] - 1
    header = ["task", "is_test", "step"] + [f"c{i}" for i in range(3 * (p + 1))]
    return {name: (_csv(header, result.curve_rows(s)),
                   _csv(header, curve_rows_reference(list(result), name, p)))
            for s, name in enumerate(result.strategies)}


@pytest.mark.parametrize("n_ok", [1, 2, 8, 9, 10])
def test_curve_table_matches_the_reference_over_n_successful_runs(n_ok):
    """n_ok of 10 runs succeed on each task, a different set a task; 8 or
    more reach numpy's 8-way pairwise sum."""
    rng = np.random.default_rng(n_ok)
    result = random_result(rng, 2, 10, n_tasks=4, n_train=3, steps=6, p=2)
    failed = np.zeros(result.errors.shape, dtype=bool)
    for s in range(2):
        for t in range(4):
            failed[s, rng.choice(10, 10 - n_ok, replace=False), t] = True
    fail_cells(result, failed)
    for reduction, reference in curve_tables(result).values():
        assert reduction == reference
        assert len(reduction.splitlines()) == 1 + 4 * 6


def test_curve_table_skips_a_task_no_run_finished_and_keeps_nan_runs():
    rng = np.random.default_rng(5)
    result = random_result(rng, 3, 4, n_tasks=3, n_train=2, steps=2, p=1)
    failed = np.zeros(result.errors.shape, dtype=bool)
    failed[0, :, 1] = True                  # every run of task 1 failed
    failed[1, [0, 2], 2] = True             # two runs of the held-out task
    failed[2, 3, 0] = True
    result.curves[1, 1, 0, 1, 0] = np.nan   # a successful run's NaN
    fail_cells(result, failed)
    tables = curve_tables(result)
    for reduction, reference in tables.values():
        assert reduction == reference
    rows = [line.split(",") for line in tables["S0"][0].splitlines()[1:]]
    assert [row[:3] for row in rows] == [["0", "0", "0"], ["0", "0", "1"],
                                         ["2", "1", "0"], ["2", "1", "1"]]
    rows = tables["S1"][0].splitlines()[1:]
    assert rows[1].split(",")[3:6] == ["nan"] * 3 and "nan" not in rows[0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_strategies=st.integers(1, 3),
       n_runs=st.integers(1, 12), n_tasks=st.integers(1, 4),
       holdout=st.booleans(), steps=st.integers(1, 4), p=st.integers(0, 2),
       fail_prob=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
       nan_prob=st.sampled_from([0.0, 0.05]))
def test_curve_table_matches_the_reference(seed, n_strategies, n_runs, n_tasks,
                                           holdout, steps, p, fail_prob, nan_prob):
    result = random_result(np.random.default_rng(seed), n_strategies, n_runs,
                           n_tasks, n_tasks - holdout, steps, p, fail_prob, nan_prob)
    for reduction, reference in curve_tables(result).values():
        assert reduction == reference


class TestRecordView:
    def result(self):
        rng = np.random.default_rng(0)
        result = random_result(rng, 2, 3, n_tasks=3, n_train=2, steps=4, p=2)
        failed = np.zeros(result.errors.shape, dtype=bool)
        failed[1, 2, 0] = failed[0, 1, 2] = True
        fail_cells(result, failed)
        result.degenerate[0, 0, 1] = True
        result.wall_clock[...] = rng.uniform(size=result.wall_clock.shape)
        return result

    def test_records_in_strategy_run_task_order(self):
        result = self.result()
        records = list(result)
        assert len(result) == len(records) == 2 * 3 * 3
        assert [(r.strategy, r.run, r.task_index) for r in records] == [
            (name, run, t) for name in ("S0", "S1") for run in range(3)
            for t in range(3)]
        assert all(isinstance(r, RunRecord) for r in records)
        assert (result[-1].strategy, result[-1].run, result[-1].task_index) \
            == ("S1", 2, 2)
        assert (result[4].strategy, result[4].run, result[4].task_index) \
            == ("S0", 1, 1)
        with pytest.raises(IndexError):
            result[len(result)]

    def test_record_fields_read_the_arrays(self):
        result = self.result()
        for k, rec in enumerate(result):
            cell = np.unravel_index(k, result.errors.shape)
            t = cell[2]
            assert np.array_equal(rec.per_step_reward, result.curves[cell][:, 0],
                                  equal_nan=True)
            assert np.array_equal(rec.per_step_costs, result.curves[cell][:, 1:],
                                  equal_nan=True)
            assert np.array_equal(rec.final_objectives, result.returned[cell],
                                  equal_nan=True)
            assert rec.is_test == (t == 2)
            gap = np.nan if rec.is_test else result.optima[t] - result.returned[cell][0]
            assert np.array_equal(rec.taog_contribution, gap, equal_nan=True)
            assert np.array_equal(rec.tacv_contribution,
                                  result.returned[cell][1:] - result.limits[t],
                                  equal_nan=True)
            assert rec.degenerate == (cell == (0, 0, 1))
            assert rec.error == (FAILED if cell in [(1, 2, 0), (0, 1, 2)] else None)
            assert rec.wall_clock == result.wall_clock[cell]

    def test_view_is_read_only(self):
        result = self.result()
        rec = result[0]
        for values in (rec.per_step_reward, rec.per_step_costs, rec.final_objectives):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        with pytest.raises(AttributeError):
            rec.error = "changed"
        assert not hasattr(result, "append")
        assert result.curves.flags.writeable     # the arrays stay the store

    def test_ok_is_no_error_not_finite_numbers(self):
        result = self.result()
        result.curves[0, 0, 0] = np.nan
        assert result.ok[0, 0, 0]
        assert result.ok.sum() == len(result) - 2
