from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasrl.cmdp import (SoftmaxPolicy, TabularCmdp, all_objectives,
                          visitation_exact)
from metasrl import lp
from metasrl.errors import NumericalFailure
from metasrl.harness import solve_oracles
from metasrl.lp import simplex_solve, solve_optimal_lp
from metasrl.taskgen import (GridSpec, TaskSequenceConfig, gen_frozen_lake,
                             gen_task_sequence)

from oracles import (occupancy_lp_reference, pivot_reference, random_cmdp,
                     run_simplex_reference, value_iteration)


class TestSimplexSolve:
    def test_tiny_lp(self):
        # min -x - y s.t. x + y <= 1, x,y >= 0 (phrased with a slack row)
        x, duals, gap = simplex_solve(
            np.array([-1.0, -1.0, 0.0]),
            np.array([[1.0, 1.0, 1.0]]),
            np.array([1.0]))
        assert abs(x[0] + x[1] - 1.0) < 1e-12
        assert gap <= 1e-8

    def test_equality_and_inequality(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 1, x1 <= 0.3
        x, duals, gap = simplex_solve(
            np.array([1.0, 2.0]),
            np.array([[1.0, 1.0]]), np.array([1.0]),
            np.array([[1.0, 0.0]]), np.array([0.3]))
        assert np.allclose(x, [0.3, 0.7], atol=1e-10)
        assert gap <= 1e-8


class TestSolveOptimalLp:
    def test_single_action_is_policy_evaluation(self):
        rng = np.random.default_rng(0)
        transition = rng.dirichlet(np.ones(4), size=(4, 1))
        cmdp = TabularCmdp(kernel=(np.arange(len(transition)), transition),
                           reward=rng.random((4, 1)),
                           costs=rng.random((1, 4, 1)),
                           limits=np.array([1e9]),
                           discount=0.9,
                           initial_dist=rng.dirichlet(np.ones(4)),
                           c_max=1.0)
        sol = solve_optimal_lp(cmdp)
        pol = SoftmaxPolicy.uniform(4, 1)
        assert sol.feasible
        assert abs(sol.objective_values[0]
                   - all_objectives(cmdp, pol)[0]) < 1e-8

    def test_unconstrained_matches_value_iteration(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cmdp = random_cmdp(rng)
            relaxed = TabularCmdp(
                kernel=cmdp.kernel, reward=cmdp.reward,
                costs=cmdp.costs, limits=np.array([cmdp.infinite_limit()]),
                discount=cmdp.discount, initial_dist=cmdp.initial_dist,
                c_max=1.0)
            sol = solve_optimal_lp(relaxed)
            assert abs(sol.objective_values[0] - value_iteration(relaxed)) < 1e-6
            assert sol.duality_gap <= 1e-8

    def test_infeasible_detected(self):
        rng = np.random.default_rng(3)
        base = random_cmdp(rng)
        cmdp = TabularCmdp(kernel=base.kernel, reward=base.reward,
                           costs=np.ones((1, 4, 3)), limits=np.array([0.0]),
                           discount=base.discount,
                           initial_dist=base.initial_dist, c_max=1.0)
        sol = solve_optimal_lp(cmdp)
        assert not sol.feasible
        assert sol.policy is None and sol.visitation is None

    def test_solution_is_feasible_and_consistent(self):
        rng = np.random.default_rng(4)
        cmdp = random_cmdp(rng, n_costs=2, feasible_margin=0.05)
        sol = solve_optimal_lp(cmdp)
        assert sol.feasible
        vals = all_objectives(cmdp, sol.policy)
        assert np.max(np.abs(vals - sol.objective_values)) < 1e-7
        assert np.all(sol.objective_values[1:] <= cmdp.limits + 1e-8)
        vis = visitation_exact(cmdp, sol.policy)
        assert np.max(np.abs(vis.nu - sol.visitation.nu)) < 1e-8

    def test_dominates_random_policies(self):
        rng = np.random.default_rng(5)
        cmdp = random_cmdp(rng, feasible_margin=0.1)
        sol = solve_optimal_lp(cmdp)
        best = sol.objective_values[0]
        for _ in range(1000):
            pol = SoftmaxPolicy(logits=2.0 * rng.standard_normal((4, 3)))
            vals = all_objectives(cmdp, pol)
            if np.all(vals[1:] <= cmdp.limits + 1e-10):
                assert vals[0] <= best + 1e-7

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_optimality_property(self, seed):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, n_states=int(rng.integers(2, 5)),
                           feasible_margin=float(rng.random() * 0.2))
        sol = solve_optimal_lp(cmdp)
        assert sol.feasible and sol.duality_gap <= 1e-8
        assert np.all(sol.objective_values[1:] <= cmdp.limits + 1e-8)
        # uniform policy is feasible by construction, so it is a lower bound
        uni = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
        assert all_objectives(cmdp, uni)[0] <= sol.objective_values[0] + 1e-7


def check_grid_against_highs(size, seed):
    cmdp = gen_frozen_lake(GridSpec(rows=size, cols=size, seed=seed))
    sol = solve_oracles([cmdp])[0]
    assert abs(sol.objective_values[0] - occupancy_lp_reference(cmdp)) <= 1e-8


class TestGridworldOracle:
    """The oracle on the gridworlds, checked against HiGHS. The dense simplex
    still fails on some grids; each such grid is a strict xfail, so a fix
    that solves it shows up as an unexpected pass."""

    @pytest.mark.parametrize("size, seed", [(4, 0), (5, 0), (6, 0)])
    def test_matches_highs(self, size, seed):
        check_grid_against_highs(size, seed)

    @pytest.mark.xfail(strict=True, raises=NumericalFailure,
                       reason="re-validation: J_0 off by 1.1e-5")
    def test_5x5_seed_27(self):
        check_grid_against_highs(5, 27)

    @pytest.mark.xfail(strict=True, raises=NumericalFailure,
                       reason="LP is unbounded")
    def test_5x5_seed_39(self):
        check_grid_against_highs(5, 39)

    @pytest.mark.xfail(strict=True, raises=NumericalFailure,
                       reason="LP is unbounded")
    def test_6x6_seed_3(self):
        check_grid_against_highs(6, 3)


def lp_outcome(cmdp):
    """Every array of the LP oracle's solution, or its failure."""
    try:
        sol = solve_optimal_lp(cmdp)
    except NumericalFailure as exc:
        return ("failed", str(exc), exc.best_bound)
    if not sol.feasible:
        return ("infeasible",)
    return (sol.policy.probs, sol.visitation.nu, sol.objective_values,
            np.array(sol.duality_gap))


def lp_cases():
    cases = [random_cmdp(np.random.default_rng(seed), n_costs=1 + seed % 2,
                         feasible_margin=0.05 * (seed % 3)) for seed in range(6)]
    base = random_cmdp(np.random.default_rng(3))
    cases.append(TabularCmdp(kernel=base.kernel, reward=base.reward,
                             costs=np.ones((1, 4, 3)), limits=np.array([0.0]),
                             discount=base.discount,
                             initial_dist=base.initial_dist, c_max=1.0))
    cases += [gen_frozen_lake(GridSpec(rows=n, cols=n, seed=seed))
              for n, seed in [(4, 0), (5, 0), (5, 27), (5, 39), (6, 3)]]
    # a test_09 training task (the sweep's own LPs) and a larger solved grid
    test09 = TaskSequenceConfig(mode="HighSimilarity", num_tasks=11,
                                base=GridSpec(seed=2), seed=2)
    cases.append(gen_task_sequence(test09)[0][5])
    cases.append(gen_frozen_lake(GridSpec(rows=6, cols=6, seed=0)))
    return [pytest.param(c, id=f"lp{k}") for k, c in enumerate(cases)]


class TestVectorisedSimplex:
    @pytest.mark.parametrize("cmdp", lp_cases())
    def test_matches_row_by_row_simplex_bit_for_bit(self, monkeypatch, cmdp):
        got = lp_outcome(cmdp)
        monkeypatch.setattr(lp, "_pivot", pivot_reference)
        monkeypatch.setattr(lp, "_run_simplex", partial(
            run_simplex_reference, pivot_tol=lp.PIVOT_TOL, max_iter=lp.MAX_ITER))
        ref = lp_outcome(cmdp)
        assert len(got) == len(ref)
        for x, y in zip(got, ref):
            assert type(x) is type(y)
            if isinstance(x, np.ndarray):
                assert np.array_equal(x.view(np.int64), y.view(np.int64))
            else:
                assert x == y
