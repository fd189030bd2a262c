import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasrl import cmdp as cmdp_module, crpo
from metasrl.cmdp import (SoftmaxPolicy, TablePolicy, TabularCmdp,
                          all_objectives, policy_evaluation_exact)
from metasrl.crpo import (CrpoConfig, CrpoOutcome, npg_softmax_step, run_crpo,
                          sample_episode, td_critic)
from metasrl.errors import DegenerateRun, InvalidInput, NumericalFailure, SamplerError
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import GridSpec, gen_frozen_lake, gen_task_sequence

from oracles import (lstd_q_reference, policy_evaluation_reference,
                     random_cmdp, sample_episode_reference)
from test_acceptance import TEST09_CONFIG


class TestCrpoConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf), ("learning_rate", 0.0),
        ("tolerance", np.nan), ("tolerance", -0.01),
        ("td_iterations", -1), ("td_iterations", 10.0),
        ("steps", 8.5), ("steps", 8.0), ("steps", 0),
        ("episodes_per_step", 0), ("episode_horizon", 2.0),
        ("rng_seed", -1), ("rng_seed", True), ("rng_seed", 3.0)])
    def test_rejected_when_built(self, field, value):
        with pytest.raises(InvalidInput, match=field):
            CrpoConfig(**{field: value})

    def test_edge_values_accepted(self):
        CrpoConfig(tolerance=0.0, td_iterations=0, steps=np.int64(3),
                   episode_horizon=1)
        CrpoConfig(tolerance=np.inf)   # every step a reward step

    def test_td_sampled_critic_needs_a_chain(self):
        """With no chain steps the TdSampled critic would read Q = 0 and
        leave the policy where it starts."""
        CrpoConfig(critic_mode="TdSampled", td_iterations=1)
        with pytest.raises(InvalidInput, match="^td_iterations must be >= 1"):
            CrpoConfig(critic_mode="TdSampled", td_iterations=0)


class TestNpgStep:
    def test_zero_q_is_identity(self):
        logits = np.array([[0.3, -0.2]])
        out = npg_softmax_step(logits, np.zeros((1, 2)), 0.1 / (1 - 0.9))
        assert np.array_equal(out, logits)

    def test_ascent_descent_signs(self):
        logits = np.zeros((1, 2))
        q = np.array([[1.0, 0.0]])
        step = 0.5 / (1 - 0.5)
        up = npg_softmax_step(logits, q, step)
        down = npg_softmax_step(logits, q, -step)
        assert np.allclose(up, [[1.0, 0.0]])    # 0.5/(1-0.5) = 1
        assert np.allclose(down, [[-1.0, 0.0]])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["ascent", "descent"])
    def test_signed_step_is_the_plain_update(self, sign):
        """Bit for bit logits + step * q, and the same bits as the
        sign * (alpha / (1 - gamma)) step the direction names used to form."""
        rng = np.random.default_rng(12)
        logits, q = rng.standard_normal((2, 5, 3))
        alpha, gamma = 0.7, 0.95
        step = alpha / (1 - gamma)
        out = npg_softmax_step(logits, q, sign * step)
        assert out.tobytes() == (logits + (sign * step) * q).tobytes()
        assert out.tobytes() == (logits + sign * (alpha / (1.0 - gamma)) * q).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_q(self, bad):
        q = np.zeros((2, 2))
        q[1, 0] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            npg_softmax_step(np.zeros((2, 2)), q, 1.0)

    def test_ascent_increases_greedy_mass(self):
        cmdp = random_cmdp(np.random.default_rng(0))
        pol = SoftmaxPolicy.uniform(4, 3)
        q = policy_evaluation_exact(cmdp, pol.probs)[1][0]
        new = SoftmaxPolicy(logits=npg_softmax_step(pol.logits, q,
                                                    0.5 / (1 - cmdp.discount)))
        greedy = q.argmax(axis=1)
        assert np.all(new.probs[np.arange(4), greedy]
                      >= pol.probs[np.arange(4), greedy])


class TestTdCritic:
    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 3)], ids=["extra-action", "stack"])
    def test_refuses_table_of_wrong_shape(self, shape):
        cmdp = random_cmdp(np.random.default_rng(1))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInput, match="shape"):
            td_critic(cmdp, np.full(shape, 1.0 / shape[-1]), 10, 50, rng)
        # refused before its chain is drawn
        assert _same_state(rng, np.random.default_rng(0))

    def _long_chain(self):
        cmdp = random_cmdp(np.random.default_rng(2), n_states=3, n_actions=2)
        pol = SoftmaxPolicy.uniform(3, 2)
        _, q = td_critic(cmdp, pol.probs, 400_000, 40, np.random.default_rng(3))
        return q, policy_evaluation_exact(cmdp, pol.probs)[1]

    def test_sampled_mode_converges(self):
        q, exact = self._long_chain()
        assert np.max(np.abs(q[0] - exact[0])) < 0.15

    def test_cost_critic_converges_on_the_shared_chain(self):
        q, exact = self._long_chain()
        assert q.shape == (2, 3, 2)
        assert np.max(np.abs(q[1] - exact[1])) < 0.15


def _chain_steps(chain, a_n, k):
    """The first k (s, a) -> (s', a') steps of a chain of reset segments,
    read one row and one step at a time."""
    steps = []
    for row in chain.tolist():
        for j in range(0, len(row) - 2, 2):
            steps.append((row[j] * a_n + row[j + 1], row[j + 2] * a_n + row[j + 3]))
    return steps[:k]


class TestLstdCritic:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 400), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_batch_td_residual_vanishes(self, seed, iterations, horizon):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, n_states=5, n_costs=2)
        # any indices will do: the estimator reads the steps, not the kernel
        rows = iterations // max(2, horizon) + 1
        chain = np.empty((rows, 2 + 2 * max(2, horizon)), dtype=np.intp)
        chain[:, ::2] = rng.integers(cmdp.n_states, size=chain[:, ::2].shape)
        chain[:, 1::2] = rng.integers(cmdp.n_actions, size=chain[:, 1::2].shape)
        q = crpo._td_q(cmdp, chain, iterations).reshape(cmdp.n_costs + 1, -1)
        c = cmdp.objective_tables.reshape(cmdp.n_costs + 1, -1)
        residual = np.zeros_like(q)
        visited = np.zeros(q.shape[1], dtype=bool)
        for i, j in _chain_steps(chain, cmdp.n_actions, iterations):
            residual[:, i] += c[:, i] + cmdp.discount * q[:, j] - q[:, i]
            visited[i] = True
        assert np.abs(residual).max() <= 1e-10
        assert np.all(q[:, ~visited] == 0.0)

    def test_no_iterations_give_zero_tables(self):
        cmdp = random_cmdp(np.random.default_rng(4), n_costs=2)
        v, q = td_critic(cmdp, SoftmaxPolicy.uniform(4, 3).probs, 0, 50,
                         np.random.default_rng(0))
        assert v.shape == (3, 4) and q.shape == (3, 4, 3)
        assert np.all(q == 0.0) and np.all(v == 0.0)

    def test_objectives_near_exact_on_test09_tasks(self):
        """J_0 and J_1 read off the LSTD(0) tables, against the exact ones:
        11 tasks x {uniform, one random softmax} x 5 chains. Plain TD(0) with
        step size 0.1 misses J_1 by a median of about 0.18 here."""
        tasks = gen_task_sequence(TEST09_CONFIG.task_source)[0]
        cfg = replace(TEST09_CONFIG.crpo, critic_mode="TdSampled")
        errors = []
        for t, cmdp in enumerate(tasks):
            shape = (cmdp.n_states, cmdp.n_actions)
            policies = (SoftmaxPolicy.uniform(*shape),
                        SoftmaxPolicy(logits=np.random.default_rng(t).normal(size=shape)))
            for policy in policies:
                exact = all_objectives(cmdp, policy)
                for seed in range(5):
                    v, _ = td_critic(cmdp, policy.probs, cfg.td_iterations,
                                     cfg.episode_horizon, np.random.default_rng(seed))
                    errors.append(np.abs(v @ cmdp.initial_dist - exact))
        errors = np.array(errors)
        assert errors.shape == (110, 2)
        assert np.all(np.median(errors, axis=0) <= 0.04)
        assert np.all(errors.max(axis=0) <= 0.12)


class TestRunCrpo:
    def _run(self, seed=0, steps=30, limit_margin=0.05, **kw):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, feasible_margin=limit_margin)
        cfg = CrpoConfig(learning_rate=0.5, steps=steps, tolerance=0.02,
                         episodes_per_step=1, episode_horizon=5,
                         rng_seed=seed, **kw)
        return cmdp, cfg, run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)

    def test_partition_invariant(self):
        cmdp, cfg, out = self._run()
        all_steps = sorted(out.reward_steps
                           + sum(out.constraint_steps, ()))
        assert all_steps == list(range(cfg.steps))

    def test_gating_replay(self):
        cmdp, cfg, out = self._run(seed=1)
        for m in range(cfg.steps):
            excess = out.per_step_estimates[m] - cmdp.limits - cfg.tolerance
            if np.all(excess <= 0):
                assert m in out.reward_steps
            else:
                worst = int(np.argmax(excess))
                assert m in out.constraint_steps[worst]

    def test_td_sampled_gate_reads_j1_on_test09_tasks(self):
        """The first TdSampled step's estimate of J_1 from the uniform
        policy, against the exact J_1, on each of the 11 test_09 tasks,
        within the bound of the LSTD objectives test above. Weighing Q_1 by
        the step's own episodes estimates E over d^pi, not over rho, and
        misses here by up to 0.60."""
        tasks = gen_task_sequence(TEST09_CONFIG.task_source)[0]
        cfg = replace(TEST09_CONFIG.crpo, critic_mode="TdSampled", steps=1)
        assert len(tasks) == 11
        for cmdp in tasks:
            init = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
            try:
                out = run_crpo(cmdp, init, cfg)
            except DegenerateRun as exc:
                out = exc.outcome
            exact = all_objectives(cmdp, init)[1]
            assert abs(out.per_step_estimates[0, 0] - exact) <= 0.12

    def test_exact_estimates_are_exact(self):
        cmdp, cfg, out = self._run(seed=2)
        for m in (0, cfg.steps - 1):
            pol = TablePolicy(probs=out.iterates[m])
            assert abs(out.per_step_estimates[m, 0]
                       - all_objectives(cmdp, pol)[1]) < 1e-10

    def test_returned_policy_is_reward_snapshot(self):
        cmdp, cfg, out = self._run(seed=3)
        match = [m for m in out.reward_steps
                 if np.array_equal(out.iterates[m], out.returned_policy.probs)]
        assert match

    def test_iterates_are_one_read_only_stack(self):
        cmdp, cfg, out = self._run(seed=7, steps=6)
        assert out.iterates.shape == (cfg.steps, 4, 3)
        assert not out.iterates.flags.writeable
        with pytest.raises(ValueError):
            out.iterates[0, 0, 0] = 0.5

    def test_returned_policy_is_a_copy_of_its_row(self):
        """Bit for bit the drawn row, but its own memory: a caller that keeps
        the returned policy keeps no view of the whole stack."""
        cmdp, cfg, out = self._run(seed=3)
        returned = out.returned_policy
        assert returned is out.returned_policy
        assert returned.probs.tobytes() == out.iterates[out.returned_step].tobytes()
        assert not np.shares_memory(returned.probs, out.iterates)

    def test_builds_no_policy_object_per_step(self, monkeypatch):
        built = []
        for cls in (SoftmaxPolicy, TablePolicy):
            original = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, original=original:
                                built.append(type(self)) or original(self))
        cmdp = random_cmdp(np.random.default_rng(5), feasible_margin=0.05)
        init = SoftmaxPolicy.uniform(4, 3)
        built.clear()
        for mode in ("Exact", "TdSampled"):
            cfg = CrpoConfig(learning_rate=0.5, steps=6, tolerance=0.02,
                             critic_mode=mode, td_iterations=20, rng_seed=5)
            try:
                run_crpo(cmdp, init, cfg)
            except DegenerateRun:
                pass
            assert built == []

    def test_dataset_logging(self):
        cmdp, cfg, out = self._run(seed=4, steps=6)
        n = cfg.steps * cfg.episodes_per_step * cfg.episode_horizon
        ds = out.dataset
        assert ds.s.size == n
        # next-state transitions must be reachable under the kernel
        assert np.all(cmdp.transition[ds.s, ds.a, ds.s_next] > 0)

    def test_degenerate_run(self):
        rng = np.random.default_rng(5)
        base = random_cmdp(rng)
        cmdp = TabularCmdp(kernel=base.kernel, reward=base.reward,
                           costs=np.ones((1, 4, 3)),
                           limits=np.array([0.5]),  # J_1 is always 1/(1-gamma)
                           discount=base.discount,
                           initial_dist=base.initial_dist, c_max=1.0)
        cfg = CrpoConfig(steps=5, episodes_per_step=1, episode_horizon=3)
        with pytest.raises(DegenerateRun) as exc:
            run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        assert exc.value.outcome.reward_steps == ()
        outcome = exc.value.outcome
        assert outcome.returned_step == 4
        assert np.array_equal(outcome.returned_policy.probs, outcome.iterates[-1])

    def test_near_optimal_on_desk_problem(self):
        rng = np.random.default_rng(6)
        cmdp = random_cmdp(rng, feasible_margin=0.1)
        sol = solve_optimal_lp(cmdp)
        cfg = CrpoConfig(learning_rate=1.0, steps=500, tolerance=0.05,
                         episodes_per_step=1, episode_horizon=2, rng_seed=6)
        out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        snap_vals = np.array([all_objectives(cmdp, TablePolicy(probs=out.iterates[m]))
                              for m in out.reward_steps])
        # some reward-step snapshot reaches the constrained optimum, and
        # every reward-step snapshot respects the gate tolerance
        assert np.min(sol.objective_values[0] - snap_vals[:, 0]) < 0.05
        assert np.all(snap_vals[:, 1] <= cmdp.limits[0] + cfg.tolerance + 1e-9)
        ret = all_objectives(cmdp, out.returned_policy)
        assert ret[1] <= cmdp.limits[0] + cfg.tolerance + 1e-9

    def test_exact_runs_near_the_lp_optimum_on_test09_grids(self):
        """Exact CRPO from the uniform policy on the ten test_09 training
        tasks at 64 steps, against the LP oracle, with J_bar the mean exact
        objectives of the reward-step iterates: the mean reward gap is small
        (0.0068 when written; 0.090 at test_09's 8 steps) and every J_bar_1
        is within the gate's tolerance of the limit (at most 0.043 over)."""
        tasks = gen_task_sequence(TEST09_CONFIG.task_source)[0][:-1]
        cfg = replace(TEST09_CONFIG.crpo, steps=64)
        gaps = []
        for cmdp in tasks:
            out = run_crpo(cmdp, SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions),
                           cfg)   # a degenerate run raises DegenerateRun
            j_bar = out.iterate_objectives[list(out.reward_steps)].mean(axis=0)
            gaps.append(solve_optimal_lp(cmdp).objective_values[0] - j_bar[0])
            assert j_bar[1] <= cmdp.limits[0] + cfg.tolerance
        assert len(gaps) == 10
        assert np.mean(gaps) <= 0.02

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, n_states=3, feasible_margin=0.05)
        cfg = CrpoConfig(learning_rate=0.3, steps=8, tolerance=0.05,
                         episodes_per_step=1, episode_horizon=2, rng_seed=seed)
        try:
            out = run_crpo(cmdp, SoftmaxPolicy.uniform(3, 3), cfg)
        except DegenerateRun as exc:
            out = exc.outcome
        flat = sorted(out.reward_steps + sum(out.constraint_steps, ()))
        assert flat == list(range(cfg.steps))


def _with_zero_entries(cmdp, rng):
    """A policy table on cmdp with one zero-probability action in most rows."""
    probs = rng.dirichlet(np.ones(cmdp.n_actions), size=cmdp.n_states)
    probs[np.arange(0, cmdp.n_states, 2), 0] = 0.0
    return probs / probs.sum(axis=1, keepdims=True)


def _same_state(rng_a, rng_b):
    return rng_a.bit_generator.state == rng_b.bit_generator.state


def _log_reference(cmdp, iterates, cfg, rng):
    """Every iterate's episodes of a run's log, one rng.choice at a time,
    iterate after iterate of the (M, S, A) stack; returns (states, actions,
    next_states), each (M * episodes, horizon)."""
    episodes = [sample_episode_reference(cmdp, probs, cfg.episode_horizon, rng)
                for probs in iterates for _ in range(cfg.episodes_per_step)]
    return tuple(map(np.array, zip(*episodes)))


def _assert_log_is(ds, episodes):
    states, actions, nexts = episodes
    assert np.array_equal(ds.s, states.ravel()) and np.array_equal(ds.a, actions.ravel())
    assert np.array_equal(ds.s_next, nexts.ravel())
    assert np.array_equal(ds.initial_states, states[:, 0])


# LSTD(0) tables against lstd_q_reference, whose dense S*A system is
# assembled and factorised apart from the m x m one
Q_TOL = 1e-10


class TestBatchedSampler:
    """The batched sampler against the per-draw rng.choice loops: same
    arrays and the same generator state afterwards."""

    @pytest.mark.parametrize("episodes", [1, 5])
    def test_episodes_match_reference(self, episodes):
        cmdp = gen_frozen_lake(GridSpec(seed=2))
        probs = _with_zero_entries(cmdp, np.random.default_rng(0))
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = sample_episode(cmdp, probs, 60, rng, episodes)
        ref = [sample_episode_reference(cmdp, probs, 60, ref_rng)
               for _ in range(episodes)]
        for got_arr, ref_arr in zip(got, zip(*ref)):
            assert np.array_equal(got_arr, np.array(ref_arr))
        assert _same_state(rng, ref_rng)

    def test_policy_stack_on_16x16_grid(self):
        cmdp = gen_frozen_lake(GridSpec(rows=16, cols=16, seed=1))
        gen = np.random.default_rng(1)
        stack = np.array([_with_zero_entries(cmdp, gen) for _ in range(3)])
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = sample_episode(cmdp, stack, 60, rng, 5)
        ref = [sample_episode_reference(cmdp, probs, 60, ref_rng)
               for probs in stack for _ in range(5)]
        for got_arr, ref_arr in zip(got, zip(*ref)):
            assert np.array_equal(got_arr, np.array(ref_arr))
        assert _same_state(rng, ref_rng)

    @pytest.mark.parametrize("iterations,horizon,episodes", [
        pytest.param(0, 50, 5, id="0-50"), pytest.param(7, 1, 5, id="7-1"),
        pytest.param(7, 1, 1, id="7-1-one-episode"),
        pytest.param(120, 60, 2, id="120-60"),
        pytest.param(10_000, 50, 5, id="10000-50")])
    def test_td_chain_matches_reference(self, iterations, horizon, episodes):
        cmdp = random_cmdp(np.random.default_rng(3), n_states=5, n_costs=2)
        probs = _with_zero_entries(cmdp, np.random.default_rng(4))
        # the settings the reference chain reads; a TdSampled run refuses a
        # chain of 0 steps, which td_critic itself still takes
        cfg = CrpoConfig(td_iterations=iterations, episode_horizon=horizon,
                         episodes_per_step=episodes)
        rng, ref_rng = np.random.default_rng(iterations), np.random.default_rng(iterations)
        v, got = td_critic(cmdp, probs, iterations, horizon, rng)
        ref_q = lstd_q_reference(cmdp, probs, cfg, ref_rng)
        assert got.shape == (cmdp.n_costs + 1, cmdp.n_states, cmdp.n_actions)
        for index, q in enumerate(got):
            assert np.abs(q - ref_q[index]).max() <= Q_TOL
        assert np.array_equal(v, (probs * got).sum(axis=2))
        # the chain alone, whatever episodes_per_step is: the generator ends
        # where the reference chain ends
        assert _same_state(rng, ref_rng)

    def test_td_chain_on_16x16_grid(self):
        cmdp = gen_frozen_lake(GridSpec(rows=16, cols=16, seed=1))
        probs = _with_zero_entries(cmdp, np.random.default_rng(5))
        cfg = CrpoConfig(critic_mode="TdSampled", td_iterations=500,
                         episode_horizon=60)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        _, got = td_critic(cmdp, probs, cfg.td_iterations, cfg.episode_horizon, rng)
        ref_q = lstd_q_reference(cmdp, probs, cfg, ref_rng)
        for index, q in enumerate(got):
            assert np.abs(q - ref_q[index]).max() <= Q_TOL
        assert _same_state(rng, ref_rng)

    @pytest.mark.parametrize("row", [[0.5, 0.4, 0.1 + 1e-7], [0.5, 0.6, -0.1],
                                     [0.5, np.nan, 0.5], [0.5, 0.4, 0.0]])
    def test_bad_policy_raises(self, row):
        cmdp = random_cmdp(np.random.default_rng(6))
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[2] = row
        with pytest.raises(ValueError):  # rng.choice refuses the row as well
            np.random.default_rng(0).choice(3, p=probs[2])
        rng = np.random.default_rng(0)
        with pytest.raises(SamplerError):
            td_critic(cmdp, probs, 10, 50, rng)
        # refused before its chain is drawn
        assert _same_state(rng, np.random.default_rng(0))
        with pytest.raises(SamplerError):
            sample_episode(cmdp, probs, 5, np.random.default_rng(0))

    def test_ties_resolve_as_choice(self):
        # a uniform equal to a CDF step picks the next index, as
        # Generator.choice's searchsorted(cdf, u, side="right") does
        class Halves:
            def random(self, shape):
                return np.full(shape, 0.5)

        cmdp = random_cmdp(np.random.default_rng(6))
        probs = np.tile([0.5, 0.5, 0.0], (4, 1))
        _, actions, _ = sample_episode(cmdp, probs, 5, Halves())
        assert np.all(actions == np.searchsorted([0.5, 1.0, 1.0], 0.5, side="right"))

    def test_rows_within_choice_tolerance_accepted(self):
        cmdp = random_cmdp(np.random.default_rng(6))
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[2] = [0.5, 0.4, 0.1 + 1e-9]
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        got = sample_episode(cmdp, probs, 30, rng)
        ref = sample_episode_reference(cmdp, probs, 30, ref_rng)
        assert all(np.array_equal(g[0], r) for g, r in zip(got, ref))

    def test_kernel_checked_once_per_cmdp(self, monkeypatch):
        checked = []
        original = cmdp_module.cdf

        def counting_cdf(table, what):
            checked.append(what)
            return original(table, what)

        monkeypatch.setattr(cmdp_module, "cdf", counting_cdf)
        cmdp = gen_frozen_lake(GridSpec(seed=2))
        probs = _with_zero_entries(cmdp, np.random.default_rng(0))
        rng = np.random.default_rng(3)
        sample_episode(cmdp, probs, 20, rng, 2)
        sample_episode(cmdp, probs, 20, rng, 2)
        assert checked == ["transition kernel", "initial distribution"]

    def test_rollout_builds_only_its_policy_cdf(self, monkeypatch):
        """Once the CMDP's tables are cached, each sample_episode or
        td_critic call builds one CDF, of its policy tables, and _rollout
        builds none."""
        built = []
        original = crpo.cdf
        for module in (crpo, cmdp_module):
            monkeypatch.setattr(module, "cdf", lambda table, what: built.append(
                (what, np.shape(table))) or original(table, what))
        cmdp = gen_frozen_lake(GridSpec(seed=2))
        probs = _with_zero_entries(cmdp, np.random.default_rng(0))
        cmdp.successor_cdf, cmdp.initial_cdf
        built.clear()
        rng = np.random.default_rng(3)
        sample_episode(cmdp, probs, 20, rng, 2)
        sample_episode(cmdp, np.stack([probs, probs]), 20, rng)
        td_critic(cmdp, probs, 100, 20, rng)
        shape = (cmdp.n_states, cmdp.n_actions)
        assert built == [("policy", shape), ("policy", (2,) + shape), ("policy", shape)]
        built.clear()
        crpo._rollout(cmdp, crpo.cdf(probs, "policy")[None], np.zeros(3, dtype=np.intp),
                      rng.random((3, 9)))
        assert built == [("policy", shape)]   # the caller's CDF alone

    def test_sampler_tables_are_cached_read_only_layouts(self):
        cmdp = gen_frozen_lake(GridSpec(seed=2))
        k = cmdp.successors[1].shape[2]
        succ_cdf = cmdp.successor_cdf
        assert succ_cdf is cmdp.successor_cdf and cmdp.initial_cdf is cmdp.initial_cdf
        assert succ_cdf.shape == (k, cmdp.n_states * cmdp.n_actions)
        assert succ_cdf.flags.c_contiguous and not succ_cdf.flags.writeable
        rows = np.cumsum(cmdp.successors[1], axis=-1)
        assert succ_cdf.T.tobytes() == (rows / rows[..., -1:]).reshape(-1, k).tobytes()
        assert cmdp.initial_cdf.shape == (cmdp.n_states, 1)
        assert not cmdp.initial_cdf.flags.writeable
        assert np.array_equal(cmdp.initial_cdf[:, 0], np.cumsum(cmdp.initial_dist))

    def test_negative_kernel_entry_raises(self):
        # -1e-13 passes the CMDP's own checks but not Generator.choice's
        base = random_cmdp(np.random.default_rng(6))
        transition = np.array(base.transition)
        transition[1, 2, :2] = [0.5 + 1e-13, -1e-13]
        transition[1, 2, 2:] = 0.5 / (base.n_states - 2)
        cmdp = TabularCmdp(kernel=(np.arange(base.n_states), transition),
                           reward=base.reward, costs=base.costs, limits=base.limits,
                           discount=base.discount,
                           initial_dist=base.initial_dist, c_max=base.c_max)
        with pytest.raises(SamplerError):
            sample_episode(cmdp, np.full((4, 3), 1.0 / 3.0), 5,
                           np.random.default_rng(0))


class TestRunCrpoStreams:
    """run_crpo replayed draw by draw with the per-draw references."""

    def _replay(self, mode, seed):
        cmdp = random_cmdp(np.random.default_rng(seed), n_costs=2,
                           feasible_margin=0.05)
        cfg = CrpoConfig(learning_rate=0.5, steps=6, tolerance=0.05,
                         critic_mode=mode, td_iterations=50,
                         episodes_per_step=3, episode_horizon=7, rng_seed=seed)
        try:
            out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        except DegenerateRun as exc:
            out = exc.outcome
        rng = np.random.default_rng(seed)
        _assert_log_is(out.dataset, _log_reference(cmdp, out.iterates, cfg, rng))
        if mode == "TdSampled":  # one chain a step serves all three critics
            for probs in out.iterates:
                lstd_q_reference(cmdp, probs, cfg, rng)
        if out.reward_steps:
            chosen = out.reward_steps[rng.integers(len(out.reward_steps))]
            assert out.returned_step == chosen
            assert np.array_equal(out.returned_policy.probs, out.iterates[chosen])
        return cmdp, out

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_streams_match_reference(self, mode):
        for seed in range(3):
            self._replay(mode, seed)

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_iterate_objectives_are_exact(self, mode):
        cmdp, out = self._replay(mode, 4)
        for m, probs in enumerate(out.iterates):
            assert np.array_equal(out.iterate_objectives[m],
                                  all_objectives(cmdp, TablePolicy(probs=probs)))
        assert np.array_equal(out.returned_objectives,
                              all_objectives(cmdp, out.returned_policy))

    def test_exact_log_sampled_only_when_read(self, monkeypatch):
        """Under either critic the log is drawn on first read, in one call."""
        calls = []
        original = crpo.sample_episode
        monkeypatch.setattr(crpo, "sample_episode",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        cmdp = random_cmdp(np.random.default_rng(0), feasible_margin=0.05)
        for mode in ("Exact", "TdSampled"):
            cfg = CrpoConfig(learning_rate=0.5, steps=5, tolerance=0.05,
                             critic_mode=mode, td_iterations=50, rng_seed=3)
            try:
                out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
            except DegenerateRun as exc:
                out = exc.outcome
            assert calls == []
            assert out.dataset is out.dataset
            assert calls == [1]
            calls.clear()


class TestTdSampledStepReplay:
    """TdSampled run_crpo replayed draw by draw from one generator: every
    iterate's episodes with sample_episode_reference first, then each
    step's chain with lstd_q_reference. The draws, the log, the decisions
    and the generator state match bit for bit. The tables, and the
    estimates rho . sum_a pi q read off them, match within Q_TOL, so the
    replay draws each step with the run's own iterate and checks it against
    the reference iterate within the drift that Q_TOL allows."""

    def _replay(self, cmdp, cfg):
        init = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
        generators = []
        original = crpo.td_critic

        def recording(cmdp, probs, iterations, horizon, rng):
            generators.append(rng)
            return original(cmdp, probs, iterations, horizon, rng)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crpo, "td_critic", recording)
            try:
                out = run_crpo(cmdp, init, cfg)
            except DegenerateRun as exc:
                out = exc.outcome
        assert len(generators) == cfg.steps
        assert all(g is generators[0] for g in generators)

        rng = np.random.default_rng(cfg.rng_seed)
        gamma, p = cmdp.discount, cmdp.n_costs
        step = cfg.learning_rate / (1 - gamma)
        # each NPG step moves the logits by alpha/(1-gamma) Q, so by at most
        # that times Q_TOL away from the run's; the softmax at most doubles it
        drift = 2 * cfg.steps * cfg.learning_rate / (1 - gamma) * Q_TOL
        logits = np.array(init.logits)
        reward_steps, constraint_steps = [], [[] for _ in range(p)]
        episodes = _log_reference(cmdp, out.iterates, cfg, rng)
        for m in range(cfg.steps):
            probs = out.iterates[m]
            assert np.abs(SoftmaxPolicy(logits=logits).probs - probs).max() <= drift
            qs = lstd_q_reference(cmdp, probs, cfg, rng)
            j_bar = np.array([cmdp.initial_dist @ (probs * qs[i]).sum(axis=1)
                              for i in range(1, p + 1)])
            assert np.abs(out.per_step_estimates[m] - j_bar).max() <= Q_TOL
            excess = j_bar - cmdp.limits - cfg.tolerance
            if np.all(excess <= 0):
                reward_steps.append(m)
                logits = npg_softmax_step(logits, qs[0], step)
            else:
                worst = int(np.argmax(excess))
                constraint_steps[worst].append(m)
                logits = npg_softmax_step(logits, qs[worst + 1], -step)

        assert out.reward_steps == tuple(reward_steps)
        assert out.constraint_steps == tuple(map(tuple, constraint_steps))
        if reward_steps:
            assert out.returned_step == reward_steps[rng.integers(len(reward_steps))]
        else:
            assert out.returned_step == cfg.steps - 1
        assert _same_state(generators[0], rng)
        _assert_log_is(out.dataset, episodes)
        return out

    @pytest.mark.parametrize("horizon,iterations", [(7, 60), (1, 40), (7, 1)])
    def test_random_cmdp_with_two_costs(self, horizon, iterations):
        base = random_cmdp(np.random.default_rng(11), n_costs=2)
        # limits among the LSTD estimates, so that both kinds of step are taken
        cmdp = TabularCmdp(kernel=base.kernel, reward=base.reward, costs=base.costs,
                           limits=np.array([2.0, 2.3]), discount=base.discount,
                           initial_dist=base.initial_dist, c_max=base.c_max)
        cfg = CrpoConfig(learning_rate=0.5, steps=6, tolerance=0.05,
                         critic_mode="TdSampled", td_iterations=iterations,
                         episodes_per_step=3,
                         episode_horizon=horizon, rng_seed=5)
        self._replay(cmdp, cfg)

    @pytest.mark.parametrize("horizon,iterations", [(60, 300), (1, 30), (60, 1)])
    def test_4x4_grid(self, horizon, iterations):
        # at horizon 1 the estimates straddle the limit: both kinds of step
        cmdp = gen_frozen_lake(GridSpec(seed=2, cost_limit=0.15))
        cfg = CrpoConfig(learning_rate=1.0, steps=4, tolerance=0.05,
                         critic_mode="TdSampled", td_iterations=iterations,
                         episodes_per_step=5, episode_horizon=horizon, rng_seed=4)
        out = self._replay(cmdp, cfg)
        assert out.dataset.s.size == cfg.steps * cfg.episodes_per_step * horizon


def _crpo_decisions(cmdp, init, cfg):
    try:
        out = run_crpo(cmdp, init, cfg)
    except DegenerateRun as exc:
        out = exc.outcome
    return out.reward_steps, out.constraint_steps, out.returned_step, out


def _decision_cases():
    """6 random CMDPs (p = 1..3) and test_09-style 4x4 and 16x16 gridworlds."""
    rng = np.random.default_rng(30)
    cases = []
    for k in range(6):
        cmdp = random_cmdp(rng, n_costs=1 + k % 3, feasible_margin=0.0)
        cfg = CrpoConfig(learning_rate=0.5, steps=30, tolerance=0.02, rng_seed=k)
        cases.append(pytest.param(cmdp, cfg, id=f"random{k}"))
    for n in (4, 16):
        cmdp = gen_frozen_lake(GridSpec(rows=n, cols=n, seed=2))
        cfg = CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                         episodes_per_step=5, episode_horizon=60, rng_seed=n)
        cases.append(pytest.param(cmdp, cfg, id=f"grid{n}"))
    return cases


class TestOneFactorisationDecisions:
    @pytest.mark.parametrize("cmdp, cfg", _decision_cases())
    def test_same_steps_as_per_objective_solves(self, monkeypatch, cmdp, cfg):
        init = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
        *decisions, out = _crpo_decisions(cmdp, init, cfg)
        monkeypatch.setattr(crpo, "policy_evaluation_exact", policy_evaluation_reference)
        *ref_decisions, ref = _crpo_decisions(cmdp, init, cfg)
        assert decisions == ref_decisions
        err = np.abs(out.iterate_objectives - ref.iterate_objectives)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref.iterate_objectives)))


def _per_run_reference(cmdp, init, cfg):
    """One CRPO run stepped alone, one (S, A) table at a time: the
    reference every lane of a lockstep must match. Returns (iterates,
    reward steps, constraint steps, estimates, objectives, the generator
    after the critic's draws)."""
    rng = np.random.default_rng(cfg.rng_seed)
    rng.bit_generator.advance(
        cfg.steps * cfg.episodes_per_step * (1 + 2 * cfg.episode_horizon))
    p, rho = cmdp.n_costs, cmdp.initial_dist
    step = cfg.learning_rate / (1.0 - cmdp.discount)
    logits = np.array(init.logits)
    iterates, objectives, estimates = [], [], []
    reward_steps, constraint_steps = [], [[] for _ in range(p)]
    for m in range(cfg.steps):
        probs = SoftmaxPolicy(logits=logits).probs
        iterates.append(probs)
        v, q = (policy_evaluation_exact(cmdp, probs) if cfg.critic_mode == "Exact"
                else td_critic(cmdp, probs, cfg.td_iterations, cfg.episode_horizon, rng))
        j = v @ rho
        objectives.append(policy_evaluation_exact(cmdp, probs)[0] @ rho)
        estimates.append(j[1:])
        excess = j[1:] - cmdp.limits - cfg.tolerance
        if np.all(excess <= 0):
            reward_steps.append(m)
            logits = npg_softmax_step(logits, q[0], step)
        else:
            worst = int(np.argmax(excess))
            constraint_steps[worst].append(m)
            logits = npg_softmax_step(logits, q[worst + 1], -step)
    return (np.array(iterates), tuple(reward_steps), tuple(map(tuple, constraint_steps)),
            np.array(estimates), np.array(objectives), rng)


def _outcome(cmdp, init, cfg, lane=None):
    try:
        return run_crpo(cmdp, init, cfg, lane)
    except DegenerateRun as exc:
        return exc.outcome


class TestLockstepLanes:
    """`crpo_lanes` steps runs that differ in init, rate and seed together;
    every lane gets the bits of its run stepped alone."""

    CMDP = random_cmdp(np.random.default_rng(7), n_costs=2, feasible_margin=0.02)
    # an init that puts its mass on each state's costliest action: with a
    # small rate it stays over the limit, and its run takes no reward step
    COSTLY = np.where(np.arange(3) == CMDP.costs.sum(axis=0).argmax(axis=1)[:, None],
                      4.0, 0.0)
    # (init logits, learning rate, seed): two identical lanes, one
    # degenerate lane, and lanes that differ in init, rate and seed
    LANES = [(np.zeros((4, 3)), 0.5, 3), (np.zeros((4, 3)), 0.5, 3), (COSTLY, 0.02, 4),
             (np.random.default_rng(1).standard_normal((4, 3)), 0.3, 5),
             (np.random.default_rng(2).standard_normal((4, 3)), 0.8, 6),
             (np.zeros((4, 3)), 0.5, 9)]

    RATES = [rate for _, rate, _ in LANES]
    SEEDS = [seed for _, _, seed in LANES]

    @staticmethod
    def _base(mode):
        """The settings every lane shares."""
        return CrpoConfig(steps=6, tolerance=0.0, critic_mode=mode, td_iterations=60,
                          episodes_per_step=2, episode_horizon=7)

    def _configs(self, mode):
        """Each lane's config for its run stepped alone."""
        return [replace(self._base(mode), learning_rate=rate, rng_seed=seed)
                for rate, seed in zip(self.RATES, self.SEEDS)]

    def _assert_entries(self, cmdp, inits, configs, entries, kinds):
        """Each lane's entry is of its kind, a degenerate lane's outcome
        returns the last iterate, and `run_crpo` on the entry returns that
        very outcome or raises that very exception."""
        assert [type(entry) for entry in entries] == kinds
        for init, cfg, entry in zip(inits, configs, entries):
            if isinstance(entry, DegenerateRun):
                assert entry.outcome.returned_step == cfg.steps - 1
            if not isinstance(entry, Exception):
                assert run_crpo(cmdp, init, cfg, entry) is entry
                continue
            with pytest.raises(type(entry)) as raised:
                run_crpo(cmdp, init, cfg, entry)
            assert raised.value is entry

    def _assert_same_run(self, got, solo, reference):
        assert got.iterates.tobytes() == solo.iterates.tobytes()
        for a, b in [(got.per_step_estimates, solo.per_step_estimates),
                     (got.iterate_objectives, solo.iterate_objectives)]:
            assert a.tobytes() == b.tobytes()
        assert (got.reward_steps, got.constraint_steps, got.returned_step) == \
            (solo.reward_steps, solo.constraint_steps, solo.returned_step)
        _assert_log_is(got.dataset, (solo.dataset.s.reshape(-1, 7),
                                     solo.dataset.a.reshape(-1, 7),
                                     solo.dataset.s_next.reshape(-1, 7)))
        iterates, reward_steps, constraint_steps, estimates, objectives, rng = reference
        assert got.iterates.tobytes() == iterates.tobytes()
        assert got.reward_steps == reward_steps
        assert got.constraint_steps == constraint_steps
        assert got.per_step_estimates.tobytes() == estimates.tobytes()
        assert got.iterate_objectives.tobytes() == objectives.tobytes()
        if reward_steps:
            assert got.returned_step == reward_steps[rng.integers(len(reward_steps))]

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_every_lane_matches_its_solo_run(self, mode):
        cmdp, configs = self.CMDP, self._configs(mode)
        inits = [SoftmaxPolicy(logits=logits) for logits, _, _ in self.LANES]
        paths = crpo.crpo_lanes(cmdp, np.array([p.logits for p in inits]),
                                self._base(mode), self.RATES, self.SEEDS)
        self._assert_entries(cmdp, inits, configs, paths,
                             [CrpoOutcome] * 2 + [DegenerateRun] + [CrpoOutcome] * 3)
        for init, cfg, path in zip(inits, configs, paths):
            got, solo = _outcome(cmdp, init, cfg, path), _outcome(cmdp, init, cfg)
            self._assert_same_run(got, solo, _per_run_reference(cmdp, init, cfg))
        with pytest.raises(DegenerateRun):
            run_crpo(cmdp, inits[2], configs[2], paths[2])
        assert paths[0].iterates.tobytes() == paths[1].iterates.tobytes()

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_a_failing_lane_leaves_the_others_unchanged(self, monkeypatch, mode):
        """Lane 3 fails at step 2 in its critic: its run raises the error
        it raises alone, and the other lanes, whose TdSampled critics drew
        before it in the failed stacked step, get their solo bits."""
        cmdp, configs = self.CMDP, self._configs(mode)
        inits = [SoftmaxPolicy(logits=logits) for logits, _, _ in self.LANES]
        bad = _outcome(cmdp, inits[3], configs[3]).iterates[2]
        exact, sampled = crpo.policy_evaluation_exact, crpo.td_critic

        def failing(probs):
            if np.any(np.all(probs == bad, axis=(-2, -1))):
                raise NumericalFailure("made to fail")

        monkeypatch.setattr(crpo, "policy_evaluation_exact", lambda cmdp, probs: (
            failing(probs) if mode == "Exact" else None) or exact(cmdp, probs))
        monkeypatch.setattr(crpo, "td_critic", lambda cmdp, probs, *args: (
            failing(probs) or sampled(cmdp, probs, *args)))
        paths = crpo.crpo_lanes(cmdp, np.array([p.logits for p in inits]),
                                self._base(mode), self.RATES, self.SEEDS)
        self._assert_entries(cmdp, inits, configs, paths, [CrpoOutcome] * 2
                             + [DegenerateRun, NumericalFailure] + [CrpoOutcome] * 2)
        for i, (init, cfg, path) in enumerate(zip(inits, configs, paths)):
            if i == 3:
                for p in (path, None):
                    with pytest.raises(NumericalFailure, match="^made to fail$"):
                        run_crpo(cmdp, init, cfg, p)
                continue
            got, solo = _outcome(cmdp, init, cfg, path), _outcome(cmdp, init, cfg)
            self._assert_same_run(got, solo, _per_run_reference(cmdp, init, cfg))

    def test_lanes_on_test09_grids(self):
        """Fifty lanes on a 4x4 and on a 16x16 test_09-style grid, each
        matching its run stepped alone."""
        for n in (4, 16):
            cmdp = gen_frozen_lake(GridSpec(rows=n, cols=n, seed=2))
            rng = np.random.default_rng(n)
            logits = rng.standard_normal((50, cmdp.n_states, cmdp.n_actions))
            base = CrpoConfig(steps=8, tolerance=0.05, episodes_per_step=5,
                              episode_horizon=60)
            rates = [float(rng.uniform(0.1, 2.0)) for _ in range(50)]
            configs = [replace(base, learning_rate=rate, rng_seed=k)
                       for k, rate in enumerate(rates)]
            paths = crpo.crpo_lanes(cmdp, logits, base, rates, range(50))
            for k in (0, 17, 49):
                init = SoftmaxPolicy(logits=logits[k])
                got = _outcome(cmdp, init, configs[k], paths[k])
                ref = _per_run_reference(cmdp, init, configs[k])
                assert got.iterates.tobytes() == ref[0].tobytes()
                assert (got.reward_steps, got.constraint_steps) == ref[1:3]
                assert got.iterate_objectives.tobytes() == ref[4].tobytes()

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_non_finite_lanes_are_refused_before_the_first_step(self, mode):
        """On a 4x4 grid, lanes with a NaN or an inf logit get the error
        their run gets alone, no numpy warning fires, and the other lanes
        keep their solo bits."""
        cmdp = gen_frozen_lake(GridSpec(rows=4, cols=4, seed=2))
        logits = np.random.default_rng(4).standard_normal((4, cmdp.n_states,
                                                           cmdp.n_actions))
        logits[1, 5, 2], logits[2, 0, 0] = np.nan, np.inf
        base = replace(self._base(mode), steps=4)
        configs = [replace(cfg, steps=4) for cfg in self._configs(mode)[:4]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = crpo.crpo_lanes(cmdp, logits, base, self.RATES[:4], self.SEEDS[:4])
            assert all(isinstance(entry, InvalidInput) for entry in crpo.crpo_lanes(
                cmdp, logits[1:3], base, self.RATES[1:3], self.SEEDS[1:3]))
        for k in (1, 2):
            assert isinstance(entries[k], InvalidInput)
            assert str(entries[k]) == "logits must be finite"
            with pytest.raises(InvalidInput, match=f"^{entries[k]}$"):
                SoftmaxPolicy(logits=logits[k])
        for k in (0, 3):
            init = SoftmaxPolicy(logits=logits[k])
            got, solo = _outcome(cmdp, init, configs[k], entries[k]), \
                _outcome(cmdp, init, configs[k])
            self._assert_same_run(got, solo, _per_run_reference(cmdp, init, configs[k]))

    def test_lanes_share_every_setting_but_rate_and_seed(self):
        """One config for all lanes, and one rate and one seed a lane."""
        with pytest.raises(InvalidInput, match="for 1 rates and 1 seeds$"):
            crpo.crpo_lanes(self.CMDP, np.zeros((2, 4, 3)), CrpoConfig(), [0.1], [0])
        with pytest.raises(InvalidInput, match="for 2 rates and 1 seeds$"):
            crpo.crpo_lanes(self.CMDP, np.zeros((2, 4, 3)), CrpoConfig(), [0.1, 0.2], [0])

    @pytest.mark.parametrize("rate, seed", [(0.0, -1), (-0.5, 2.0), (np.inf, True),
                                            (np.nan, None), ("0.5", "1")])
    def test_a_lane_rate_or_seed_that_a_config_refuses_is_refused(self, rate, seed):
        """A lane whose rate is not positive and finite, or whose seed is not
        a nonnegative integer, gets the InvalidInput that `CrpoConfig` raises
        for it as its entry, text and all, before the first step; the other
        lanes keep their solo bits."""
        cmdp, configs = self.CMDP, self._configs("TdSampled")
        inits = [SoftmaxPolicy(logits=logits) for logits, _, _ in self.LANES]
        rates, seeds = list(self.RATES), list(self.SEEDS)
        rates[1], seeds[4] = rate, seed
        entries = crpo.crpo_lanes(cmdp, np.array([p.logits for p in inits]),
                                  self._base("TdSampled"), rates, seeds)
        for k, setting in ((1, {"learning_rate": rate}), (4, {"rng_seed": seed})):
            with pytest.raises(InvalidInput) as raised:
                CrpoConfig(**setting)
            assert type(entries[k]) is InvalidInput
            assert str(entries[k]) == str(raised.value)
        for k in (0, 2, 3, 5):
            got, solo = _outcome(cmdp, inits[k], configs[k], entries[k]), \
                _outcome(cmdp, inits[k], configs[k])
            self._assert_same_run(got, solo, _per_run_reference(cmdp, inits[k], configs[k]))
