import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasrl import cmdp as cmdp_module, crpo
from metasrl.cmdp import (SoftmaxPolicy, TablePolicy, TabularCmdp,
                          all_objectives, expected_objective,
                          policy_evaluation_exact, policy_from_logits)
from metasrl.crpo import (CrpoConfig, compute_eta, npg_softmax_step, run_crpo,
                          sample_episode, suboptimality_bound, td_critic)
from metasrl.errors import DegenerateRun, InvalidInput, SamplerError
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import GridSpec, gen_frozen_lake

from oracles import (policy_evaluation_reference, random_cmdp,
                     sample_episode_reference, td_q_reference)


class TestBoundFormulas:
    def test_compute_eta_value(self):
        val = compute_eta(dims=(2, 2), alpha=0.5, m_steps=100, kl_bound=1.0,
                          gamma=0.5, c_max=1.0, p=1)
        # 0.04 + 64.0 + 2*2*(3 + 0.25 + 1.5)/(10 * 0.25)
        assert abs(val - (0.04 + 64.0 + 7.6)) < 1e-12

    def test_suboptimality_bound_value(self):
        val = suboptimality_bound(alpha=0.5, m_steps=100, kl_bound=1.0,
                                  gamma=0.5, c_max=1.0, s_n=2, a_n=2)
        assert abs(val - 64.04) < 1e-12

    def test_bound_scaling(self):
        lo = suboptimality_bound(0.01, 1000, 1.0, 0.9, 1.0, 4, 3)
        hi = suboptimality_bound(0.01, 100, 1.0, 0.9, 1.0, 4, 3)
        assert lo < hi  # more steps shrink the kl term

    def test_eta_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            compute_eta((2, 2), 0.0, 10, 1.0, 0.9, 1.0, 1)
        with pytest.raises(InvalidInput):
            compute_eta((2, 2), 0.1, 10, -1.0, 0.9, 1.0, 1)


class TestNpgStep:
    def test_zero_q_is_identity(self):
        logits = np.array([[0.3, -0.2]])
        out = npg_softmax_step(logits, np.zeros((1, 2)), 0.1, "Ascent", 0.9)
        assert np.array_equal(out, logits)

    def test_ascent_descent_signs(self):
        logits = np.zeros((1, 2))
        q = np.array([[1.0, 0.0]])
        up = npg_softmax_step(logits, q, 0.5, "Ascent", 0.5)
        down = npg_softmax_step(logits, q, 0.5, "Descent", 0.5)
        assert np.allclose(up, [[1.0, 0.0]])    # 0.5/(1-0.5) = 1
        assert np.allclose(down, [[-1.0, 0.0]])

    def test_bad_direction(self):
        with pytest.raises(InvalidInput):
            npg_softmax_step(np.zeros((1, 2)), np.zeros((1, 2)), 0.1,
                             "Sideways", 0.9)

    def test_ascent_increases_greedy_mass(self):
        cmdp = random_cmdp(np.random.default_rng(0))
        pol = SoftmaxPolicy.uniform(4, 3)
        vt = policy_evaluation_exact(cmdp, pol)[0]
        new = policy_from_logits(
            npg_softmax_step(pol.logits, vt, 0.5, "Ascent", cmdp.discount))
        greedy = vt.q.argmax(axis=1)
        assert np.all(new.probs[np.arange(4), greedy]
                      >= pol.probs[np.arange(4), greedy])


class TestTdCritic:
    def test_exact_mode_refused(self):
        cmdp = random_cmdp(np.random.default_rng(1))
        with pytest.raises(InvalidInput, match="TdSampled"):
            td_critic(cmdp, SoftmaxPolicy.uniform(4, 3), 0,
                      CrpoConfig(critic_mode="Exact"))

    def test_sampled_mode_converges(self):
        cmdp = random_cmdp(np.random.default_rng(2), n_states=3, n_actions=2)
        pol = SoftmaxPolicy.uniform(3, 2)
        cfg = CrpoConfig(critic_mode="TdSampled", td_iterations=400_000,
                         td_step_size=0.01, episode_horizon=40)
        vt = td_critic(cmdp, pol, 0, cfg, rng=np.random.default_rng(3))
        ref = policy_evaluation_exact(cmdp, pol)[0]
        assert np.max(np.abs(vt.q - ref.q)) < 0.15


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

    def test_exact_estimates_are_exact(self):
        cmdp, cfg, out = self._run(seed=2)
        for m in (0, cfg.steps - 1):
            pol = out.all_iterates[m]
            assert abs(out.per_step_estimates[m, 0]
                       - expected_objective(cmdp, pol, 1)) < 1e-10

    def test_returned_policy_is_reward_snapshot(self):
        cmdp, cfg, out = self._run(seed=3)
        match = [m for m in out.reward_steps
                 if np.array_equal(out.all_iterates[m].probs,
                                   out.returned_policy.probs)]
        assert match

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
        cmdp = TabularCmdp(transition=base.transition, reward=base.reward,
                           costs=np.ones((1, 4, 3)),
                           limits=np.array([0.5]),  # J_1 is always 1/(1-gamma)
                           discount=base.discount,
                           initial_dist=base.initial_dist, c_max=1.0)
        cfg = CrpoConfig(steps=5, episodes_per_step=1, episode_horizon=3)
        with pytest.raises(DegenerateRun) as exc:
            run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        assert exc.value.outcome.reward_steps == ()
        assert exc.value.last_policy is not None

    def test_near_optimal_on_desk_problem(self):
        rng = np.random.default_rng(6)
        cmdp = random_cmdp(rng, feasible_margin=0.1)
        sol = solve_optimal_lp(cmdp)
        cfg = CrpoConfig(learning_rate=1.0, steps=500, tolerance=0.05,
                         episodes_per_step=1, episode_horizon=2, rng_seed=6)
        out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        snap_vals = np.array([all_objectives(cmdp, out.all_iterates[m])
                              for m in out.reward_steps])
        # some reward-step snapshot reaches the constrained optimum, and
        # every reward-step snapshot respects the gate tolerance
        assert np.min(sol.objective_values[0] - snap_vals[:, 0]) < 0.05
        assert np.all(snap_vals[:, 1] <= cmdp.limits[0] + cfg.tolerance + 1e-9)
        ret = all_objectives(cmdp, out.returned_policy)
        assert ret[1] <= cmdp.limits[0] + cfg.tolerance + 1e-9

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

    @pytest.mark.parametrize("iterations,horizon", [
        (0, 50), (7, 1), (120, 60), (10_000, 50)])
    def test_td_chain_matches_reference(self, iterations, horizon):
        cmdp = random_cmdp(np.random.default_rng(3), n_states=5, n_costs=2)
        probs = _with_zero_entries(cmdp, np.random.default_rng(4))
        cfg = CrpoConfig(critic_mode="TdSampled", td_iterations=iterations,
                         td_step_size=0.05, episode_horizon=horizon)
        for index in range(cmdp.n_costs + 1):
            rng, ref_rng = np.random.default_rng(index), np.random.default_rng(index)
            got = td_critic(cmdp, TablePolicy(probs=probs), index, cfg, rng)
            assert np.array_equal(
                got.q, td_q_reference(cmdp, probs, index, cfg, ref_rng))
            assert _same_state(rng, ref_rng)

    def test_td_chain_on_16x16_grid(self):
        cmdp = gen_frozen_lake(GridSpec(rows=16, cols=16, seed=1))
        probs = _with_zero_entries(cmdp, np.random.default_rng(5))
        cfg = CrpoConfig(critic_mode="TdSampled", td_iterations=500,
                         episode_horizon=60)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = td_critic(cmdp, TablePolicy(probs=probs), 1, cfg, rng)
        assert np.array_equal(got.q, td_q_reference(cmdp, probs, 1, cfg, ref_rng))
        assert _same_state(rng, ref_rng)

    @pytest.mark.parametrize("row", [[0.5, 0.4, 0.1 + 1e-7], [0.5, 0.6, -0.1],
                                     [0.5, np.nan, 0.5], [0.5, 0.4, 0.0]])
    def test_bad_policy_raises(self, row):
        cmdp = random_cmdp(np.random.default_rng(6))
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[2] = row
        with pytest.raises(ValueError):  # rng.choice refuses the row as well
            np.random.default_rng(0).choice(3, p=probs[2])
        cfg = CrpoConfig(critic_mode="TdSampled", td_iterations=10)
        with pytest.raises(SamplerError):
            td_critic(cmdp, TablePolicy(probs=probs), 0, cfg,
                      np.random.default_rng(0))
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
        assert checked == ["transition kernel"]

    def test_negative_kernel_entry_raises(self):
        # -1e-13 passes the CMDP's own checks but not Generator.choice's
        base = random_cmdp(np.random.default_rng(6))
        transition = np.array(base.transition)
        transition[1, 2, :2] = [0.5 + 1e-13, -1e-13]
        transition[1, 2, 2:] = 0.5 / (base.n_states - 2)
        cmdp = TabularCmdp(transition=transition, reward=base.reward,
                           costs=base.costs, limits=base.limits,
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
                         critic_mode=mode, td_iterations=50, td_step_size=0.2,
                         episodes_per_step=3, episode_horizon=7, rng_seed=seed)
        try:
            out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        except DegenerateRun as exc:
            out = exc.outcome
        rng = np.random.default_rng(seed)
        episodes = []
        for pol in out.all_iterates:
            episodes += [sample_episode_reference(cmdp, pol.probs, 7, rng)
                         for _ in range(3)]
            if mode == "TdSampled":
                for i in range(3):
                    td_q_reference(cmdp, pol.probs, i, cfg, rng)
        states, actions, nexts = (np.concatenate(a) for a in zip(*episodes))
        ds = out.dataset
        assert np.array_equal(ds.s, states) and np.array_equal(ds.a, actions)
        assert np.array_equal(ds.s_next, nexts)
        assert np.array_equal(ds.initial_states, states[::7])
        if out.reward_steps:
            chosen = out.reward_steps[rng.integers(len(out.reward_steps))]
            assert out.returned_policy is out.all_iterates[chosen]
        return cmdp, out

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_streams_match_reference(self, mode):
        for seed in range(3):
            self._replay(mode, seed)

    @pytest.mark.parametrize("mode", ["Exact", "TdSampled"])
    def test_iterate_objectives_are_exact(self, mode):
        cmdp, out = self._replay(mode, 4)
        for m, pol in enumerate(out.all_iterates):
            assert np.array_equal(out.iterate_objectives[m], all_objectives(cmdp, pol))
        assert np.array_equal(out.returned_objectives,
                              all_objectives(cmdp, out.returned_policy))

    def test_exact_log_sampled_only_when_read(self, monkeypatch):
        calls = []
        original = crpo.sample_episode
        monkeypatch.setattr(crpo, "sample_episode",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        cmdp = random_cmdp(np.random.default_rng(0), feasible_margin=0.05)
        cfg = CrpoConfig(learning_rate=0.5, steps=5, tolerance=0.05, rng_seed=3)
        out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        assert calls == []
        assert out.dataset is out.dataset
        assert calls == [1]

    def test_without_stored_iterates(self):
        cmdp = random_cmdp(np.random.default_rng(1), feasible_margin=0.05)
        cfg = CrpoConfig(learning_rate=0.5, steps=5, tolerance=0.05,
                         store_all_iterates=False)
        out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        assert out.all_iterates is None
        assert out.iterate_objectives.shape == (5, 2)


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
