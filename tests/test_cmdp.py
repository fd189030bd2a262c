import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metasrl import cmdp as cmdp_module, harness as harness_module
from metasrl.cmdp import (SoftmaxPolicy, TablePolicy, TabularCmdp, all_objectives,
                          policy_evaluation_exact, visitation_exact)
from metasrl.crpo import sample_episode
from metasrl.errors import InvalidInput, NumericalFailure
from metasrl.meta import RegretReport
from metasrl.results import SweepResult
from metasrl.taskgen import GridSpec, gen_frozen_lake

from oracles import (independent_set_reference, monte_carlo_objective,
                     policy_evaluation_reference, q_backup_reference,
                     random_cmdp, schur_reference, successor_arrays,
                     visitation_reference, visitation_schur_reference)


def two_state_cycle(gamma=0.5):
    p = np.zeros((2, 2, 2))
    p[0, :, 1] = 1.0
    p[1, :, 0] = 1.0
    return TabularCmdp(kernel=(np.arange(len(p)), p),
                       reward=np.array([[1.0, 1.0], [0.0, 0.0]]),
                       costs=np.zeros((1, 2, 2)),
                       limits=np.array([100.0]),
                       discount=gamma,
                       initial_dist=np.array([1.0, 0.0]),
                       c_max=1.0)


class TestPolicyFromLogits:
    """SoftmaxPolicy built from a logit table."""

    def test_zeros_give_uniform(self):
        pol = SoftmaxPolicy(logits=np.zeros((3, 2)))
        assert np.allclose(pol.probs, 0.5)

    def test_log3_row(self):
        pol = SoftmaxPolicy(logits=np.array([[np.log(3.0), 0.0]]))
        assert np.allclose(pol.probs, [[0.75, 0.25]], atol=1e-12)

    def test_shift_invariance(self):
        logits = np.array([[1.0, -2.0], [0.5, 3.0]])
        a = SoftmaxPolicy(logits=logits).probs
        b = SoftmaxPolicy(logits=logits + 7.0).probs
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            SoftmaxPolicy(logits=np.array([[np.inf, 0.0]]))

    def test_non_table_rejected(self):
        with pytest.raises(InvalidInput):
            SoftmaxPolicy(logits=np.zeros(3))

    def test_large_logits_stable(self):
        pol = SoftmaxPolicy(logits=np.array([[1e4, 0.0]]))
        assert np.all(np.isfinite(pol.probs))
        assert abs(pol.probs.sum() - 1.0) < 1e-12

    def test_probs_computed_on_first_read_only(self, monkeypatch):
        calls = []
        original = cmdp_module._softmax_rows
        monkeypatch.setattr(cmdp_module, "_softmax_rows",
                            lambda logits: calls.append(1) or original(logits))
        logits = np.array([[1.0, -2.0], [0.5, 3.0]])
        pol = SoftmaxPolicy(logits=logits)
        assert calls == []
        probs = pol.probs
        assert calls == [1] and pol.probs is probs
        assert probs.tobytes() == original(logits).tobytes()
        with pytest.raises(ValueError):
            probs[0, 0] = 1.0
        with pytest.raises(AttributeError):   # FrozenInstanceError
            pol.probs = np.ones((2, 2))


class TestPolicyEvaluation:
    def test_constant_reward(self):
        rng = np.random.default_rng(0)
        cmdp = random_cmdp(rng)
        const = TabularCmdp(kernel=cmdp.kernel,
                            reward=np.full((4, 3), 0.7),
                            costs=cmdp.costs, limits=cmdp.limits,
                            discount=cmdp.discount,
                            initial_dist=cmdp.initial_dist, c_max=1.0)
        pol = SoftmaxPolicy.uniform(4, 3)
        v, _ = policy_evaluation_exact(const, pol.probs)
        assert np.allclose(v[0], 0.7 / (1 - const.discount), atol=1e-10)

    def test_zero_reward(self):
        cmdp = random_cmdp(np.random.default_rng(1))
        v, q = policy_evaluation_exact(
            TabularCmdp(kernel=cmdp.kernel,
                        reward=np.zeros((4, 3)), costs=cmdp.costs,
                        limits=cmdp.limits, discount=cmdp.discount,
                        initial_dist=cmdp.initial_dist, c_max=1.0),
            SoftmaxPolicy.uniform(4, 3).probs)
        assert v.shape == (2, 4) and q.shape == (2, 4, 3)
        assert np.allclose(v[0], 0.0) and np.allclose(q[0], 0.0)

    def test_two_state_cycle(self):
        cmdp = two_state_cycle()
        v, _ = policy_evaluation_exact(cmdp, SoftmaxPolicy.uniform(2, 2).probs)
        assert abs(v[0, 0] - 4.0 / 3.0) < 1e-12
        assert abs(v[0, 1] - 2.0 / 3.0) < 1e-12

    def test_bellman_consistency(self):
        cmdp = random_cmdp(np.random.default_rng(2))
        pol = SoftmaxPolicy(logits=np.random.default_rng(3).standard_normal((4, 3)))
        v, q = (table[0] for table in policy_evaluation_exact(cmdp, pol.probs))
        assert np.max(np.abs((pol.probs * q).sum(axis=1) - v)) < 1e-10
        assert np.all(v >= -1e-12)
        assert np.all(v <= cmdp.c_max / (1 - cmdp.discount) + 1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4)], ids=["extra-action", "stack"])
    def test_refuses_table_of_wrong_shape(self, shape):
        """The critic takes one (S, A) table or a stack (..., S, A) of them:
        neither a table with an extra action column nor a stack of such
        tables."""
        cmdp = random_cmdp(np.random.default_rng(0))
        with pytest.raises(InvalidInput, match="shape"):
            policy_evaluation_exact(cmdp, np.full(shape, 1.0 / shape[-1]))

    def test_objective_tables_built_once(self):
        cmdp = random_cmdp(np.random.default_rng(16), n_costs=2)
        tables = cmdp.objective_tables
        assert tables is cmdp.objective_tables and not tables.flags.writeable
        assert np.array_equal(tables, np.concatenate([cmdp.reward[None], cmdp.costs]))


def evaluator_cases():
    """(cmdp, policy) pairs: 8 random CMDPs with p = 1, 2, 3, the 4x4, 8x8
    and 16x16 gridworlds, and the 8x8 one with random reward and cost
    tables, each under a random softmax policy."""
    rng = np.random.default_rng(20)
    cases = [random_cmdp(rng, n_states=int(rng.integers(2, 9)),
                         n_actions=int(rng.integers(2, 5)), n_costs=1 + k % 3,
                         gamma=float(rng.uniform(0.5, 0.99)))
             for k in range(8)]
    cases += [gen_frozen_lake(GridSpec(rows=n, cols=n, seed=2)) for n in (4, 8, 16)]
    # the 8x8 kernel with random tables: T states earn reward and cost, so
    # the core values depend on V_T through the off-diagonal block
    grid, tables = cases[-2], np.random.default_rng(21).random((3, 65, 4))
    cases.append(TabularCmdp(
        kernel=grid.kernel, reward=tables[0], costs=tables[1:], limits=np.ones(2),
        discount=grid.discount, initial_dist=grid.initial_dist, c_max=1.0))
    return [pytest.param(cmdp, SoftmaxPolicy(
        logits=rng.standard_normal((cmdp.n_states, cmdp.n_actions))), id=f"case{k}")
            for k, cmdp in enumerate(cases)]


def close(x, ref):
    return np.all(np.abs(x - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


class TestOneFactorisation:
    """All p+1 objectives solved against one LU factorisation agree with one
    dense solve per objective."""

    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_matches_per_objective_solves(self, cmdp, pol):
        v, q = policy_evaluation_exact(cmdp, pol.probs)
        ref_v, ref_q = policy_evaluation_reference(cmdp, pol.probs)
        assert v.shape == (cmdp.n_costs + 1, cmdp.n_states)
        assert q.shape == (cmdp.n_costs + 1, cmdp.n_states, cmdp.n_actions)
        assert close(v, ref_v) and close(q, ref_q)
        assert close(all_objectives(cmdp, pol),
                     np.array([cmdp.initial_dist @ rv for rv in ref_v]))

    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_q_is_one_backup_of_its_own_v(self, cmdp, pol):
        for i, (v, q) in enumerate(zip(*policy_evaluation_exact(cmdp, pol.probs))):
            assert np.array_equal(q, q_backup_reference(cmdp, i, v))

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_residual_checked_on_every_column(self, monkeypatch, column):
        cmdp = random_cmdp(np.random.default_rng(12), n_costs=2)
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[..., column] += 1e-6   # the solve's right-hand sides are its last axis
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(NumericalFailure):
            policy_evaluation_exact(cmdp, SoftmaxPolicy.uniform(4, 3).probs)


def stacked_cases():
    """(cmdp, stack): 6 random CMDPs (p = 1, 2, 3, each rho spread out)
    under a (5, S, A) stack and a (2, 3, S, A) stack of random softmax
    tables, and the 16x16 gridworlds of seeds 0-2 under a (5, S, A) stack."""
    rng = np.random.default_rng(40)
    cases = []
    for k in range(6):
        cmdp = random_cmdp(rng, n_states=int(rng.integers(2, 9)),
                           n_actions=int(rng.integers(2, 5)), n_costs=1 + k % 3,
                           gamma=float(rng.uniform(0.5, 0.99)))
        lead = (5,) if k % 2 else (2, 3)
        cases.append((cmdp, lead))
    cases += [(gen_frozen_lake(GridSpec(rows=16, cols=16, seed=s)), (5,))
              for s in range(3)]
    return [pytest.param(cmdp, cmdp_module._softmax_rows(rng.standard_normal(
        lead + (cmdp.n_states, cmdp.n_actions))), id=f"case{k}")
            for k, (cmdp, lead) in enumerate(cases)]


class TestStackedEvaluation:
    """A stack of tables is evaluated in one call, and each table gets the
    bits it gets alone: v, q, and J = v @ rho read off the stack."""

    @pytest.mark.parametrize("cmdp, stack", stacked_cases())
    def test_each_table_as_alone(self, cmdp, stack):
        v, q = policy_evaluation_exact(cmdp, stack)
        lead = stack.shape[:-2]
        assert v.shape == lead + (cmdp.n_costs + 1, cmdp.n_states)
        assert q.shape == lead + (cmdp.n_costs + 1, cmdp.n_states, cmdp.n_actions)
        j = v @ cmdp.initial_dist
        for index in np.ndindex(lead):
            v1, q1 = policy_evaluation_exact(cmdp, stack[index])
            assert v[index].tobytes() == v1.tobytes()
            assert q[index].tobytes() == q1.tobytes()
            assert j[index].tobytes() == (v1 @ cmdp.initial_dist).tobytes()
            assert j[index].tobytes() == all_objectives(
                cmdp, TablePolicy(probs=stack[index])).tobytes()

    def test_one_failing_table_fails_the_stack(self, monkeypatch):
        """The residual is checked on every table: a stack with one bad
        table raises, naming the largest residual."""
        cmdp = random_cmdp(np.random.default_rng(12), n_costs=2)
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            if len(x) > 2:
                x[2] += 1e-6    # the third table's solution only
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        stack = np.full((4, 4, 3), 1.0 / 3.0)
        with pytest.raises(NumericalFailure, match="Bellman residual"):
            policy_evaluation_exact(cmdp, stack)
        policy_evaluation_exact(cmdp, stack[:2])


class TestSuccessorView:
    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_scatters_back_to_the_kernel(self, cmdp, pol):
        idx, prob = cmdp.successors
        dense = np.zeros_like(cmdp.transition)
        s, a, _ = np.indices(idx.shape)
        np.add.at(dense, (s, a, idx), prob)
        assert np.array_equal(dense, cmdp.transition)
        ref_idx, ref_prob = successor_arrays(cmdp.transition)
        assert np.array_equal(prob, ref_prob)
        assert np.array_equal(idx, ref_idx)
        if np.all(cmdp.transition > 0):  # a random dense kernel: K = S
            assert idx.shape[2] == cmdp.n_states

    def test_padded_entries_have_probability_zero(self):
        cmdp = gen_frozen_lake(GridSpec(rows=8, cols=8, seed=2))
        idx, prob = cmdp.successors
        counts = (cmdp.transition != 0).sum(axis=2)
        padded = np.arange(idx.shape[2]) >= counts[..., None]
        assert padded.any()
        assert np.all(prob[padded] == 0.0) and np.all(prob[~padded] != 0.0)
        assert np.array_equal(idx[padded], np.nonzero(padded)[0])

    def test_built_once_on_first_use(self):
        cmdp = gen_frozen_lake(GridSpec(rows=4, cols=4, seed=2))
        assert "successors" not in vars(cmdp)
        assert cmdp.successors is cmdp.successors
        assert not cmdp.successors[0].flags.writeable
        assert not cmdp.successors[1].flags.writeable

    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_visitation_matches_einsum_reference(self, cmdp, pol):
        vis = visitation_exact(cmdp, pol)
        nu = visitation_schur_reference(cmdp, pol.probs)
        assert np.array_equal(vis.nu, nu)
        assert abs(vis.nu.sum() - 1.0) < 1e-10
        dense = visitation_reference(cmdp, pol.probs)
        assert np.max(np.abs(vis.nu - dense)) <= 1e-14


def entry_cmdp(idx, prob):
    """A CMDP on the kernel entries (idx, prob), all other fields trivial."""
    s_n, a_n, _ = np.shape(prob)
    return TabularCmdp(kernel=(idx, prob), reward=np.zeros((s_n, a_n)),
                       costs=np.zeros((1, s_n, a_n)), limits=np.ones(1),
                       discount=0.9, initial_dist=np.eye(s_n)[0], c_max=1.0)


class TestKernelEntries:
    """The kernel as entries (idx, prob), against hand-computed views."""

    def test_repeated_states_merge_in_entry_order(self):
        idx = np.array([[[1, 1, 1], [0, 1, 0]], [[1, 0, 0], [1, 0, 0]]])
        prob = np.array([[[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]],
                         [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
        cmdp = entry_cmdp(idx, prob)
        in_order = (0.7 + 0.2) + 0.1
        assert in_order != 0.7 + (0.2 + 0.1)   # the order shows in the total
        succ_idx, succ_prob = cmdp.successors
        assert succ_idx.tolist() == [[[1, 0], [0, 1]], [[1, 1], [1, 1]]]
        assert succ_prob.tolist() == [[[in_order, 0.0], [0.1 + 0.3, 0.6]],
                                      [[1.0, 0.0], [1.0, 0.0]]]
        assert cmdp.transition.tolist() == [[[0.0, in_order], [0.1 + 0.3, 0.6]],
                                            [[0.0, 1.0], [0.0, 1.0]]]
        assert not cmdp.transition.flags.writeable

    def test_dense_kernel_is_its_own_entries(self):
        cmdp = random_cmdp(np.random.default_rng(15))
        idx, prob = cmdp.kernel   # from (np.arange(S), P)
        assert idx.shape == prob.shape and not idx.flags.writeable
        assert np.array_equal(idx, np.broadcast_to(np.arange(cmdp.n_states), prob.shape))
        assert np.array_equal(cmdp.transition, prob)
        again = TabularCmdp(kernel=(np.array(idx), prob),
                            reward=cmdp.reward, costs=cmdp.costs, limits=cmdp.limits,
                            discount=cmdp.discount, initial_dist=cmdp.initial_dist,
                            c_max=cmdp.c_max)
        for ours, theirs in zip(again.successors, cmdp.successors):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("slip", [0.0, 1.0])
    def test_entries_that_total_zero_are_dropped(self, slip):
        cmdp = gen_frozen_lake(GridSpec(rows=5, cols=5, slip_prob=slip, seed=1))
        idx, prob = cmdp.successors
        ref_idx, ref_prob = successor_arrays(cmdp.transition)
        assert np.array_equal(prob, ref_prob)
        assert np.array_equal(idx[prob != 0], ref_idx[ref_prob != 0])
        assert idx.shape[2] == (1 if slip == 0.0 else 2)
        # the zero-mass entries are in the kernel, not in the view
        assert (cmdp.kernel[1] == 0).sum() > (prob == 0).sum()

    @pytest.mark.parametrize("idx, prob, match", [
        ([[[0, 2]]], [[[0.5, 0.5]]], "out of range"),
        ([[[0, -1]]], [[[0.5, 0.5]]], "out of range"),
        ([[[0.0, 0.0]]], [[[0.5, 0.5]]], "integer"),
        ([[[0, 0, 0]]], [[[0.5, 0.5]]], "broadcast"),
        ([[[0], [0]]], [[[0.5, 0.5]]], "broadcast"),
        ([0], [[0.5, 0.5]], "shape"),
        ([0], np.ones((1, 1, 0)), "shape"),
        ([[[0, 0]]], [[[0.5, np.nan]]], "NaN"),
    ])
    def test_bad_entries_rejected(self, idx, prob, match):
        with pytest.raises(InvalidInput, match=match):
            TabularCmdp(kernel=(np.array(idx), np.array(prob)), reward=np.zeros((1, 1)),
                        costs=np.zeros((1, 1, 1)), limits=np.ones(1), discount=0.9,
                        initial_dist=np.ones(1), c_max=1.0)

    def test_16x16_round_trip_keeps_the_view_and_the_bytes(self):
        cmdp = gen_frozen_lake(GridSpec(rows=16, cols=16, seed=1))
        text = cmdp.to_json()
        again = TabularCmdp.from_json(text)
        assert again.to_json() == text
        for ours, theirs in zip(again.successors, cmdp.successors):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    def test_16x16_grid_stores_no_dense_array(self):
        """The task as built and as read back from JSON: neither holds an
        (S, A, S) array, and the loaded one, stored on its successor view,
        solves bit for bit as the built one does."""
        cmdp = gen_frozen_lake(GridSpec(rows=16, cols=16, seed=1))
        loaded = TabularCmdp.from_json(cmdp.to_json())
        pol = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
        dense = cmdp.n_states * cmdp.n_actions * cmdp.n_states
        solves = []
        for task in (cmdp, loaded):
            v, q = policy_evaluation_exact(task, pol.probs)
            solves.append((v, q, visitation_exact(task, pol).nu))
            sample_episode(task, pol.probs, 10, np.random.default_rng(0))
            stored = [a for value in vars(task).values()
                      for a in (value if isinstance(value, tuple) else (value,))]
            assert {"successors", "successor_cdf", "elimination"} <= set(vars(task))
            assert all(np.size(a) < dense for a in stored)
            n_dep = task.n_states - task.elimination.blocks[0]
            assert all(np.size(a) < n_dep * n_dep for a in task.elimination)
        assert loaded.kernel[1].size <= cmdp.n_states * cmdp.n_actions * 3
        # the successors of the loaded task, and those rebuilt from its kernel
        for view in (loaded.successors, replace(loaded).successors):
            for ours, theirs in zip(view, cmdp.successors):
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        assert loaded.elimination.blocks == cmdp.elimination.blocks
        for ours, theirs in zip(loaded.elimination[1:], cmdp.elimination[1:]):
            assert np.array_equal(ours, theirs)
        for ours, theirs in zip(*solves):
            assert np.array_equal(ours, theirs)


def gridworld_cases():
    return [gen_frozen_lake(GridSpec(rows=n, cols=n, seed=seed))
            for n in (4, 5, 8, 16) for seed in range(3)]


def sparse_cases():
    """Dense random CMDPs; random CMDPs whose rows reach at most two states,
    the upper half of them closed, with rho on one state of the lower half;
    and 4x4 and 16x16 gridworlds."""
    rng = np.random.default_rng(15)
    cases = [random_cmdp(rng, n_states=n) for n in (1, 3, 6, 9)]
    for n in (2, 5, 8, 12, 20):
        base = random_cmdp(rng, n_states=n)
        transition = np.zeros_like(base.transition)
        for s, a in np.ndindex(n, base.n_actions):
            low = n // 2 if s >= n // 2 else 0
            np.add.at(transition[s, a], rng.integers(low, n, size=2),
                      rng.dirichlet(np.ones(2)))
        cases.append(TabularCmdp(
            kernel=(np.arange(n), transition), reward=base.reward,
            costs=base.costs, limits=base.limits, discount=base.discount,
            initial_dist=np.eye(n)[rng.integers(n // 2)], c_max=base.c_max))
    return cases + [gen_frozen_lake(GridSpec(rows=n, cols=n, seed=seed))
                    for n in (4, 16) for seed in range(3)]


def linked(cmdp, rows, cols):
    """Whether some action moves from a state of rows to another state of
    cols, or back."""
    mass = cmdp.transition.sum(axis=1)
    np.fill_diagonal(mass, 0.0)
    return bool(mass[np.ix_(rows, cols)].any() or mass[np.ix_(cols, rows)].any())


class TestBlockOrder:
    """The elimination's block order: the greedy independent set I first,
    the rest J last, and the pattern slots and fill terms that eliminate I."""

    @pytest.mark.parametrize("cmdp", [case.values[0] for case in evaluator_cases()]
                             + gridworld_cases())
    def test_core_and_rest_match_a_plain_search(self, cmdp):
        """I (the leading block) and J (the rest) match a plain-Python
        greedy search over the dense kernel."""
        e = cmdp.elimination
        n = e.blocks[0]
        indep = independent_set_reference(cmdp)
        assert list(e.order[:n]) == indep
        assert list(e.order[n:]) == sorted(set(range(cmdp.n_states)) - set(indep))
        assert np.array_equal(e.rank[e.order], np.arange(cmdp.n_states))

    @pytest.mark.parametrize("cmdp", sparse_cases())
    def test_search_matches_the_fixpoint(self, cmdp):
        """I is the fixpoint of the greedy rule: a state is in I exactly when
        no earlier state of I is linked to it. So no pattern entry links two
        I states, and every J state is linked to an I state before it."""
        e = cmdp.elimination
        indep = e.order[:e.blocks[0]].tolist()
        in_i = set(indep)
        for s in range(cmdp.n_states):
            earlier = [t for t in indep if t < s]
            assert (s in in_i) == (not linked(cmdp, [s], earlier))

    @pytest.mark.parametrize("cmdp", gridworld_cases())
    def test_every_dependent_state_is_linked_to_the_set(self, cmdp):
        e = cmdp.elimination
        n = e.blocks[0]
        assert 0 < n < cmdp.n_states
        for j in e.order[n:]:
            assert linked(cmdp, [j], e.order[:n])

    def test_one_independent_state_on_dense_kernels(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            cmdp = random_cmdp(rng, n_states=int(rng.integers(1, 9)))
            e = cmdp.elimination
            assert e.blocks[0] == 1
            assert np.array_equal(e.order, np.arange(cmdp.n_states))

    def test_cached_and_read_only(self):
        cmdp = gen_frozen_lake(GridSpec(rows=4, cols=4, seed=2))
        assert "elimination" not in vars(cmdp)
        e = cmdp.elimination
        assert e is cmdp.elimination
        arrays = [a for a in e if isinstance(a, np.ndarray)]
        assert len(arrays) == len(e) - 1
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_bins_scatter_back_to_the_permuted_kernel(self, cmdp, pol):
        """The slots follow the pattern block by block, and the successor
        view scattered through them, one action at a time, is that action's
        kernel with rows and columns in block order."""
        e = cmdp.elimination
        n, b1, b2, nnz = e.blocks
        idx, prob = cmdp.successors
        rows = np.broadcast_to(np.arange(cmdp.n_states)[:, None, None], idx.shape)
        pos_s, pos_t = e.rank[rows].ravel(), e.rank[idx].ravel()
        # one slot per (row, column) pair; only diagonal slots may go unused
        pairs = {}
        for slot, key in zip(e.slot.tolist(), zip(pos_s.tolist(), pos_t.tolist())):
            assert pairs.setdefault(slot, key) == key
        assert len(set(pairs.values())) == len(pairs)
        assert set(pairs) <= set(range(nnz))
        assert nnz - sum(r != c for r, c in pairs.values()) <= cmdp.n_states
        # blocks 0-3: the I diagonal, IJ, JI, JJ; no slot links two I states
        for slot, (r, c) in pairs.items():
            assert r == c or r >= n or c >= n
            assert (n <= slot) + (b1 <= slot) + (b2 <= slot) == 2 * (r >= n) + (c >= n)
        slots = e.slot.reshape(idx.shape)
        used = np.array(sorted(pairs))
        at = np.array([pairs[k] for k in used.tolist()]).T
        permuted = cmdp.transition[np.ix_(e.order, np.arange(cmdp.n_actions), e.order)]
        for a in range(cmdp.n_actions):
            flat = np.zeros(nnz)
            np.add.at(flat, slots[:, a], prob[:, a])
            dense = np.zeros((cmdp.n_states, cmdp.n_states))
            dense[at[0], at[1]] = flat[used]
            assert np.array_equal(dense, permuted[:, a])

    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_bellman_matrix_is_the_permuted_dense_one_bit_for_bit(self, cmdp, pol):
        """In block order the dense I - gamma P_pi, each entry summed over
        ascending a as the solve sums it, has the diagonal D as its I x I
        block and A_JI as its J x I block, bit for bit; S, R, A_JI and D
        match a dense numpy Schur complement bit for bit."""
        nd, s, r, a_ji = cmdp_module._schur_complement(
            cmdp, pol.probs, -cmdp.discount * cmdp.successors[1])
        indep, dep, ref_nd, ref_s, ref_r, ref_a_ji = schur_reference(cmdp, pol.probs)
        n = cmdp.elimination.blocks[0]
        order = cmdp.elimination.order
        dense = np.eye(cmdp.n_states) + np.einsum(
            "sa,sat->st", pol.probs, -cmdp.discount * cmdp.transition)
        permuted = dense[np.ix_(order, order)]
        assert np.array_equal(permuted[:n, :n], np.diag(-nd))
        assert np.array_equal(permuted[n:, :n], a_ji)
        for got, ref in [(nd, ref_nd), (s, ref_s), (r, ref_r), (a_ji, ref_a_ji)]:
            assert got.shape == ref.shape and np.array_equal(got, ref)

    @pytest.mark.parametrize("cmdp, pol", evaluator_cases())
    def test_values_and_visitation_match_full_lu(self, cmdp, pol):
        for got, ref in zip(policy_evaluation_exact(cmdp, pol.probs),
                            policy_evaluation_reference(cmdp, pol.probs)):
            assert np.max(np.abs(got - ref)) <= 1e-13
        nu = visitation_exact(cmdp, pol).nu
        assert np.max(np.abs(nu - visitation_reference(cmdp, pol.probs))) <= 1e-13


class TestVisitation:
    def test_single_absorbing_state(self):
        cmdp = TabularCmdp(kernel=(np.arange(1), np.ones((1, 2, 1))),
                           reward=np.zeros((1, 2)), costs=np.zeros((1, 1, 2)),
                           limits=np.array([1.0]), discount=0.9,
                           initial_dist=np.array([1.0]), c_max=1.0)
        nu = visitation_exact(cmdp, SoftmaxPolicy.uniform(1, 2)).nu
        assert np.allclose(nu, [1.0])

    def test_zero_discount_limit(self):
        rng = np.random.default_rng(4)
        base = random_cmdp(rng)
        cmdp = TabularCmdp(kernel=base.kernel, reward=base.reward,
                           costs=base.costs, limits=base.limits,
                           discount=1e-12, initial_dist=base.initial_dist,
                           c_max=1.0)
        nu = visitation_exact(cmdp, SoftmaxPolicy.uniform(4, 3)).nu
        assert np.max(np.abs(nu - cmdp.initial_dist)) < 1e-10

    def test_two_state_cycle(self):
        nu = visitation_exact(two_state_cycle(), SoftmaxPolicy.uniform(2, 2)).nu
        assert np.allclose(nu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


class TestExpectedObjective:
    def test_zero_cost(self):
        cmdp = random_cmdp(np.random.default_rng(6))
        zeroed = TabularCmdp(kernel=cmdp.kernel, reward=cmdp.reward,
                             costs=np.zeros((1, 4, 3)), limits=cmdp.limits,
                             discount=cmdp.discount,
                             initial_dist=cmdp.initial_dist, c_max=1.0)
        assert all_objectives(zeroed, SoftmaxPolicy.uniform(4, 3))[1] == 0.0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        cmdp = random_cmdp(rng, n_states=3)
        pol = SoftmaxPolicy.uniform(3, 3)
        exact = all_objectives(cmdp, pol)[0]
        mc, stderr = monte_carlo_objective(cmdp, pol.probs, 0, 10 ** 6, seed=8)
        assert abs(exact - mc) <= 3 * stderr

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_identity(self, seed):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, n_states=int(rng.integers(2, 6)),
                           n_actions=int(rng.integers(2, 4)))
        pol = SoftmaxPolicy(logits=rng.standard_normal(
            (cmdp.n_states, cmdp.n_actions)))
        nu_sa = visitation_exact(cmdp, pol).nu[:, None] * pol.probs
        for i in range(cmdp.n_costs + 1):
            j = all_objectives(cmdp, pol)[i]
            occ = (nu_sa * cmdp.objective_tables[i]).sum() / (1 - cmdp.discount)
            assert abs(j - occ) <= 1e-8


class TestSerialization:
    def test_bit_exact_round_trip(self):
        cmdp = random_cmdp(np.random.default_rng(9))
        text = cmdp.to_json()
        again = TabularCmdp.from_json(text)
        assert again.to_json() == text
        assert np.array_equal(again.transition, cmdp.transition)
        assert np.array_equal(again.reward, cmdp.reward)

    def test_loaded_task_is_built_once_on_its_view(self, monkeypatch):
        cmdp = gen_frozen_lake(GridSpec(rows=4, cols=4, seed=2))
        text = cmdp.to_json()
        built = []
        validate = TabularCmdp._validate
        monkeypatch.setattr(TabularCmdp, "_validate",
                            lambda self: built.append(self) or validate(self))
        loaded = TabularCmdp.from_json(text)
        assert built == [loaded] and "successors" not in vars(loaded)
        for ours, theirs in zip(loaded.kernel, cmdp.successors):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("transition, match", [
        ([[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]], "shape"),
        ([[1.0, 0.0], [0.0, 1.0]], "shape"),
        ([[[]]], "shape"),
        ([[[0.5, 0.4]], [[0.0, 1.0]]], "sum to 1"),
        ([[[1.5, -0.5]], [[0.0, 1.0]]], "negative"),
        ([[[np.nan, 1.0]], [[0.0, 1.0]]], "NaN"),
    ])
    def test_malformed_kernel_refused(self, transition, match):
        doc = json.loads(TabularCmdp(
            kernel=(np.arange(2), np.array([[[1.0, 0.0]], [[0.0, 1.0]]])),
            reward=np.zeros((2, 1)), costs=np.zeros((1, 2, 1)), limits=np.ones(1),
            discount=0.9, initial_dist=np.array([1.0, 0.0]), c_max=1.0).to_json())
        doc["transition"] = transition
        with pytest.raises(InvalidInput, match=match):
            TabularCmdp.from_json(json.dumps(doc))

    def test_json_bytes_match_the_17_digit_round_trip(self, monkeypatch, tmp_path):
        """Exported floats are written as json writes each float64: the same
        bytes as a round trip through 17 significant digits, which is exact."""
        def fmt_17g(x):
            if np.isscalar(x) or isinstance(x, float):
                return float(f"{float(x):.17g}")
            return [fmt_17g(v) for v in np.asarray(x)]

        specials = [0.1, 1.0 / 3.0, 5e-324, -0.0]
        cmdp = TabularCmdp(
            kernel=(np.arange(1), np.ones((1, 4, 1))), reward=np.array([specials]),
            costs=np.zeros((6, 1, 4)),
            limits=np.array([np.inf, -np.inf] + specials), discount=1.0 / 3.0,
            initial_dist=np.array([1.0]), c_max=1.0)
        report = RegretReport(
            taog=np.nan, tacv=np.array([np.inf, -np.inf]),
            tacv_clipped=np.array(specials), static_regret=-0.0,
            dynamic_regret=5e-324, d_hat_sq=1.0 / 3.0, v_hat_sq=0.1,
            path_length=np.float64(np.nan), sq_path_length=-np.inf,
            inexactness_proxy=np.zeros(2))

        def report_json():
            result = SweepResult.allocate(("X",), n_runs=1, steps=1,
                                          limits=np.zeros((1, 0)), optima=[])
            harness_module.export_report(result, {"X": report}, str(tmp_path))
            return (tmp_path / "regret_X.json").read_text()

        for text, value in [("NaN", np.nan), ("Infinity", np.inf),
                            ("-Infinity", -np.inf), ("-0.0", -0.0),
                            ("5e-324", 5e-324), ("0.1", 0.1),
                            ("0.3333333333333333", 1.0 / 3.0)]:
            assert json.dumps(cmdp_module._fmt(value)) == text
        ours = cmdp.to_json(), report_json()
        assert '"limits": [Infinity, -Infinity, 0.1, 0.3333333333333333, ' \
            '5e-324, -0.0]' in ours[0]
        monkeypatch.setattr(cmdp_module, "_fmt", fmt_17g)
        monkeypatch.setattr(harness_module, "_fmt", fmt_17g)
        assert (cmdp.to_json(), report_json()) == ours

    def test_invariant_rejections(self):
        good = random_cmdp(np.random.default_rng(10))
        bad_p = np.array(good.transition)
        bad_p[0, 0, 0] += 0.1
        with pytest.raises(InvalidInput):
            TabularCmdp(kernel=(np.arange(len(bad_p)), bad_p), reward=good.reward,
                        costs=good.costs, limits=good.limits, discount=good.discount,
                        initial_dist=good.initial_dist, c_max=1.0)
        with pytest.raises(InvalidInput):
            TabularCmdp(kernel=good.kernel, reward=good.reward,
                        costs=good.costs, limits=good.limits, discount=1.0,
                        initial_dist=good.initial_dist, c_max=1.0)
        with pytest.raises(InvalidInput):
            TabularCmdp(kernel=good.kernel, reward=good.reward + 5.0,
                        costs=good.costs, limits=good.limits,
                        discount=good.discount,
                        initial_dist=good.initial_dist, c_max=1.0)

    @pytest.mark.parametrize("field", ["transition", "reward", "costs",
                                       "limits", "initial_dist", "c_max"])
    def test_nan_rejected(self, field):
        good = random_cmdp(np.random.default_rng(13))
        fields = {name: np.array(getattr(good, name)) for name in
                  ("reward", "costs", "limits", "initial_dist")}
        prob = np.array(good.kernel[1])
        fields.update(kernel=(good.kernel[0], prob), discount=good.discount,
                      c_max=good.c_max)
        if field == "c_max":
            fields["c_max"] = np.nan
        elif field == "transition":  # the kernel's probabilities
            prob.flat[0] = np.nan
        else:
            fields[field].flat[0] = np.nan
        with pytest.raises(InvalidInput):
            TabularCmdp(**fields)

    def test_all_objectives_shape(self):
        cmdp = random_cmdp(np.random.default_rng(11), n_costs=2)
        j = all_objectives(cmdp, SoftmaxPolicy.uniform(4, 3))
        assert j.shape == (3,)
