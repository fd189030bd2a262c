import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metasrl.cmdp import SoftmaxPolicy, TablePolicy, visitation_exact
from metasrl.crpo import CrpoConfig, run_crpo
from metasrl.dice import (CorrectionTable, DiceConfig, TrajectoryDataset,
                          _model_visitation, dualdice_fit, error_decomposition,
                          kl_loss_and_grad, visitation_from_corrections)
from metasrl.errors import (CoverageWarning, DegenerateEstimate,
                            DegenerateRun, InvalidInput, SamplerError)
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import (GridSpec, TaskSequenceConfig, gen_frozen_lake,
                             gen_task_sequence)

from oracles import (central_difference, dense_kernel, dualdice_direct_reference,
                     empirical_kernel_reference, model_visitation_reference,
                     random_cmdp, sgd_fit_reference, sgd_z_reference)


def exact_dataset(cmdp, behavior):
    """Exact-expectation dataset whose data distribution is the behavior
    policy's discounted state-action visitation."""
    nu = visitation_exact(cmdp, behavior).nu
    return TrajectoryDataset.from_distribution(
        nu[:, None] * behavior.probs, cmdp.kernel, cmdp.initial_dist)


def crpo_log(cmdp, rng_seed):
    """The transition log and returned policy of a CRPO run from uniform on
    `cmdp`, with the test_09 CRPO settings."""
    config = CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                        episodes_per_step=5, episode_horizon=60,
                        rng_seed=rng_seed)
    try:
        outcome = run_crpo(
            cmdp, SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions), config)
    except DegenerateRun as exc:
        outcome = exc.outcome
    return outcome.dataset, outcome.returned_policy


def gridworld_log(size, seed):
    """A gridworld and the `crpo_log` on it, both from `seed`."""
    cmdp = gen_frozen_lake(GridSpec(rows=size, cols=size, seed=seed))
    return (cmdp, *crpo_log(cmdp, seed))


def assert_close(omega, ref):
    """Agreement to 1e-9 relative."""
    assert np.max(np.abs(omega - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def assert_matches_dense(ds, target, gamma):
    """With full coverage, DirectSolve agrees with the dense min-norm lstsq
    of DualDICE's normal equations."""
    assert ds.d_sa.all()
    assert_close(dualdice_fit(ds, target, gamma).omega,
                 dualdice_direct_reference(ds, target.probs, gamma))


def assert_matches_model(ds, target, gamma):
    """DirectSolve's ratios are the dense empirical model's visitation over
    d on the covered pairs, 0 elsewhere."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        omega = dualdice_fit(ds, target, gamma).omega
    nu = model_visitation_reference(ds, target.probs, gamma)
    covered = ds.d_sa > 0
    ref = np.zeros(covered.shape)
    ref[covered] = np.maximum(nu[:, None] * target.probs, 0.0)[covered] / ds.d_sa[covered]
    assert_close(omega, ref)


class TestDirectSolve:
    def test_recovers_exact_visitation(self):
        rng = np.random.default_rng(0)
        cmdp = random_cmdp(rng)
        behavior = SoftmaxPolicy.uniform(4, 3)
        target = SoftmaxPolicy(logits=rng.standard_normal((4, 3)))
        ds = exact_dataset(cmdp, behavior)
        corr = dualdice_fit(ds, target, cmdp.discount)
        nu_sa = visitation_exact(cmdp, target).nu[:, None] * target.probs
        assert np.max(np.abs(corr.omega * ds.d_sa - nu_sa)) < 1e-8
        est = visitation_from_corrections(ds, corr)
        ref = visitation_exact(cmdp, target).nu
        assert np.max(np.abs(est.nu - ref)) < 1e-8

    def test_identity_when_target_is_behavior(self):
        rng = np.random.default_rng(1)
        cmdp = random_cmdp(rng)
        pol = SoftmaxPolicy(logits=rng.standard_normal((4, 3)))
        ds = exact_dataset(cmdp, pol)
        corr = dualdice_fit(ds, pol, cmdp.discount)
        assert np.max(np.abs(corr.omega - 1.0)) < 1e-7

    def test_uncovered_pairs_warn_and_zero(self):
        rng = np.random.default_rng(2)
        cmdp = random_cmdp(rng)
        behavior = SoftmaxPolicy.uniform(4, 3)
        d_sa = visitation_exact(cmdp, behavior).nu[:, None] * behavior.probs
        d_sa[0, 0] = 0.0
        ds = TrajectoryDataset.from_distribution(
            d_sa, cmdp.kernel, cmdp.initial_dist)
        target = SoftmaxPolicy(logits=rng.standard_normal((4, 3)))
        with pytest.warns(CoverageWarning):
            corr = dualdice_fit(ds, target, cmdp.discount)
        assert corr.omega[0, 0] == 0.0
        assert not corr.coverage_mask[0, 0]

    def test_full_coverage_does_not_warn(self):
        rng = np.random.default_rng(2)
        cmdp = random_cmdp(rng)
        ds = exact_dataset(cmdp, SoftmaxPolicy.uniform(4, 3))
        target = SoftmaxPolicy(logits=rng.standard_normal((4, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoverageWarning)
            corr = dualdice_fit(ds, target, cmdp.discount)
        assert corr.coverage_mask.all()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_reference_on_exact_datasets(self, seed):
        rng = np.random.default_rng(100 + seed)
        s_n, a_n = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        cmdp = random_cmdp(rng, n_states=s_n, n_actions=a_n,
                           gamma=float(rng.uniform(0.5, 0.99)))
        behavior = SoftmaxPolicy(logits=rng.standard_normal((s_n, a_n)))
        target = SoftmaxPolicy(logits=2.0 * rng.standard_normal((s_n, a_n)))
        assert_matches_dense(exact_dataset(cmdp, behavior), target,
                             cmdp.discount)

    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.booleans(), min_size=12, max_size=12).filter(any))
    @example(0, [True] + [False] * 11)
    @example(1, [False] * 11 + [True])
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference_on_partial_coverage(self, seed, mask):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng)
        d_sa = rng.dirichlet(np.ones(12)).reshape(4, 3)
        d_sa[~np.reshape(mask, (4, 3))] = 0.0
        ds = TrajectoryDataset.from_distribution(
            d_sa, cmdp.kernel, cmdp.initial_dist)
        target = SoftmaxPolicy(logits=rng.standard_normal((4, 3)))
        assert_matches_model(ds, target, cmdp.discount)

    @pytest.mark.parametrize("size,seed", [(4, 0), (4, 97), (8, 0), (8, 97),
                                           (16, 0)])
    def test_matches_dense_reference_on_gridworld_logs(self, size, seed):
        cmdp, ds, pi_hat = gridworld_log(size, seed)
        assert 0 < np.count_nonzero(ds.d_sa) < ds.d_sa.size
        assert_matches_model(ds, pi_hat, cmdp.discount)

    def test_covered_state_that_no_transition_enters(self):
        """State 0 is covered but is no successor, and its row (0, 1) has
        no padding entry: its own unseen pair (0, 0) is still a self-loop."""
        ds = TrajectoryDataset.from_samples(
            3, 2, s=[0, 0, 1], a=[1, 1, 0], s_next=[1, 2, 2], initial_states=[0])
        target = SoftmaxPolicy(
            logits=np.random.default_rng(11).standard_normal((3, 2)))
        assert_matches_model(ds, target, 0.9)

    def test_state_seen_only_as_a_next_state_keeps_its_self_loop_mass(self):
        """One logged transition (0, 0) -> 1 from s_0 = 0, gamma = 1/2 and a
        uniform target. Unseen (0, 1) holds pi(1|0) at state 0 and state 1,
        which has no row with mass, keeps all of its own: nu(0) =
        (1-gamma)/(1-gamma/2) = 2/3 and nu(1) = (gamma/2) nu(0)/(1-gamma)
        = 1/3. Only (0, 0) is covered: omega = nu(0) pi(0|0)/d = 1/3."""
        ds = TrajectoryDataset.from_samples(
            2, 2, s=[0], a=[0], s_next=[1], initial_states=[0])
        target = SoftmaxPolicy.uniform(2, 2)
        for nu in (_model_visitation(ds, target.probs, 0.5),
                   model_visitation_reference(ds, target.probs, 0.5)):
            assert np.allclose(nu, [2 / 3, 1 / 3], rtol=0, atol=1e-15)
        with pytest.warns(CoverageWarning):
            corr = dualdice_fit(ds, target, 0.5)
        assert np.allclose(corr.omega, [[1 / 3, 0.0], [0.0, 0.0]], rtol=0, atol=1e-15)
        assert_matches_model(ds, target, 0.5)

    def test_tv_to_exact_visitation_on_test09_logs(self):
        """The 100 CRPO logs from uniform of test_09's training tasks, 10 a
        task (test_09's CRPO settings, rng_seed = 1000 t + r): the estimated
        visitation of each returned policy is within TV 0.15 of the exact
        one, and within 0.045 on average. Measured: 0.094 worst, 0.038 mean;
        the min-norm normal-equations fit read 0.367 and 0.051."""
        cmdps, _, _ = gen_task_sequence(TaskSequenceConfig(
            mode="HighSimilarity", num_tasks=11, base=GridSpec(seed=2), seed=2))
        tvs = []
        for t, cmdp in enumerate(cmdps[:10]):
            for r in range(10):
                ds, pi_hat = crpo_log(cmdp, 1000 * t + r)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", CoverageWarning)
                    corr = dualdice_fit(ds, pi_hat, cmdp.discount)
                nu_hat = visitation_from_corrections(ds, corr).nu
                tvs.append(0.5 * np.abs(nu_hat - visitation_exact(cmdp, pi_hat).nu).sum())
        assert max(tvs) <= 0.15
        assert np.mean(tvs) <= 0.045

    def test_invalid_gamma(self):
        cmdp = random_cmdp(np.random.default_rng(3))
        ds = exact_dataset(cmdp, SoftmaxPolicy.uniform(4, 3))
        with pytest.raises(InvalidInput):
            dualdice_fit(ds, SoftmaxPolicy.uniform(4, 3), 1.0)


class TestSgdSolver:
    def test_approximates_direct_solve(self):
        rng = np.random.default_rng(4)
        cmdp = random_cmdp(rng, n_states=3, n_actions=2)
        behavior = SoftmaxPolicy.uniform(3, 2)
        target = SoftmaxPolicy(logits=0.5 * rng.standard_normal((3, 2)))
        # sampled dataset so the Sgd path has transitions to draw from
        n = 40_000
        s = rng.choice(3, size=n)
        a = rng.choice(2, size=n)
        transition = dense_kernel(cmdp.kernel)
        s_next = np.array([rng.choice(3, p=transition[s[i], a[i]])
                           for i in range(n)])
        ds = TrajectoryDataset.from_samples(
            3, 2, s=s, a=a, s_next=s_next,
            initial_states=rng.choice(3, size=2000, p=cmdp.initial_dist))
        cfg = DiceConfig(solver="Sgd", sgd_steps=200_000, sgd_step_size=0.02,
                         rng_seed=5)
        corr = dualdice_fit(ds, target, cmdp.discount, cfg)
        nu = visitation_from_corrections(ds, corr).nu
        ref = visitation_exact(cmdp, target).nu
        assert np.max(np.abs(nu - ref)) < 0.1


def sgd_omega(ds, target, gamma, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        return dualdice_fit(ds, target, gamma, cfg).omega


def small_log(n_tr, n_init, seed=0):
    """A sampled log of n_tr transitions and n_init initial states on a
    random 4x3 CMDP, with a random target policy."""
    rng = np.random.default_rng(seed)
    cmdp = random_cmdp(rng)
    s, a = rng.integers(4, size=n_tr), rng.integers(3, size=n_tr)
    ds = TrajectoryDataset.from_samples(
        4, 3, s=s, a=a, s_next=rng.integers(4, size=n_tr),
        initial_states=rng.integers(4, size=n_init))
    return cmdp, ds, SoftmaxPolicy(logits=rng.standard_normal((4, 3)))


class TestSgdDraws:
    """The batched Sgd fit against the one-step-at-a-time reference on the
    same batch draws: the same omega, bit for bit."""

    @pytest.mark.parametrize("size,seed", [(4, 0), (4, 97), (8, 0), (8, 97)])
    @pytest.mark.parametrize("steps", [1, 7, 1024, 1025, 10_000])
    def test_matches_reference_on_gridworld_logs(self, size, seed, steps):
        cmdp, ds, pi_hat = gridworld_log(size, seed)
        for rng_seed in (0, 12345):
            cfg = DiceConfig(solver="Sgd", sgd_steps=steps, rng_seed=rng_seed)
            assert np.array_equal(
                sgd_omega(ds, pi_hat, cmdp.discount, cfg),
                sgd_fit_reference(ds, pi_hat.probs, cmdp.discount, cfg))

    @pytest.mark.parametrize("n_tr,n_init", [(50, 1), (1, 3), (1, 1)])
    def test_integers_of_one_draw_nothing(self, n_tr, n_init):
        cmdp, ds, target = small_log(n_tr, n_init)
        for rng_seed in (0, 7):
            cfg = DiceConfig(solver="Sgd", sgd_steps=501, sgd_step_size=0.1,
                             rng_seed=rng_seed)
            assert np.array_equal(
                sgd_omega(ds, target, cmdp.discount, cfg),
                sgd_fit_reference(ds, target.probs, cmdp.discount, cfg))

    @pytest.mark.parametrize("row", [[0.5, 0.4, 0.1 + 1e-7], [0.5, 0.6, -0.1],
                                     [0.5, np.nan, 0.5], [0.5, 0.4, 0.0]])
    def test_bad_policy_raises(self, row):
        cmdp, ds, _ = small_log(50, 5)
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[ds.s_next[0]] = row
        with pytest.raises(ValueError):  # rng.choice refuses the row as well
            np.random.default_rng(0).choice(3, p=probs[ds.s_next[0]])
        with pytest.raises(SamplerError):
            dualdice_fit(ds, TablePolicy(probs=probs), cmdp.discount,
                         DiceConfig(solver="Sgd", sgd_steps=100))

    def test_rows_within_choice_tolerance_accepted(self):
        cmdp, ds, _ = small_log(50, 5)
        probs = np.full((4, 3), 1.0 / 3.0)
        probs[ds.s_next[0]] = [0.5, 0.4, 0.1 + 1e-9]
        cfg = DiceConfig(solver="Sgd", sgd_steps=300)
        assert np.array_equal(
            sgd_omega(ds, TablePolicy(probs=probs), cmdp.discount, cfg),
            sgd_fit_reference(ds, probs, cmdp.discount, cfg))

    @pytest.mark.parametrize("step_size", [np.nan, np.inf, -0.05, 0.0])
    def test_step_size_must_be_positive_and_finite(self, step_size):
        with pytest.raises(InvalidInput):
            DiceConfig(solver="Sgd", sgd_step_size=step_size)
        DiceConfig(sgd_step_size=step_size)   # DirectSolve takes no step


@pytest.mark.parametrize("solver", ["DirectSolve", "Sgd"])
@pytest.mark.parametrize("seed", [-1, True, 2.0, "3", None])
def test_dice_seed_must_be_a_count(solver, seed):
    with pytest.raises(InvalidInput, match="rng_seed"):
        DiceConfig(solver=solver, rng_seed=seed)
    DiceConfig(solver=solver, rng_seed=np.uint32(4))


class TestDataset:
    def test_empirical_counts(self):
        ds = TrajectoryDataset.from_samples(
            2, 2, s=[0, 1, 0, 0], a=[0, 1, 0, 1], s_next=[1, 0, 0, 1],
            initial_states=[0, 0])
        assert np.allclose(ds.d_sa, [[0.5, 0.25], [0.0, 0.25]])
        assert np.allclose(ds.rho_hat, [1.0, 0.0])
        assert abs(dense_kernel(ds.p_hat)[0, 0, 1] - 0.5) < 1e-12

    @pytest.mark.parametrize("size", [4, 16])
    def test_empirical_kernel_matches_two_array_construction(self, size):
        _, ds, _ = gridworld_log(size, 2)
        assert np.array_equal(dense_kernel(ds.p_hat), empirical_kernel_reference(ds))

    def test_empirical_kernel_on_repeats_and_an_unseen_pair(self):
        """Row (0, 1) logs s' = 2 three times and s' = 0 once, (1, 1) logs
        s' = 0 twice, (2, 0) once; (0, 0), (1, 0) and (2, 1) are unseen."""
        ds = TrajectoryDataset.from_samples(
            3, 2, s=[0, 0, 1, 0, 2, 0, 1], a=[1, 1, 1, 1, 0, 1, 1],
            s_next=[2, 2, 0, 0, 1, 2, 0], initial_states=[0])
        assert np.array_equal(dense_kernel(ds.p_hat), empirical_kernel_reference(ds))
        idx, prob = ds.p_hat
        assert idx.tolist() == [[[0, 0], [0, 2]], [[1, 1], [0, 1]], [[1, 2], [2, 2]]]
        assert prob.tolist() == [[[0.0, 0.0], [0.25, 0.75]], [[0.0, 0.0], [1.0, 0.0]],
                                 [[1.0, 0.0], [0.0, 0.0]]]
        assert not idx.flags.writeable and not prob.flags.writeable

    def test_distribution_kernel_keeps_the_dense_values(self):
        cmdp = random_cmdp(np.random.default_rng(9))
        ds = exact_dataset(cmdp, SoftmaxPolicy.uniform(4, 3))
        assert np.array_equal(dense_kernel(ds.p_hat), dense_kernel(cmdp.kernel))

    def test_distribution_kernel_is_the_cmdp_view(self):
        """A gridworld's entries, which name a state twice at the border,
        are kept as the CMDP's own successor view."""
        cmdp = gen_frozen_lake(GridSpec(rows=5, cols=5, seed=1))
        ds = exact_dataset(cmdp, SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions))
        for ours, theirs in zip(ds.p_hat, cmdp.successors):
            assert np.array_equal(ours, theirs)

    def test_small_integer_dtypes_build_the_same_dataset(self):
        rng = np.random.default_rng(10)
        s, a, s2 = (rng.integers(n, size=300) for n in (20, 4, 20))
        init = rng.integers(20, size=7)
        wide = TrajectoryDataset.from_samples(20, 4, s, a, s2, init)
        narrow = TrajectoryDataset.from_samples(
            20, 4, *(x.astype(np.uint8) for x in (s, a, s2, init)))
        assert np.array_equal(narrow.d_sa, wide.d_sa)
        assert np.array_equal(narrow.rho_hat, wide.rho_hat)
        assert all(np.array_equal(x, y) for x, y in zip(narrow.p_hat, wide.p_hat))

    def test_index_validation(self):
        with pytest.raises(InvalidInput):
            TrajectoryDataset.from_samples(
                2, 2, s=[5], a=[0], s_next=[0], initial_states=[0])

    @pytest.mark.parametrize("bad", [
        dict(initial_states=[-1]),
        dict(initial_states=[0, 2]),
        dict(s=[0.0, 1.0, 0.0]),
        dict(initial_states=[0.0]),
        dict(s_next=[1, 0]),
        dict(a=[0, 1, 1, 0]),
    ], ids=["negative-initial", "initial-beyond-S", "float-s", "float-initial",
            "short-s_next", "long-a"])
    def test_bad_samples_raise(self, bad):
        args = dict(s=[0, 1, 0], a=[0, 1, 1], s_next=[1, 0, 0],
                    initial_states=[0])
        args.update(bad)
        with pytest.raises(InvalidInput):
            TrajectoryDataset.from_samples(2, 2, **args)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 2), (3, 2, 3), (2, 6)])
    def test_distribution_kernel_shape_checked(self, shape):
        d_sa = np.full((2, 3), 1.0 / 6.0)
        with pytest.raises(InvalidInput):
            TrajectoryDataset.from_distribution(
                d_sa, (np.arange(2), np.full(shape, 0.5)), [1.0, 0.0])

    @pytest.mark.parametrize("idx", [[0, 2], [-1, 0], [0.0, 1.0]],
                             ids=["beyond-S", "negative", "float"])
    def test_distribution_kernel_idx_checked(self, idx):
        with pytest.raises(InvalidInput, match="kernel idx"):
            TrajectoryDataset.from_distribution(
                np.full((2, 3), 1.0 / 6.0), (np.array(idx), np.full((2, 3, 2), 0.5)),
                [1.0, 0.0])


class TestSparseKernel:
    """The empirical kernel is kept as entries of the seen rows: no
    (S, A, S) array in the dataset or the DirectSolve fit."""

    def test_16x16_log_holds_no_dense_kernel(self):
        _, ds, _ = gridworld_log(16, 0)
        dense = ds.n_states * ds.n_actions * ds.n_states
        arrays = (ds.s, ds.a, ds.s_next, ds.initial_states, ds.d_sa,
                  ds.rho_hat) + tuple(ds.p_hat)
        assert max(x.size for x in arrays) < dense
        # a gridworld row has at most 3 successors: the move and two slips
        assert ds.p_hat[1].shape == (ds.n_states, ds.n_actions, 3)

    @pytest.mark.parametrize("seed", [0, 97])
    def test_traced_peak_of_a_16x16_fit_under_1mb(self, seed):
        cmdp, log, pi_hat = gridworld_log(16, seed)
        tracemalloc.start()
        try:
            ds = TrajectoryDataset.from_samples(
                log.n_states, log.n_actions, log.s, log.a, log.s_next,
                log.initial_states)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CoverageWarning)
                corr = dualdice_fit(ds, pi_hat, cmdp.discount)
            visitation_from_corrections(ds, corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("size,seed", [(4, 0), (8, 97), (None, 3)])
    def test_sgd_recovery_matches_dense_einsum(self, size, seed):
        if size is None:   # random rows, some seen more than once
            cmdp, ds, target = small_log(60, 5, seed)
        else:
            cmdp, ds, target = gridworld_log(size, seed)
        gamma, probs = cmdp.discount, target.probs
        cfg = DiceConfig(solver="Sgd", sgd_steps=3000, rng_seed=seed)
        z = sgd_z_reference(ds, probs, gamma, cfg)
        ref = np.maximum(
            z - gamma * np.einsum("sat,tb,tb->sa", dense_kernel(ds.p_hat), probs, z), 0.0)
        ref[ds.d_sa <= 0] = 0.0
        omega = sgd_omega(ds, target, gamma, cfg)
        assert np.max(np.abs(omega - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


class TestVisitationFromCorrections:
    def test_zero_mass_raises(self):
        cmdp = random_cmdp(np.random.default_rng(6))
        ds = exact_dataset(cmdp, SoftmaxPolicy.uniform(4, 3))
        corr = CorrectionTable(omega=np.zeros((4, 3)),
                               coverage_mask=np.ones((4, 3), dtype=bool))
        with pytest.raises(DegenerateEstimate):
            visitation_from_corrections(ds, corr)


class TestKlLoss:
    def test_zero_at_match(self):
        rng = np.random.default_rng(7)
        pol = SoftmaxPolicy(logits=rng.standard_normal((3, 2)))
        nu = np.array([0.5, 0.3, 0.2])
        loss, grad = kl_loss_and_grad(nu, pol.probs, pol.probs)
        assert abs(loss) < 1e-12
        # at the minimum over the simplex the gradient rows are constant
        rows = grad + nu[:, None]
        assert np.max(np.abs(rows)) < 1e-12

    def test_hand_value(self):
        loss, grad = kl_loss_and_grad(np.array([1.0]), np.array([[0.75, 0.25]]),
                                      np.array([[0.5, 0.5]]))
        expect = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert abs(loss - expect) < 1e-12
        assert np.allclose(grad, [[-1.5, -0.5]])

    def test_lp_optimal_policy_with_zero_entries(self):
        cmdp = gen_frozen_lake(GridSpec(seed=2))
        sol = solve_optimal_lp(cmdp)
        p = sol.policy.probs
        assert np.any(p == 0.0)
        phi = np.full(p.shape, 1.0 / p.shape[1])
        loss, grad = kl_loss_and_grad(sol.nu, p, phi)
        pos = p > 0
        terms = np.zeros_like(p)
        terms[pos] = p[pos] * np.log(p[pos] * p.shape[1])
        assert abs(loss - sol.nu @ terms.sum(axis=1)) < 1e-12
        assert np.all(grad[~pos] == 0.0)

    def test_positive_rows_keep_the_plain_formula(self):
        rng = np.random.default_rng(8)
        nu = rng.dirichlet(np.ones(5))
        p = rng.dirichlet(np.ones(3), size=5)
        q = rng.dirichlet(np.ones(3), size=5)
        loss, _ = kl_loss_and_grad(nu, p, q)
        assert loss == float(nu @ (p * (np.log(p) - np.log(q))).sum(axis=1))

    def test_rejects_nonpositive_phi(self):
        with pytest.raises(InvalidInput):
            kl_loss_and_grad(np.array([1.0]), np.array([[0.5, 0.5]]),
                             np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("nu_shape,probs_shape,phi_shape", [
        ((4,), (3, 2), (3, 2)), ((3,), (3, 2), (3, 3)), ((3,), (3, 2), (4, 2)),
        ((3,), (3,), (3,)), ((5, 3), (4, 3, 2), (3, 2)),
        ((5, 3), (5, 3, 2), (4, 3, 2)), ((5, 3), (5, 3, 2), (5, 3, 3)),
        ((3,), (3, 2), (5, 3, 2))])
    def test_rejects_mismatched_shapes(self, nu_shape, probs_shape, phi_shape):
        with pytest.raises(InvalidInput, match="not"):
            kl_loss_and_grad(np.full(nu_shape, 0.5), np.full(probs_shape, 0.5),
                             np.full(phi_shape, 0.5))

    @pytest.mark.parametrize("seed", [0, 1, 97])
    @pytest.mark.parametrize("stacked_phi", [False, True])
    def test_stack_is_bit_for_bit_the_single_calls(self, seed, stacked_phi):
        """A (T, S) visitation stack and a (T, S, A) table stack give each
        task's loss and gradient bit for bit as T single calls, at one
        shared phi or at a phi per task; rows with zeros included."""
        rng = np.random.default_rng(seed)
        t_n, s_n, a_n = 10, 17, 4
        nus = rng.dirichlet(np.ones(s_n), size=t_n)
        pis = rng.dirichlet(np.ones(a_n), size=(t_n, s_n))
        pis[:, ::3, 1] = 0.0
        pis /= pis.sum(axis=-1, keepdims=True)
        phi = 0.01 + rng.dirichlet(np.ones(a_n), size=(t_n, s_n))
        phi /= phi.sum(axis=-1, keepdims=True)
        phis = phi if stacked_phi else [phi[0]] * t_n
        loss, grad = kl_loss_and_grad(nus, pis, phi if stacked_phi else phi[0])
        assert loss.shape == (t_n,) and grad.shape == (t_n, s_n, a_n)
        for t in range(t_n):
            one_loss, one_grad = kl_loss_and_grad(nus[t], pis[t], phis[t])
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = pis[t] * (np.log(pis[t]) - np.log(phis[t]))
            plain = float(nus[t] @ np.where(pis[t] > 0, terms, 0.0).sum(axis=1))
            assert isinstance(one_loss, float)
            assert loss[t] == one_loss == plain
            assert np.array_equal(grad[t].view(np.int64), one_grad.view(np.int64))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_grad_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        s_n, a_n = 3, 3
        nu = rng.dirichlet(np.ones(s_n))
        pi = rng.dirichlet(np.ones(a_n), size=s_n)
        phi = 0.05 + rng.dirichlet(np.ones(a_n), size=s_n)
        phi = phi / phi.sum(axis=1, keepdims=True)
        loss, grad = kl_loss_and_grad(nu, pi, phi)
        assert loss >= -1e-12

        def f(q):
            return kl_loss_and_grad(nu, pi, q)[0]

        fd = central_difference(f, phi)
        assert np.max(np.abs(grad - fd)) < 1e-5


class TestErrorDecomposition:
    def _parts(self, seed):
        rng = np.random.default_rng(seed)
        s_n, a_n = 3, 2
        mk_nu = lambda: rng.dirichlet(np.ones(s_n))
        mk_pi = lambda: rng.dirichlet(np.ones(a_n), size=s_n)
        phi = np.full((s_n, a_n), 0.5)
        return mk_nu(), mk_pi(), mk_nu(), mk_nu(), mk_pi(), phi

    def test_sums_exactly(self):
        for seed in range(20):
            d = error_decomposition(*self._parts(seed))
            assert abs(d["total"] - (d["A"] + d["B"] + d["C"])) <= 1e-10
            assert abs(d["total"]) <= abs(d["A"]) + abs(d["B"]) + abs(d["C"]) + 1e-10

    def test_finite_with_lp_optimal_policy(self):
        """The terms are finite when pi* is the LP oracle's policy, whose
        rows touch the simplex boundary."""
        cmdp, ds, pi_hat = gridworld_log(4, 2)
        sol = solve_optimal_lp(cmdp)
        assert np.any(sol.policy.probs == 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CoverageWarning)
            corr = dualdice_fit(ds, pi_hat, cmdp.discount)
        nu_hat = visitation_from_corrections(ds, corr)
        phi = np.full(pi_hat.probs.shape, 0.25)
        d = error_decomposition(sol.nu, sol.policy.probs,
                                visitation_exact(cmdp, pi_hat).nu, nu_hat.nu,
                                pi_hat.probs, phi)
        assert all(np.isfinite(v) for v in d.values())
        assert abs(d["total"] - (d["A"] + d["B"] + d["C"])) <= 1e-10

    def test_zero_when_identical(self):
        nu, pi, _, _, _, phi = self._parts(0)
        d = error_decomposition(nu, pi, nu, nu, pi, phi)
        assert all(abs(v) < 1e-12 for v in d.values())
