import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metasrl.cmdp import (SoftmaxPolicy, TablePolicy, VisitationDistribution,
                          policy_from_logits, visitation_exact)
from metasrl.crpo import CrpoConfig, run_crpo
from metasrl.dice import (CorrectionTable, DiceConfig, TrajectoryDataset,
                          dualdice_fit, error_decomposition, kl_loss_and_grad,
                          visitation_from_corrections)
from metasrl.errors import (CoverageWarning, DegenerateEstimate,
                            DegenerateRun, InvalidInput, SamplerError)
from metasrl.lp import solve_optimal_lp
from metasrl.taskgen import GridSpec, gen_frozen_lake

from oracles import (central_difference, dualdice_direct_reference,
                     empirical_kernel_reference, random_cmdp, sgd_fit_reference)


def exact_dataset(cmdp, behavior):
    """Exact-expectation dataset whose data distribution is the behavior
    policy's discounted state-action visitation."""
    vis = visitation_exact(cmdp, behavior)
    return TrajectoryDataset.from_distribution(
        vis.nu_sa, cmdp.transition, cmdp.initial_dist)


def gridworld_log(size, seed):
    """The transition log and returned policy of a CRPO run on a gridworld,
    with the test_09 CRPO settings."""
    cmdp = gen_frozen_lake(GridSpec(rows=size, cols=size, seed=seed))
    config = CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                        episodes_per_step=5, episode_horizon=60,
                        rng_seed=seed)
    try:
        outcome = run_crpo(
            cmdp, SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions), config)
    except DegenerateRun as exc:
        outcome = exc.outcome
    return cmdp, outcome.dataset, outcome.returned_policy


def assert_matches_dense(ds, target, gamma):
    """DirectSolve agrees with the dense min-norm lstsq to 1e-9 relative."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CoverageWarning)
        omega = dualdice_fit(ds, target, gamma).omega
    ref = dualdice_direct_reference(ds, target.probs, gamma)
    assert np.max(np.abs(omega - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


class TestDirectSolve:
    def test_recovers_exact_visitation(self):
        rng = np.random.default_rng(0)
        cmdp = random_cmdp(rng)
        behavior = SoftmaxPolicy.uniform(4, 3)
        target = policy_from_logits(rng.standard_normal((4, 3)))
        ds = exact_dataset(cmdp, behavior)
        corr = dualdice_fit(ds, target, cmdp.discount)
        nu_sa = visitation_exact(cmdp, target).nu_sa
        assert np.max(np.abs(corr.omega * ds.d_sa - nu_sa)) < 1e-8
        est = visitation_from_corrections(ds, corr)
        ref = visitation_exact(cmdp, target).nu
        assert np.max(np.abs(est.nu - ref)) < 1e-8

    def test_identity_when_target_is_behavior(self):
        rng = np.random.default_rng(1)
        cmdp = random_cmdp(rng)
        pol = policy_from_logits(rng.standard_normal((4, 3)))
        ds = exact_dataset(cmdp, pol)
        corr = dualdice_fit(ds, pol, cmdp.discount)
        assert np.max(np.abs(corr.omega - 1.0)) < 1e-7

    def test_uncovered_pairs_warn_and_zero(self):
        rng = np.random.default_rng(2)
        cmdp = random_cmdp(rng)
        vis = visitation_exact(cmdp, SoftmaxPolicy.uniform(4, 3))
        d_sa = np.array(vis.nu_sa)
        d_sa[0, 0] = 0.0
        ds = TrajectoryDataset.from_distribution(
            d_sa, cmdp.transition, cmdp.initial_dist)
        target = policy_from_logits(rng.standard_normal((4, 3)))
        with pytest.warns(CoverageWarning):
            corr = dualdice_fit(ds, target, cmdp.discount)
        assert corr.omega[0, 0] == 0.0
        assert not corr.coverage_mask[0, 0]

    def test_full_coverage_does_not_warn(self):
        rng = np.random.default_rng(2)
        cmdp = random_cmdp(rng)
        ds = exact_dataset(cmdp, SoftmaxPolicy.uniform(4, 3))
        target = policy_from_logits(rng.standard_normal((4, 3)))
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
        behavior = policy_from_logits(rng.standard_normal((s_n, a_n)))
        target = policy_from_logits(2.0 * rng.standard_normal((s_n, a_n)))
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
            d_sa, cmdp.transition, cmdp.initial_dist)
        target = policy_from_logits(rng.standard_normal((4, 3)))
        assert_matches_dense(ds, target, cmdp.discount)

    @pytest.mark.parametrize("size,seed", [(4, 0), (4, 97), (8, 0), (8, 97),
                                           (16, 0)])
    def test_matches_dense_reference_on_gridworld_logs(self, size, seed):
        cmdp, ds, pi_hat = gridworld_log(size, seed)
        assert 0 < np.count_nonzero(ds.d_sa) < ds.d_sa.size
        assert_matches_dense(ds, pi_hat, cmdp.discount)

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
        target = policy_from_logits(0.5 * rng.standard_normal((3, 2)))
        # sampled dataset so the Sgd path has transitions to draw from
        n = 40_000
        s = rng.choice(3, size=n)
        a = rng.choice(2, size=n)
        s_next = np.array([rng.choice(3, p=cmdp.transition[s[i], a[i]])
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
    return cmdp, ds, policy_from_logits(rng.standard_normal((4, 3)))


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


class TestDataset:
    def test_empirical_counts(self):
        ds = TrajectoryDataset.from_samples(
            2, 2, s=[0, 1, 0, 0], a=[0, 1, 0, 1], s_next=[1, 0, 0, 1],
            initial_states=[0, 0])
        assert np.allclose(ds.d_sa, [[0.5, 0.25], [0.0, 0.25]])
        assert np.allclose(ds.rho_hat, [1.0, 0.0])
        assert abs(ds.p_hat[0, 0, 1] - 0.5) < 1e-12

    @pytest.mark.parametrize("size", [4, 16])
    def test_empirical_kernel_matches_two_array_construction(self, size):
        _, ds, _ = gridworld_log(size, 2)
        assert np.array_equal(ds.p_hat, empirical_kernel_reference(ds))

    def test_index_validation(self):
        with pytest.raises(InvalidInput):
            TrajectoryDataset.from_samples(
                2, 2, s=[5], a=[0], s_next=[0], initial_states=[0])


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
        pol = policy_from_logits(rng.standard_normal((3, 2)))
        nu = VisitationDistribution(nu=np.array([0.5, 0.3, 0.2]),
                                    nu_sa=None)
        loss, grad = kl_loss_and_grad(nu, pol, pol)
        assert abs(loss) < 1e-12
        # at the minimum over the simplex the gradient rows are constant
        rows = grad + nu.nu[:, None]
        assert np.max(np.abs(rows)) < 1e-12

    def test_hand_value(self):
        nu = VisitationDistribution(nu=np.array([1.0]), nu_sa=None)
        pi = TablePolicy(probs=np.array([[0.75, 0.25]]))
        phi = TablePolicy(probs=np.array([[0.5, 0.5]]))
        loss, grad = kl_loss_and_grad(nu, pi, phi)
        expect = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        assert abs(loss - expect) < 1e-12
        assert np.allclose(grad, [[-1.5, -0.5]])

    def test_lp_optimal_policy_with_zero_entries(self):
        cmdp = gen_frozen_lake(GridSpec(seed=2))
        sol = solve_optimal_lp(cmdp)
        p = sol.policy.probs
        assert np.any(p == 0.0)
        phi = TablePolicy(probs=np.full(p.shape, 1.0 / p.shape[1]))
        loss, grad = kl_loss_and_grad(sol.visitation, sol.policy, phi)
        pos = p > 0
        terms = np.zeros_like(p)
        terms[pos] = p[pos] * np.log(p[pos] * p.shape[1])
        assert abs(loss - sol.visitation.nu @ terms.sum(axis=1)) < 1e-12
        assert np.all(grad[~pos] == 0.0)

    def test_positive_rows_keep_the_plain_formula(self):
        rng = np.random.default_rng(8)
        nu = VisitationDistribution(nu=rng.dirichlet(np.ones(5)), nu_sa=None)
        p = rng.dirichlet(np.ones(3), size=5)
        q = rng.dirichlet(np.ones(3), size=5)
        loss, _ = kl_loss_and_grad(nu, TablePolicy(probs=p), q)
        assert loss == float(nu.nu @ (p * (np.log(p) - np.log(q))).sum(axis=1))

    def test_rejects_nonpositive_phi(self):
        nu = VisitationDistribution(nu=np.array([1.0]), nu_sa=None)
        pi = TablePolicy(probs=np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidInput):
            kl_loss_and_grad(nu, pi, np.array([[1.0, 0.0]]))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_grad_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        s_n, a_n = 3, 3
        nu = VisitationDistribution(nu=rng.dirichlet(np.ones(s_n)), nu_sa=None)
        pi = TablePolicy(probs=rng.dirichlet(np.ones(a_n), size=s_n))
        phi = 0.05 + rng.dirichlet(np.ones(a_n), size=s_n)
        phi = phi / phi.sum(axis=1, keepdims=True)
        loss, grad = kl_loss_and_grad(nu, pi, TablePolicy(probs=phi))
        assert loss >= -1e-12

        def f(q):
            return kl_loss_and_grad(nu, pi, TablePolicy(probs=q))[0]

        fd = central_difference(f, phi)
        assert np.max(np.abs(grad - fd)) < 1e-5


class TestErrorDecomposition:
    def _parts(self, seed):
        rng = np.random.default_rng(seed)
        s_n, a_n = 3, 2
        mk_nu = lambda: VisitationDistribution(
            nu=rng.dirichlet(np.ones(s_n)), nu_sa=None)
        mk_pi = lambda: TablePolicy(probs=rng.dirichlet(np.ones(a_n), size=s_n))
        phi = TablePolicy(probs=np.full((s_n, a_n), 0.5))
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
        phi = TablePolicy(probs=np.full(pi_hat.probs.shape, 0.25))
        d = error_decomposition(sol.visitation, sol.policy,
                                visitation_exact(cmdp, pi_hat), nu_hat,
                                pi_hat, phi)
        assert all(np.isfinite(v) for v in d.values())
        assert abs(d["total"] - (d["A"] + d["B"] + d["C"])) <= 1e-10

    def test_zero_when_identical(self):
        nu, pi, _, _, _, phi = self._parts(0)
        d = error_decomposition(nu, pi, nu, nu, pi, phi)
        assert all(abs(v) < 1e-12 for v in d.values())
