import json

from metasrl import meta as meta_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from metasrl.cmdp import TablePolicy, TabularCmdp, VisitationDistribution
from metasrl.dice import kl_loss_and_grad
from metasrl.errors import InvalidInput
from metasrl.bounds import contraction_step_count
from metasrl.meta import (MetaLearnerState, SimConstants,
                          closed_form_similarity_center, inexact_multi_ogd,
                          inexact_ogd_step, meta_update, project_simplex,
                          project_table_shrinkage_simplex, regret_report,
                          sim_loss_and_grad)

from oracles import (central_difference, minimize_average_kl,
                     project_shrinkage_qp, project_table_shrinkage_reference)

finite_vec = arrays(np.float64, st.integers(2, 6),
                    elements=st.floats(-10, 10, allow_nan=False))


class TestProjections:
    def test_simplex_known_points(self):
        assert np.allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])
        assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
        assert np.allclose(project_simplex(np.array([0.4, 0.2])), [0.6, 0.4])

    def test_shrinkage_bounds_validation(self):
        with pytest.raises(InvalidInput):
            project_table_shrinkage_simplex(np.array([0.5, 0.5]), 0.6)
        with pytest.raises(InvalidInput):
            project_table_shrinkage_simplex(np.array([0.5, 0.5]), -0.1)

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            shrink = float(rng.random() * 0.8 / n)
            v = rng.standard_normal(n) * 2.0
            mine = project_table_shrinkage_simplex(v, shrink)
            ref = project_shrinkage_qp(v, shrink)
            assert np.max(np.abs(mine - ref)) < 1e-6

    @given(finite_vec, st.floats(0, 0.15))
    @settings(max_examples=50, deadline=None)
    def test_feasibility_and_idempotence(self, v, shrink):
        if shrink >= 1.0 / v.size:
            shrink = 0.9 / v.size
        out = project_table_shrinkage_simplex(v, shrink)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= shrink - 1e-12)
        again = project_table_shrinkage_simplex(out, shrink)
        assert np.max(np.abs(again - out)) < 1e-9

    @given(finite_vec, finite_vec)
    @settings(max_examples=50, deadline=None)
    def test_non_expansive(self, u, v):
        n = min(u.size, v.size)
        u, v = u[:n], v[:n]
        pu = project_simplex(u)
        pv = project_simplex(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    def test_table_projection_rows(self):
        tab = np.array([[5.0, -1.0, 0.0], [0.2, 0.3, 0.5]])
        out = project_table_shrinkage_simplex(tab, 0.01)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.all(out >= 0.01 - 1e-12)
        assert np.allclose(out[1], [0.2, 0.3, 0.5])

    def test_table_projection_matches_row_loop(self):
        rng = np.random.default_rng(1)
        for i in range(600):
            s_n, a_n = int(rng.integers(1, 20)), int(rng.integers(1, 6))
            tab = rng.standard_normal((s_n, a_n)) * [0.01, 1.0, 10.0][i % 3]
            if (i // 4) % 2:
                tab = np.round(tab, 1)              # ties within rows
                tab[0] = tab[0, 0]
            shrink = [0.0, 0.999 / a_n, 0.999999 / a_n,
                      rng.random() / a_n][i % 4]
            assert np.array_equal(project_table_shrinkage_simplex(tab, shrink),
                                  project_table_shrinkage_reference(tab, shrink))

    @pytest.mark.parametrize("a_n", [2, 3, 4, 5, 7])
    def test_table_projection_at_shrink_just_below_one_over_n(self, a_n):
        # (v - shrink)/scale is huge here, and u_1 + (1 - u_1) rounds to 0
        shrink = float(np.nextafter(1.0 / a_n, 0.0))
        tab = np.random.default_rng(a_n).standard_normal((6, a_n))
        out = project_table_shrinkage_simplex(tab, shrink)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(out >= shrink)


class TestOgd:
    def test_step_descends_quadratic(self):
        x = np.array([2.0, -3.0])
        out = inexact_ogd_step(x, 2.0 * x, 0.25, lambda z: z)
        assert np.allclose(out, 0.5 * x)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInput):
            inexact_ogd_step(np.zeros(2), np.array([np.nan, 0.0]), 0.1,
                             lambda z: z)
        with pytest.raises(InvalidInput):
            inexact_ogd_step(np.zeros(2), np.zeros(2), 0.0, lambda z: z)

    def test_multi_ogd_halves_distance(self):
        rng = np.random.default_rng(1)
        # strongly convex quadratic with lam = 0.5, l2 = 2.0
        eigs = np.array([0.5, 1.0, 2.0])
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        a = q @ np.diag(eigs) @ q.T
        x_star = rng.standard_normal(3)
        grad = lambda x: a @ (x - x_star)
        lam, l2 = eigs.min(), eigs.max()
        alpha = 1.0 / (2.0 * l2)
        k = contraction_step_count(lam, alpha)
        x0 = x_star + rng.standard_normal(3)
        out = inexact_multi_ogd(x0, grad, alpha, k, lambda z: z)
        assert np.sum((out - x_star) ** 2) <= 0.5 * np.sum((x0 - x_star) ** 2)


class TestSimConstants:
    def test_hand_values(self):
        c = SimConstants.from_problem(gamma=0.5, c_max=1.0, n_states=2,
                                      n_actions=2)
        assert c.c1 == 2.0
        assert abs(c.c2 - 128.0) < 1e-12
        assert abs(c.c3 - 13.0) < 1e-12
        assert abs(c.c4 - 12.0) < 1e-12

    def test_sim_loss_value_and_grad(self):
        c = SimConstants(c1=2.0, c2=1.0, c3=0.0, c4=0.0)
        loss, grad = sim_loss_and_grad(2.0, kl_term=4.0, m_steps=9, constants=c)
        assert abs(loss - (2.0 * 4.0 / 2.0 + 2.0 * 9.0)) < 1e-12
        fd = central_difference(
            lambda k: sim_loss_and_grad(float(k[0]), 4.0, 9, c)[0],
            np.array([2.0]))
        assert abs(grad - fd[0]) < 1e-5

    def test_sim_loss_overflows_to_inf_at_a_huge_rate(self):
        """kappa * slope overflows the loss to inf, with no warning (the
        suite turns warnings into errors); the gradient is the slope."""
        c = SimConstants(c1=2.0, c2=1000.0, c3=0.0, c4=0.0)
        loss, grad = sim_loss_and_grad(np.float64(1e305), np.float64(4.0), 9, c)
        assert loss == np.inf and grad == 9000.0


class TestMetaUpdate:
    def _state(self, **kw):
        kw.setdefault("init_policy", np.full((2, 2), 0.5))
        kw.setdefault("learning_rate", 0.1)
        kw.setdefault("ogd_step_init", 0.5)
        kw.setdefault("ogd_step_sim", 0.0)
        kw.setdefault("inner_updates", 1)
        kw.setdefault("shrinkage", 1e-3)
        kw.setdefault("rate_floor", 1e-4)
        return MetaLearnerState(**kw)

    def test_kl_decreases(self):
        state = self._state()
        nu = VisitationDistribution(nu=np.array([0.7, 0.3]))
        pi = TablePolicy(probs=np.array([[0.9, 0.1], [0.2, 0.8]]))
        c = SimConstants.from_problem(0.9, 1.0, 2, 2)
        before, _ = kl_loss_and_grad(nu.nu, pi.probs, state.init_policy)
        new = meta_update(state, nu, pi, m_steps=10, constants=c)
        after, _ = kl_loss_and_grad(nu.nu, pi.probs, new.init_policy)
        assert after < before
        assert state.kl_term is None and new.kl_term == before

    @pytest.mark.parametrize("inner_updates", [1, 3])
    def test_one_kl_evaluation_per_ogd_step(self, monkeypatch, inner_updates):
        state = self._state(init_policy=np.array([[0.3, 0.7], [0.6, 0.4]]),
                            inner_updates=inner_updates, ogd_step_sim=0.2)
        nu = VisitationDistribution(nu=np.array([0.7, 0.3]))
        pi = TablePolicy(probs=np.array([[0.9, 0.1], [0.2, 0.8]]))
        c = SimConstants.from_problem(0.9, 1.0, 2, 2)
        # the K projected steps and the rate step, written out
        phi = state.init_policy
        for _ in range(inner_updates):
            phi = inexact_ogd_step(phi, kl_loss_and_grad(nu.nu, pi.probs, phi)[1],
                                   state.ogd_step_init,
                                   lambda t: project_table_shrinkage_simplex(t, state.shrinkage))
        kl_term = kl_loss_and_grad(nu.nu, pi.probs, state.init_policy)[0]
        rate = max(state.rate_floor, state.learning_rate - state.ogd_step_sim
                   * sim_loss_and_grad(state.learning_rate, kl_term, 10, c)[1])
        calls = []
        monkeypatch.setattr(meta_module, "kl_loss_and_grad",
                            lambda *args: calls.append(args) or kl_loss_and_grad(*args))
        new = meta_update(state, nu, pi, 10, c)
        assert len(calls) == inner_updates
        assert np.array_equal(new.init_policy.view(np.int64), phi.view(np.int64))
        assert new.kl_term == kl_term and new.learning_rate == rate

    def test_rate_floor(self):
        state = self._state(ogd_step_sim=100.0, learning_rate=0.2,
                            rate_floor=0.01)
        nu = VisitationDistribution(nu=np.array([0.5, 0.5]))
        pi = TablePolicy(probs=np.array([[0.6, 0.4], [0.6, 0.4]]))
        c = SimConstants.from_problem(0.9, 1.0, 2, 2)
        new = meta_update(state, nu, pi, m_steps=10, constants=c)
        assert new.learning_rate >= 0.01

    def test_state_validation(self):
        with pytest.raises(InvalidInput):
            self._state(init_policy=np.array([[0.7, 0.2], [0.5, 0.5]]))
        with pytest.raises(InvalidInput):
            self._state(learning_rate=1e-9)

    def test_iterates_stay_feasible(self):
        state = self._state(shrinkage=0.05, ogd_step_init=5.0)
        rng = np.random.default_rng(2)
        c = SimConstants.from_problem(0.9, 1.0, 2, 2)
        for _ in range(5):
            nu = VisitationDistribution(nu=rng.dirichlet(np.ones(2)))
            pi = TablePolicy(probs=rng.dirichlet(np.ones(2), size=2))
            state = meta_update(state, nu, pi, m_steps=10, constants=c)
            assert np.all(state.init_policy >= 0.05 - 1e-12)
            assert np.allclose(state.init_policy.sum(axis=1), 1.0)


class TestSimilarityCenter:
    def _history(self, seed, t=6, s_n=3, a_n=2):
        """(nus, pis) of t tasks, each task's visitation drawn before its
        policy."""
        rng = np.random.default_rng(seed)
        nus, pis = [], []
        for _ in range(t):
            nus.append(rng.dirichlet(np.ones(s_n)))
            pis.append(rng.dirichlet(np.ones(a_n), size=s_n))
        return np.array(nus), np.array(pis)

    def test_matches_numerical_minimizer(self):
        for seed in range(5):
            nus, pis = self._history(seed)
            center, kl = closed_form_similarity_center(nus, pis, shrink=1e-4)
            d_sq = kl.mean()
            ref = minimize_average_kl(nus, pis, shrink=1e-4)
            assert d_sq <= ref + 1e-6
            assert abs(d_sq - ref) < 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 97])
    def test_kl_is_each_task_loss_at_the_center(self, seed):
        nus, pis = self._history(seed, t=7, s_n=5, a_n=3)
        center, kl = closed_form_similarity_center(nus, pis, shrink=1e-3)
        assert kl.shape == (7,)
        single = np.array([kl_loss_and_grad(nu, pi, center)[0]
                           for nu, pi in zip(nus, pis)])
        assert np.array_equal(kl.view(np.int64), single.view(np.int64))

    def test_identical_history(self):
        pi = np.array([[0.7, 0.3], [0.4, 0.6]])
        nu = np.array([0.5, 0.5])
        center, kl = closed_form_similarity_center([nu] * 4, [pi] * 4, shrink=0.0)
        assert np.max(np.abs(center - pi)) < 1e-12
        assert kl.mean() < 1e-12

    def test_unvisited_state_defaults_uniform(self):
        pi = np.array([[0.9, 0.1], [0.9, 0.1]])
        nu = np.array([1.0, 0.0])
        center, _ = closed_form_similarity_center([nu], [pi], shrink=0.0)
        assert np.allclose(center[1], [0.5, 0.5])

    def test_empty_history(self):
        with pytest.raises(InvalidInput):
            closed_form_similarity_center(np.zeros((0, 2)), np.zeros((0, 2, 2)),
                                          shrink=0.0)


class TestRegretReport:
    """A 3-task stream on a one-state CMDP, whose visitation is 1 on that
    state, so every KL term is the KL of one action row."""

    cmdp = TabularCmdp(kernel=(np.arange(1), np.ones((1, 2, 1))),
                       reward=np.zeros((1, 2)), costs=np.zeros((1, 1, 2)),
                       limits=np.array([0.3]), discount=0.9,
                       initial_dist=np.array([1.0]), c_max=1.0)
    optima = [1.0, 2.0, 3.0]
    j_hat = [[0.5, 0.2], [1.5, 0.4], [2.0, 0.3]]
    pis = ([[0.5, 0.5]], [[0.6, 0.4]], [[0.5, 0.5]])
    kl_terms = [0.1, 0.2, 0.3]

    def report(self, policies, j_hat, kl_terms):
        return regret_report(self.optima, policies, [self.cmdp] * 3, j_hat=j_hat,
                             kl_terms=kl_terms, kappas=[0.5, 0.5, 0.5], shrink=0.0)

    def policies(self):
        return [TablePolicy(probs=np.array(p)) for p in self.pis]

    def test_center_by_hand(self):
        rep = self.report(self.policies(), self.j_hat, self.kl_terms)
        # the center is the mean row (8/15, 7/15)
        kl_center = lambda p: p * np.log(p * 15 / 8) + (1 - p) * np.log((1 - p) * 15 / 7)
        d_hat_sq = (2 * kl_center(0.5) + kl_center(0.6)) / 3
        assert rep.d_hat_sq == pytest.approx(d_hat_sq, abs=1e-15)
        assert rep.static_regret == pytest.approx(0.6 - 3 * d_hat_sq, abs=1e-15)
        assert rep.taog == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert rep.tacv_clipped == pytest.approx([0.1 / 3], abs=1e-15)
        assert [row["kl_term"] for row in rep.per_task] == self.kl_terms

    def test_task_without_runs_is_skipped(self):
        policies = self.policies()
        policies[1] = None
        j_hat = [self.j_hat[0], [np.nan, np.nan], self.j_hat[2]]
        rep = self.report(policies, j_hat, [0.1, np.nan, 0.3])
        assert np.isnan(rep.per_task[1]["taog"]) and np.isnan(rep.taog)
        assert np.isnan(rep.per_task[1]["kl_term"])
        # tasks 0 and 2 both learned (.5, .5): that is the center
        assert rep.d_hat_sq == 0.0
        assert rep.static_regret == pytest.approx(0.4, abs=1e-15)

    def test_one_stacked_kl_pass_per_initialization(self, monkeypatch):
        """Each done task's KL at the center is evaluated once, as one
        stacked call."""
        calls = []
        monkeypatch.setattr(meta_module, "kl_loss_and_grad",
                            lambda *args: calls.append(args) or kl_loss_and_grad(*args))
        self.report(self.policies(), self.j_hat, self.kl_terms)
        assert len(calls) == 1
        assert np.shape(calls[0][1]) == (3, 1, 2)


class TestEpsilonSubgradient:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_uniform_gap_gives_doubled_subgradient(self, seed):
        # if |f - g| <= eps pointwise (f, g convex), grad f(x) is a
        # 2*eps-subgradient of g at x
        rng = np.random.default_rng(seed)
        eps = float(rng.random() * 0.5 + 1e-3)
        a = rng.standard_normal(3)

        def g(x):
            return float(np.sum((x - a) ** 2))

        def f(x):
            return g(x) + eps * np.tanh(float(np.sum(x)))  # |f-g| <= eps

        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            grad_f = 2.0 * (x - a) + eps * (1 - np.tanh(np.sum(x)) ** 2)
            assert g(y) >= g(x) + grad_f @ (y - x) - 2.0 * eps - 1e-9
