import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from metasrl.cmdp import TablePolicy, VisitationDistribution
from metasrl.dice import kl_loss_and_grad
from metasrl.errors import InvalidInput
from metasrl.meta import (MetaLearnerState, SimConstants,
                          closed_form_similarity_center,
                          contraction_step_count, dynamic_regret_bound,
                          inexact_multi_ogd, inexact_ogd_step, kappa_star,
                          meta_update, project_row_shrinkage_simplex,
                          project_simplex, project_table_shrinkage_simplex,
                          rate_regret_objective, sim_loss_and_grad,
                          static_regret_bound)

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
            project_row_shrinkage_simplex(np.array([0.5, 0.5]), 0.6)
        with pytest.raises(InvalidInput):
            project_row_shrinkage_simplex(np.array([0.5, 0.5]), -0.1)

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            shrink = float(rng.random() * 0.8 / n)
            v = rng.standard_normal(n) * 2.0
            mine = project_row_shrinkage_simplex(v, shrink)
            ref = project_shrinkage_qp(v, shrink)
            assert np.max(np.abs(mine - ref)) < 1e-6

    @given(finite_vec, st.floats(0, 0.15))
    @settings(max_examples=50, deadline=None)
    def test_feasibility_and_idempotence(self, v, shrink):
        if shrink >= 1.0 / v.size:
            shrink = 0.9 / v.size
        out = project_row_shrinkage_simplex(v, shrink)
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= shrink - 1e-12)
        again = project_row_shrinkage_simplex(out, shrink)
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

    def test_contraction_step_count_values(self):
        assert contraction_step_count(1.0, 1.0) == 1
        assert contraction_step_count(0.1, 0.5) >= 1
        with pytest.raises(InvalidInput):
            contraction_step_count(0.0, 1.0)

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
        assert abs(c.c5 - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_sim_loss_value_and_grad(self):
        c = SimConstants(c1=2.0, c2=1.0, c3=0.0, c4=0.0, c5=0.0)
        loss, grad = sim_loss_and_grad(2.0, kl_term=4.0, m_steps=9, constants=c)
        assert abs(loss - (2.0 * 4.0 / 2.0 + 2.0 * 9.0)) < 1e-12
        fd = central_difference(
            lambda k: sim_loss_and_grad(float(k[0]), 4.0, 9, c)[0],
            np.array([2.0]))
        assert abs(grad - fd[0]) < 1e-5

    def test_kappa_star_minimizes_objective(self):
        c = SimConstants.from_problem(0.9, 1.0, 4, 3)
        ks = kappa_star(u_init=3.0, inexactness=0.5, t_tasks=10,
                        v_hat_sq=0.2, m_steps=50, constants=c)
        best = rate_regret_objective(ks, 3.0, 0.5, 10, 0.2, 50, c)
        for k in np.geomspace(ks / 100, ks * 100, 4001):
            assert best <= rate_regret_objective(float(k), 3.0, 0.5, 10, 0.2,
                                                 50, c) + 1e-10


class TestMetaUpdate:
    def _state(self, **kw):
        kw.setdefault("init_policy", np.full((2, 2), 0.5))
        kw.setdefault("learning_rate", 0.1)
        kw.setdefault("ogd_step_init", 0.5)
        kw.setdefault("ogd_step_sim", 0.0)
        return MetaLearnerState(**kw)

    def test_kl_decreases(self):
        state = self._state()
        nu = VisitationDistribution(nu=np.array([0.7, 0.3]), nu_sa=None)
        pi = TablePolicy(probs=np.array([[0.9, 0.1], [0.2, 0.8]]))
        c = SimConstants.from_problem(0.9, 1.0, 2, 2)
        before, _ = kl_loss_and_grad(nu, pi, state.init_as_policy())
        new = meta_update(state, nu, pi, m_steps=10, constants=c)
        after, _ = kl_loss_and_grad(nu, pi, new.init_as_policy())
        assert after < before

    def test_rate_floor(self):
        state = self._state(ogd_step_sim=100.0, learning_rate=0.2,
                            rate_floor=0.01)
        nu = VisitationDistribution(nu=np.array([0.5, 0.5]), nu_sa=None)
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
            nu = VisitationDistribution(nu=rng.dirichlet(np.ones(2)), nu_sa=None)
            pi = TablePolicy(probs=rng.dirichlet(np.ones(2), size=2))
            state = meta_update(state, nu, pi, m_steps=10, constants=c)
            assert np.all(state.init_policy >= 0.05 - 1e-12)
            assert np.allclose(state.init_policy.sum(axis=1), 1.0)


class TestSimilarityCenter:
    def _history(self, seed, t=6, s_n=3, a_n=2):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(t):
            nu = VisitationDistribution(nu=rng.dirichlet(np.ones(s_n)),
                                        nu_sa=None)
            pi = TablePolicy(probs=rng.dirichlet(np.ones(a_n), size=s_n))
            out.append((nu, pi))
        return out

    def test_matches_numerical_minimizer(self):
        for seed in range(5):
            hist = self._history(seed)
            center, d_sq = closed_form_similarity_center(hist, shrink=1e-4)
            ref = minimize_average_kl(hist, shrink=1e-4)
            assert d_sq <= ref + 1e-6
            assert abs(d_sq - ref) < 1e-5

    def test_identical_history(self):
        pi = TablePolicy(probs=np.array([[0.7, 0.3], [0.4, 0.6]]))
        nu = VisitationDistribution(nu=np.array([0.5, 0.5]), nu_sa=None)
        center, d_sq = closed_form_similarity_center([(nu, pi)] * 4, shrink=0.0)
        assert np.max(np.abs(center - pi.probs)) < 1e-12
        assert d_sq < 1e-12

    def test_unvisited_state_defaults_uniform(self):
        pi = TablePolicy(probs=np.array([[0.9, 0.1], [0.9, 0.1]]))
        nu = VisitationDistribution(nu=np.array([1.0, 0.0]), nu_sa=None)
        center, _ = closed_form_similarity_center([(nu, pi)], shrink=0.0)
        assert np.allclose(center[1], [0.5, 0.5])

    def test_empty_history(self):
        with pytest.raises(InvalidInput):
            closed_form_similarity_center([], shrink=0.0)


class TestRegretBounds:
    def test_static_bound_value(self):
        # l1=1, l2=1, norm=1, T=2, c=1, E=0 -> sqrt(2*2) = 2
        assert abs(static_regret_bound(1.0, 1.0, 1.0, 2, 1.0, 0.0) - 2.0) < 1e-12

    def test_static_bound_monotone_in_inexactness(self):
        lo = static_regret_bound(1.0, 2.0, 1.0, 10, 2.0, 0.1)
        hi = static_regret_bound(1.0, 2.0, 1.0, 10, 2.0, 1.0)
        assert lo < hi

    def test_dynamic_bound_is_min_of_branches(self):
        val = dynamic_regret_bound(l1=1.0, l2=1.0, lam=0.5, beta=1.0,
                                   alpha=0.5, c_sub=2.0, x1_gap=1.0,
                                   path=0.0, sq_path=0.0, inexact_sum=0.0,
                                   inexact_tilde_sum=0.0, grad_sq_sum=0.0)
        c1 = 2.0 * (1.0 + 1.0)
        c4 = 2.0 / (2.0 - np.sqrt(2.0))
        assert abs(val - min(c1, c4)) < 1e-12

    def test_dynamic_bound_grows_with_path(self):
        args = dict(l1=1.0, l2=1.0, lam=0.5, beta=1.0, alpha=0.5, c_sub=2.0,
                    x1_gap=1.0, inexact_sum=0.0, inexact_tilde_sum=0.0,
                    grad_sq_sum=0.0)
        lo = dynamic_regret_bound(path=0.0, sq_path=0.0, **args)
        hi = dynamic_regret_bound(path=3.0, sq_path=9.0, **args)
        assert lo < hi


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
