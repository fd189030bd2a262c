"""The formulas of `metasrl.bounds` (CRPO's bound and tolerance, the
hindsight rate, the static and dynamic regret bounds), the exact-KL stream
that checks them, and the rule that no package module imports them."""

import ast
import pathlib

import numpy as np
import pytest

from metasrl.bounds import (compute_eta, contraction_step_count,
                            dynamic_regret_bound, kappa_star,
                            rate_regret_objective, static_regret_bound,
                            suboptimality_bound, synthetic_kl_stream)
from metasrl.errors import InvalidInput
from metasrl.meta import SimConstants, closed_form_similarity_center

from oracles import synthetic_kl_stream_reference

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "metasrl"


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

    @pytest.mark.parametrize("alpha,m_steps,kl,gamma,c_max,s_n,a_n,p", [
        (0.5, 100, 1.0, 0.5, 1.0, 2, 2, 1),
        (0.01, 64, 3.7, 0.9, 2.0, 17, 4, 2)])
    def test_coefficients_are_those_of_sim_constants(self, alpha, m_steps, kl,
                                                     gamma, c_max, s_n, a_n, p):
        """bound = c1 kl/(alpha M) + alpha c2 and eta = bound
        + 2 (p+1)(c3 + alpha c4)/sqrt(M), each also against the paper's
        expression written out."""
        c = SimConstants.from_problem(gamma, c_max, s_n, a_n)
        bound = suboptimality_bound(alpha, m_steps, kl, gamma, c_max, s_n, a_n)
        eta = compute_eta((s_n, a_n), alpha, m_steps, kl, gamma, c_max, p)
        written_bound = 2.0 * kl / (alpha * m_steps) \
            + 4.0 * alpha * c_max ** 2 * s_n * a_n / (1.0 - gamma) ** 3
        written_eta = written_bound + (p + 1) * 2.0 * (
            3.0 + (1.0 - gamma) ** 2 + 3.0 * alpha * c_max) \
            / (np.sqrt(m_steps) * (1.0 - gamma) ** 2)
        for value, expected in [
                (bound, c.c1 * kl / (alpha * m_steps) + alpha * c.c2),
                (bound, written_bound),
                (eta, bound + 2.0 * (p + 1) * (c.c3 + alpha * c.c4) / np.sqrt(m_steps)),
                (eta, written_eta)]:
            assert abs(value - expected) <= 1e-12 * abs(expected)


class TestRegretBounds:
    def test_contraction_step_count_values(self):
        assert contraction_step_count(1.0, 1.0) == 1
        assert contraction_step_count(0.1, 0.5) >= 1
        with pytest.raises(InvalidInput):
            contraction_step_count(0.0, 1.0)

    def test_kappa_star_minimizes_objective(self):
        c = SimConstants.from_problem(0.9, 1.0, 4, 3)
        ks = kappa_star(u_init=3.0, inexactness=0.5, t_tasks=10,
                        v_hat_sq=0.2, m_steps=50, constants=c)
        best = rate_regret_objective(ks, 3.0, 0.5, 10, 0.2, 50, c)
        for k in np.geomspace(ks / 100, ks * 100, 4001):
            assert best <= rate_regret_objective(float(k), 3.0, 0.5, 10, 0.2,
                                                 50, c) + 1e-10

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


class TestSyntheticStreams:
    def test_kl_stream_shapes_and_feasibility(self):
        nus, pis = synthetic_kl_stream(3, 2, 5, dispersion=0.5, seed=0,
                                       shrink=0.01)
        assert nus.shape == (5, 3) and pis.shape == (5, 3, 2)
        for nu, probs in zip(nus, pis):
            assert abs(nu.sum() - 1.0) < 1e-9
            assert np.all(probs >= 0.01 - 1e-12)
            assert np.allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("s_n,a_n,t_n,dispersion,seed,center", [
        (3, 2, 5, 0.5, 0, None), (4, 3, 20, 0.1, 1, None),
        (3, 3, 200, 0.02, 7, "dirichlet")])
    def test_kl_stream_draws_as_the_per_task_objects(self, s_n, a_n, t_n,
                                                     dispersion, seed, center):
        if center == "dirichlet":
            center = np.random.default_rng(seed + 500).dirichlet(
                np.full(a_n, 0.3), size=s_n)
        nus, pis = synthetic_kl_stream(s_n, a_n, t_n, dispersion, seed,
                                       shrink=1e-2, center=center)
        ref = synthetic_kl_stream_reference(s_n, a_n, t_n, dispersion, seed,
                                            shrink=1e-2, center=center)
        assert len(nus) == len(pis) == len(ref) == t_n
        for nu, probs, (nu_ref, pol_ref) in zip(nus, pis, ref):
            assert np.array_equal(nu, nu_ref.nu)
            assert np.array_equal(probs, pol_ref.probs)

    def test_dispersion_orders_similarity(self):
        tight = synthetic_kl_stream(4, 3, 20, dispersion=0.1, seed=1)
        loose = synthetic_kl_stream(4, 3, 20, dispersion=2.0, seed=1)
        _, kl_tight = closed_form_similarity_center(*tight, shrink=1e-3)
        _, kl_loose = closed_form_similarity_center(*loose, shrink=1e-3)
        assert kl_tight.mean() < kl_loose.mean()


def imported_names(tree):
    """Every dotted module name an import statement of the tree names,
    relative ones without their dots, and each `from` import's members."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_no_package_module_imports_bounds():
    modules = sorted(PACKAGE.glob("*.py"))
    names = {path.stem: set(imported_names(ast.parse(path.read_text())))
             for path in modules}
    assert "meta" in names.pop("bounds")   # the walk sees relative imports
    importers = [stem for stem, found in names.items()
                 if any("bounds" in name.split(".") for name in found)]
    assert len(names) >= 10 and importers == []
