"""The paper's guarantees as formulas: CRPO's suboptimality bound and
tolerance eta (Xu, Liang & Lan 2021, arXiv 2011.05869), with coefficients
from `SimConstants`; the hindsight rate and the static and dynamic regret
bounds of projected inexact OGD (Khodak, Balcan & Talwalkar 2019, arXiv
1906.02717); and the exact-KL stream that checks them. No algorithm module
imports this one: the tests and `scripts/regret_curves.py` read it.
"""

import numpy as np

from .errors import InvalidInput
from .meta import SimConstants, project_table_shrinkage_simplex


def suboptimality_bound(alpha, m_steps, kl_bound, gamma, c_max, s_n, a_n):
    """Upper bound on both the reward gap and constraint violation of the
    averaged CRPO iterate: c1 kl/(alpha M) + alpha c2, that is
    2 kl/(alpha M) + 4 alpha c_max^2 |S||A|/(1-gamma)^3."""
    c = SimConstants.from_problem(gamma, c_max, s_n, a_n)
    return c.c1 * kl_bound / (alpha * m_steps) + alpha * c.c2


def compute_eta(dims, alpha, m_steps, kl_bound, gamma, c_max, p):
    """Violation tolerance making reward steps provably nonempty: the
    suboptimality bound plus 2 (p+1)(c3 + alpha c4)/sqrt(M), where
    c3 = (3 + (1-gamma)^2)/(1-gamma)^2 and c4 = 3 c_max/(1-gamma)^2."""
    s_n, a_n = dims
    if m_steps <= 0 or alpha <= 0:
        raise InvalidInput("alpha and M must be positive")
    if kl_bound < 0:
        raise InvalidInput("kl_bound must be nonnegative")
    c = SimConstants.from_problem(gamma, c_max, s_n, a_n)
    return suboptimality_bound(alpha, m_steps, kl_bound, gamma, c_max, s_n, a_n) \
        + 2.0 * (p + 1) * (c.c3 + alpha * c.c4) / np.sqrt(m_steps)


def contraction_step_count(lam, alpha):
    """K = ceil(ln 2 / ln(1 + lambda alpha)) giving a 1/2 contraction."""
    if lam <= 0 or alpha <= 0:
        raise InvalidInput("lambda and alpha must be positive")
    return int(np.ceil(np.log(2.0) / np.log1p(lam * alpha)))


def kappa_star(u_init, inexactness, t_tasks, v_hat_sq, m_steps, constants):
    """Hindsight-optimal within-task rate for the combined regret bound."""
    return float(np.sqrt((u_init + inexactness + t_tasks * v_hat_sq)
                         / constants.rate_slope(m_steps)))


def rate_regret_objective(kappa, u_init, inexactness, t_tasks, v_hat_sq,
                          m_steps, constants):
    """L(kappa): the kappa-dependent part of the combined TAOG/TACV bound,
    minimized at kappa_star; the kappa-independent terms do not move the
    argmin and are omitted."""
    if kappa <= 0:
        raise InvalidInput("kappa must be positive")
    return float((u_init + inexactness + t_tasks * v_hat_sq) / kappa
                 + kappa * constants.rate_slope(m_steps))


def static_regret_bound(l1, l2, comparator_norm, t_tasks, c_sub, inexact_sum):
    """Explicit-constant static-regret bound for projected inexact OGD with
    step size ||x|| / (L1 sqrt(2T))."""
    return float(l1 * comparator_norm * np.sqrt(2.0 * t_tasks)
                 + (1.0 + np.sqrt(2.0) * c_sub * l1 * l2 * comparator_norm
                    / np.sqrt(t_tasks)) * inexact_sum)


def dynamic_regret_bound(l1, l2, lam, beta, alpha, c_sub, x1_gap, path,
                         sq_path, inexact_sum, inexact_tilde_sum, grad_sq_sum):
    """Explicit-constant dynamic-regret bound: min of the two branch bounds.
    Branch 1 uses the squared path length and squared comparator gradients;
    branch 2 uses the plain path length. c_sub is the constant relating
    surrogate inexactness to squared gradient error.
    """
    c1 = 2.0 * (l2 + beta)
    c2 = (l2 + beta) * (3.0 * c_sub * alpha + 6.0 * alpha * l2) / (2.0 * lam * alpha * l2)
    c3 = 3.0 * (l2 + beta)
    c4 = 2.0 * l1 / (2.0 - np.sqrt(2.0))
    c5 = c4 * np.sqrt((c_sub * alpha + 2.0 * l2 * alpha) / (2.0 * alpha * lam * l2))
    branch1 = c1 * x1_gap ** 2 + c2 * inexact_sum + c3 * sq_path \
        + grad_sq_sum / (2.0 * beta)
    branch2 = c4 * x1_gap + c5 * inexact_tilde_sum + c4 * path
    return float(min(branch1, branch2))


def synthetic_kl_stream(n_states, n_actions, t_tasks, dispersion, seed,
                        shrink=1e-3, center=None):
    """A stream of visitations and policies clustered around a center:
    (nus, pis), a (T, S) visitation stack and a (T, S, A) table stack.
    dispersion scales the logit noise of per-task policies; visitations are
    random Dirichlet draws, each drawn after its task's policy noise."""
    rng = np.random.default_rng(seed)
    if center is None:
        center = rng.dirichlet(np.ones(n_actions), size=n_states)
    nus, pis = [], []
    for _ in range(t_tasks):
        noisy = np.log(np.maximum(center, 1e-12)) \
            + dispersion * rng.standard_normal((n_states, n_actions))
        probs = np.exp(noisy - noisy.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        pis.append(project_table_shrinkage_simplex(probs, shrink))
        nus.append(rng.dirichlet(np.ones(n_states)))
    return np.array(nus), np.array(pis)
