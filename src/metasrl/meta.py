"""Meta-learning across tasks: projected inexact OGD on the policy
initialization and the within-task learning rate, closed-form similarity
center, and regret accounting.

The initialization is optimized directly over probability rows constrained
to the shrinkage simplex {a : sum a = 1, a_i >= rho}; the learning rate is
optimized over [zeta, inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cmdp import visitation_exact
from .dice import kl_loss_and_grad
from .errors import InvalidInput


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based).

    Projects each vector along the last axis of v, so a table is projected
    row by row in one pass.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    idx = np.arange(1, n + 1)
    cond = u + (1.0 - css) / idx > 0
    cond[..., 0] = True     # u_1 + (1 - u_1) = 1, unless rounding ate it
    # k = the last index (1-based) where cond holds
    k = n - np.argmax(cond[..., ::-1], axis=-1)[..., None]
    tau = (np.take_along_axis(css, k - 1, axis=-1) - 1.0) / k
    return np.maximum(v - tau, 0.0)


def project_table_shrinkage_simplex(v, shrink):
    """Projection onto {a : sum a = 1, a_i >= shrink}, along the last axis:
    one row, or every row of an (S, A) table.

    Substituting b = (a - shrink)/(1 - n*shrink) reduces the problem to a
    standard simplex projection (the substitution is a scaled translation,
    so it preserves the Euclidean minimizer).
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[-1]
    if not (0.0 <= shrink < 1.0 / n):
        raise InvalidInput("shrinkage must lie in [0, 1/n)")
    scale = 1.0 - n * shrink
    if scale == 0.0:
        return np.full(v.shape, shrink)
    b = project_simplex((v - shrink) / scale)
    return shrink + scale * b


def inexact_ogd_step(x, grad_hat, beta, projector):
    """One projected (sub)gradient step: projector(x - beta * grad_hat)."""
    grad_hat = np.asarray(grad_hat, dtype=float)
    if not np.all(np.isfinite(grad_hat)):
        raise InvalidInput("non-finite gradient")
    if beta <= 0:
        raise InvalidInput("step size must be positive")
    return projector(np.asarray(x, dtype=float) - beta * grad_hat)


def inexact_multi_ogd(x, loss_grad, alpha, k_steps, projector):
    """K projected gradient steps from x using a (possibly inexact) oracle.

    z^1 = x; z^{k+1} = projector(z^k - alpha * loss_grad(z^k)).
    With exact gradients of a lambda-strongly-convex L2-smooth loss,
    alpha <= 1/(2 L2) and K = ceil(ln 2 / ln(1 + lambda alpha)) halve the
    squared distance to the minimizer.
    """
    if k_steps < 1:
        raise InvalidInput("k_steps must be >= 1")
    z = np.asarray(x, dtype=float)
    for _ in range(k_steps):
        z = inexact_ogd_step(z, loss_grad(z), alpha, projector)
    return z


@dataclass(frozen=True)
class SimConstants:
    """Scale constants of the learning-rate loss and the regret bounds."""

    c1: float
    c2: float
    c3: float
    c4: float

    @classmethod
    def from_problem(cls, gamma, c_max, n_states, n_actions):
        one_m_g = 1.0 - gamma
        return cls(
            c1=2.0,
            c2=4.0 * c_max ** 2 * n_states * n_actions / one_m_g ** 3,
            c3=(3.0 + one_m_g ** 2) / one_m_g ** 2,
            c4=3.0 * c_max / one_m_g ** 2,
        )

    def rate_slope(self, m_steps):
        """kappa's coefficient c2 M + c4 sqrt(M), in the rate loss and bound."""
        return self.c2 * m_steps + self.c4 * np.sqrt(m_steps)


def sim_loss_and_grad(kappa, kl_term, m_steps, constants):
    """Learning-rate surrogate loss c1*kl/kappa + kappa (c2 M + c4 sqrt M) + c3 sqrt M."""
    if kappa <= 0:
        raise InvalidInput("kappa must be positive")
    if kl_term < 0:
        raise InvalidInput("kl_term must be nonnegative")
    root_m = np.sqrt(m_steps)
    slope = constants.rate_slope(m_steps)
    loss = constants.c1 * kl_term / kappa + kappa * slope + constants.c3 * root_m
    grad = -constants.c1 * kl_term / kappa ** 2 + slope
    return float(loss), float(grad)


@dataclass(frozen=True)
class MetaLearnerState:
    """The meta-learner between tasks. Its settings have no defaults here:
    `harness.MetaConfig` holds them, and `run_experiment` passes them all."""

    init_policy: np.ndarray          # (S, A) probability table in the shrinkage simplex
    learning_rate: float
    ogd_step_init: float
    ogd_step_sim: float
    inner_updates: int
    shrinkage: float
    rate_floor: float
    kl_term: float | None = None     # the last update's plug-in KL loss, unclamped

    def __post_init__(self):
        object.__setattr__(self, "init_policy",
                           np.asarray(self.init_policy, dtype=float))
        probs = self.init_policy
        if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-12 \
                or np.any(probs < self.shrinkage - 1e-12):
            raise InvalidInput("init_policy must lie in the shrinkage simplex")
        if self.learning_rate < self.rate_floor:
            raise InvalidInput("learning_rate below its floor")
        if self.inner_updates < 1:
            raise InvalidInput("inner_updates must be >= 1")


def meta_update(state, nu_hat, pi_hat, m_steps, constants):
    """One meta-step after a finished task, from its visitation estimate
    nu_hat (`.nu`) and its policy pi_hat (`.probs`).

    The initialization takes K projected OGD steps on the plug-in KL loss;
    the learning rate takes one OGD step on the rate surrogate, floored at
    rate_floor. Returns the new state, which keeps the task's KL loss at
    the old initialization as `kl_term`.
    """
    nu, probs = nu_hat.nu, pi_hat.probs
    kl_term, first_grad = kl_loss_and_grad(nu, probs, state.init_policy)
    pending = [first_grad]  # the first OGD step starts at init_policy

    def grad(phi_table):
        if pending:
            return pending.pop()
        _, g = kl_loss_and_grad(nu, probs, phi_table)
        return g

    projector = lambda tab: project_table_shrinkage_simplex(tab, state.shrinkage)
    phi_next = inexact_multi_ogd(state.init_policy, grad, state.ogd_step_init,
                                 state.inner_updates, projector)

    # the clamp guards the rate gradient against rounding just below zero
    _, sim_grad = sim_loss_and_grad(state.learning_rate, max(kl_term, 0.0),
                                    m_steps, constants)
    kappa_next = max(state.rate_floor,
                     state.learning_rate - state.ogd_step_sim * sim_grad)

    return replace(state, init_policy=phi_next, learning_rate=kappa_next,
                   kl_term=kl_term)


def closed_form_similarity_center(nus, pis, shrink):
    """Best single initialization for T tasks' visitations nus (T, S) and
    policy tables pis (T, S, A); returns (center, kl).

    Per state, the visitation-weighted mean of the learned policies minimizes
    the average KL; rows never visited default to uniform. The result is
    projected row-wise onto the shrinkage simplex. kl is the (T,) KL loss of
    each task at the center, and D^2 = kl.mean() the attained average.
    """
    nus, pis = np.asarray(nus, dtype=float), np.asarray(pis, dtype=float)
    if len(nus) == 0:
        raise InvalidInput("empty history")
    weight = nus.sum(axis=0)
    num = np.einsum("ts,tsa->sa", nus, pis)
    n_actions = pis.shape[2]
    center = np.full((nus.shape[1], n_actions), 1.0 / n_actions)
    seen = weight > 0
    center[seen] = num[seen] / weight[seen, None]
    center = project_table_shrinkage_simplex(center, shrink)
    return center, kl_loss_and_grad(nus, pis, center)[0]


@dataclass(frozen=True)
class RegretReport:
    """One strategy's regret summary; `harness.export_report` writes its
    fields as they stand."""

    taog: float
    tacv: np.ndarray
    tacv_clipped: np.ndarray
    static_regret: float
    dynamic_regret: float
    d_hat_sq: float
    v_hat_sq: float
    path_length: float
    sq_path_length: float
    inexactness_proxy: np.ndarray
    per_task: list = field(default_factory=list)


def regret_report(optima, policies, cmdps, j_hat, kl_terms, kappas,
                  shrink, comparators=None):
    """Task-averaged optimality gap, constraint violations and similarity stats.

    optima[t] is task t's optimal reward J_0*. j_hat[t] (J_0..J_p),
    kl_terms[t] and kappas[t] are task t's means over its successful runs,
    and policies[t] is the returned policy of one of those runs. A task with
    none has policy None and NaN means: it exports NaN, and the similarity
    center and KL statistics skip it.

    What the regret fields hold as `run_experiment` fills them (ROADMAP
    item 4): static_regret is sum_t (kl_terms[t] - KL_t(center)), where the
    center comes from each task's last successful run, its exact visitation
    and returned policy, but kl_terms are run-averaged DICE estimates; the
    baselines pass kl_terms 0, so their static_regret is negative; without
    comparators, which the harness never passes, dynamic_regret and v_hat_sq
    copy static_regret and d_hat_sq and both path lengths are 0; and
    inexactness_proxy and every per-task inexactness are zeros.
    """
    t_tasks = len(cmdps)
    if len(optima) != t_tasks or len(policies) != t_tasks:
        raise InvalidInput("misaligned task lists")
    j_hat = np.asarray(j_hat, dtype=float)
    kl_terms = np.asarray(kl_terms, dtype=float)
    gaps = np.asarray(optima, dtype=float) - j_hat[:, 0]
    viol = j_hat[:, 1:] - np.array([cmdp.limits for cmdp in cmdps])
    done = [t for t in range(t_tasks) if policies[t] is not None]
    kl_done = kl_terms[done]

    d_hat_sq = static_regret = np.nan
    if done:
        pis = np.array([policies[t].probs for t in done])
        nus = np.array([visitation_exact(cmdps[t], policies[t]).nu for t in done])
        _, kl_center = closed_form_similarity_center(nus, pis, shrink)
        d_hat_sq = float(kl_center.mean())
        static_regret = float((kl_done - kl_center).sum())

    path, sq_path, v_hat_sq, dynamic_regret = 0.0, 0.0, d_hat_sq, static_regret
    if comparators is not None:
        comp = np.asarray(comparators, dtype=float)
        if len(comp) != t_tasks:
            raise InvalidInput("comparator sequence misaligned")
        diffs = [np.linalg.norm(comp[i] - comp[i - 1]) for i in range(1, t_tasks)]
        path = float(np.sum(diffs))
        sq_path = float(np.sum(np.square(diffs)))
        if done:
            kl_comp = kl_loss_and_grad(nus, pis, comp[done])[0]
            v_hat_sq = float(kl_comp.mean())
            dynamic_regret = float((kl_done - kl_comp).sum())

    per_task = [{
        "task": t,
        "taog": float(gaps[t]),
        "tacv": [float(v) for v in viol[t]],
        "kl_term": float(kl_terms[t]),
        "kappa": float(kappas[t]),
        "inexactness": 0.0,
    } for t in range(t_tasks)]
    return RegretReport(
        taog=float(gaps.mean()),
        tacv=viol.mean(axis=0),
        tacv_clipped=np.maximum(viol, 0.0).mean(axis=0),
        static_regret=static_regret,
        dynamic_regret=dynamic_regret,
        d_hat_sq=d_hat_sq,
        v_hat_sq=v_hat_sq,
        path_length=path,
        sq_path_length=sq_path,
        inexactness_proxy=np.zeros(t_tasks),
        per_task=per_task,
    )
