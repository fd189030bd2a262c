"""Meta-learning across tasks: projected inexact OGD on the policy
initialization and the within-task learning rate, closed-form similarity
center, and regret accounting.

The initialization is optimized directly over probability rows constrained
to the shrinkage simplex {a : sum a = 1, a_i >= rho}; the learning rate is
optimized over [zeta, inf).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .cmdp import TablePolicy, _fmt
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


def project_row_shrinkage_simplex(v, shrink):
    """Projection onto {a : sum a = 1, a_i >= shrink}, along the last axis.

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


def project_table_shrinkage_simplex(table, shrink):
    """Project every row of an (S, A) table onto the shrinkage simplex."""
    return project_row_shrinkage_simplex(table, shrink)


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


def contraction_step_count(lam, alpha):
    """K = ceil(ln 2 / ln(1 + lambda alpha)) giving a 1/2 contraction."""
    if lam <= 0 or alpha <= 0:
        raise InvalidInput("lambda and alpha must be positive")
    return int(np.ceil(np.log(2.0) / np.log1p(lam * alpha)))


@dataclass(frozen=True)
class SimConstants:
    """Scale constants of the learning-rate loss and the regret bounds."""

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    @classmethod
    def from_problem(cls, gamma, c_max, n_states, n_actions):
        one_m_g = 1.0 - gamma
        return cls(
            c1=2.0,
            c2=4.0 * c_max ** 2 * n_states * n_actions / one_m_g ** 3,
            c3=(3.0 + one_m_g ** 2) / one_m_g ** 2,
            c4=3.0 * c_max / one_m_g ** 2,
            c5=2.0 * np.sqrt(one_m_g * n_states * n_actions),
        )


def sim_loss_and_grad(kappa, kl_term, m_steps, constants):
    """Learning-rate surrogate loss c1*kl/kappa + kappa (c2 M + c4 sqrt M) + c3 sqrt M."""
    if kappa <= 0:
        raise InvalidInput("kappa must be positive")
    if kl_term < 0:
        raise InvalidInput("kl_term must be nonnegative")
    root_m = np.sqrt(m_steps)
    slope = constants.c2 * m_steps + constants.c4 * root_m
    loss = constants.c1 * kl_term / kappa + kappa * slope + constants.c3 * root_m
    grad = -constants.c1 * kl_term / kappa ** 2 + slope
    return float(loss), float(grad)


def kappa_star(u_init, inexactness, t_tasks, v_hat_sq, m_steps, constants):
    """Hindsight-optimal within-task rate for the combined regret bound."""
    slope = constants.c2 * m_steps + constants.c4 * np.sqrt(m_steps)
    return float(np.sqrt((u_init + inexactness + t_tasks * v_hat_sq) / slope))


def rate_regret_objective(kappa, u_init, inexactness, t_tasks, v_hat_sq,
                          m_steps, constants):
    """L(kappa): the kappa-dependent part of the combined TAOG/TACV bound.

    Minimized at kappa_star; the kappa-independent additive terms are
    omitted since they do not affect the argmin.
    """
    if kappa <= 0:
        raise InvalidInput("kappa must be positive")
    slope = constants.c2 * m_steps + constants.c4 * np.sqrt(m_steps)
    return float((u_init + inexactness + t_tasks * v_hat_sq) / kappa + kappa * slope)


@dataclass(frozen=True)
class MetaLearnerState:
    init_policy: np.ndarray          # (S, A) probability table in the shrinkage simplex
    learning_rate: float
    ogd_step_init: float
    ogd_step_sim: float
    inner_updates: int = 1
    shrinkage: float = 1e-3
    rate_floor: float = 1e-4

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

    def init_as_policy(self):
        return TablePolicy(probs=self.init_policy)


def meta_update(state, nu_hat, pi_hat, m_steps, constants):
    """One meta-step after a finished task.

    The initialization takes K projected OGD steps on the plug-in KL loss;
    the learning rate takes one OGD step on the rate surrogate, floored at
    rate_floor. Returns the new state.
    """
    kl_term, _ = kl_loss_and_grad(nu_hat, pi_hat, TablePolicy(probs=state.init_policy))
    kl_term = max(kl_term, 0.0)  # guard against rounding just below zero

    def grad(phi_table):
        _, g = kl_loss_and_grad(nu_hat, pi_hat, TablePolicy(probs=phi_table))
        return g

    projector = lambda tab: project_table_shrinkage_simplex(tab, state.shrinkage)
    phi_next = inexact_multi_ogd(state.init_policy, grad, state.ogd_step_init,
                                 state.inner_updates, projector)

    _, sim_grad = sim_loss_and_grad(state.learning_rate, kl_term, m_steps, constants)
    kappa_next = max(state.rate_floor,
                     state.learning_rate - state.ogd_step_sim * sim_grad)

    return replace(state, init_policy=phi_next, learning_rate=kappa_next)


def closed_form_similarity_center(history, shrink):
    """Best single initialization for a history of (nu_hat, pi_hat) pairs.

    Per state, the visitation-weighted mean of the learned policies minimizes
    the average KL; rows never visited default to uniform. The result is
    projected row-wise onto the shrinkage simplex and the attained average
    KL is returned alongside.
    """
    if not history:
        raise InvalidInput("empty history")
    nus = np.array([h[0].nu for h in history])
    pis = np.array([h[1].probs for h in history])
    weight = nus.sum(axis=0)
    num = np.einsum("ts,tsa->sa", nus, pis)
    n_actions = pis.shape[2]
    center = np.full((nus.shape[1], n_actions), 1.0 / n_actions)
    seen = weight > 0
    center[seen] = num[seen] / weight[seen, None]
    center = project_table_shrinkage_simplex(center, shrink)
    phi = TablePolicy(probs=center)
    d_sq = np.mean([kl_loss_and_grad(h[0], h[1], phi)[0] for h in history])
    return center, float(d_sq)


@dataclass(frozen=True)
class RegretReport:
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

    def to_json(self):
        doc = {
            "taog": _fmt(self.taog),
            "tacv": _fmt(self.tacv),
            "tacv_clipped": _fmt(self.tacv_clipped),
            "static_regret": _fmt(self.static_regret),
            "dynamic_regret": _fmt(self.dynamic_regret),
            "d_hat_sq": _fmt(self.d_hat_sq),
            "v_hat_sq": _fmt(self.v_hat_sq),
            "path_length": _fmt(self.path_length),
            "sq_path_length": _fmt(self.sq_path_length),
            "inexactness_proxy": _fmt(self.inexactness_proxy),
            "per_task": self.per_task,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_csv(self):
        header = "task,taog_contribution," + ",".join(
            f"tacv_{i + 1}" for i in range(len(self.tacv))) \
            + ",kl_term,kappa,inexactness\n"
        rows = []
        for rec in self.per_task:
            tacv = ",".join(f"{v:.17g}" for v in rec["tacv"])
            rows.append(f"{rec['task']},{rec['taog']:.17g},{tacv},"
                        f"{rec['kl_term']:.17g},{rec['kappa']:.17g},"
                        f"{rec['inexactness']:.17g}\n")
        return header + "".join(rows)


def regret_report(oracle_solutions, outcomes, cmdps, comparators=None,
                  nu_hats=None, kl_terms=None, kappas=None,
                  inexactness=None, shrink=0.0, j_hat=None):
    """Task-averaged optimality gap, constraint violations and similarity stats.

    j_hat optionally supplies per-task objective vectors (J_0..J_p) of the
    returned policies, e.g. seed averages; otherwise the single returned
    policy of each outcome is evaluated exactly.
    """
    from .cmdp import all_objectives, visitation_exact

    t_tasks = len(cmdps)
    if len(oracle_solutions) != t_tasks or len(outcomes) != t_tasks:
        raise InvalidInput("misaligned task lists")
    p = cmdps[0].n_costs
    gaps = np.zeros(t_tasks)
    viol = np.zeros((t_tasks, p))
    history = []
    per_task = []
    for t in range(t_tasks):
        cmdp = cmdps[t]
        pol = outcomes[t].returned_policy
        j = np.asarray(j_hat[t]) if j_hat is not None else all_objectives(cmdp, pol)
        gaps[t] = oracle_solutions[t].objective_values[0] - j[0]
        viol[t] = j[1:] - cmdp.limits
        nu = nu_hats[t] if nu_hats is not None else visitation_exact(cmdp, pol)
        history.append((nu, pol))

    center, d_hat_sq = closed_form_similarity_center(history, shrink)
    phi_star = TablePolicy(probs=center)
    kl_at_center = np.array([kl_loss_and_grad(nu, pol, phi_star)[0]
                             for nu, pol in history])
    static_regret = float((np.asarray(kl_terms) - kl_at_center).sum()) \
        if kl_terms is not None else 0.0

    path, sq_path, v_hat_sq, dynamic_regret = 0.0, 0.0, d_hat_sq, static_regret
    if comparators is not None:
        comp = [np.asarray(c, dtype=float) for c in comparators]
        if len(comp) != t_tasks:
            raise InvalidInput("comparator sequence misaligned")
        diffs = [np.linalg.norm(comp[i] - comp[i - 1]) for i in range(1, t_tasks)]
        path = float(np.sum(diffs))
        sq_path = float(np.sum(np.square(diffs)))
        kl_at_comp = np.array([kl_loss_and_grad(history[t][0], history[t][1],
                                                TablePolicy(probs=comp[t]))[0]
                               for t in range(t_tasks)])
        v_hat_sq = float(kl_at_comp.mean())
        if kl_terms is not None:
            dynamic_regret = float((np.asarray(kl_terms) - kl_at_comp).sum())

    inex = np.zeros(t_tasks) if inexactness is None else np.asarray(inexactness, dtype=float)
    kl_terms_arr = np.asarray(kl_terms, dtype=float) if kl_terms is not None \
        else np.zeros(t_tasks)
    kappa_arr = np.asarray(kappas, dtype=float) if kappas is not None \
        else np.zeros(t_tasks)
    for t in range(t_tasks):
        per_task.append({
            "task": t,
            "taog": float(gaps[t]),
            "tacv": [float(v) for v in viol[t]],
            "kl_term": float(kl_terms_arr[t]),
            "kappa": float(kappa_arr[t]),
            "inexactness": float(inex[t]),
        })
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
        inexactness_proxy=inex,
        per_task=per_task,
    )


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


def static_regret_bound(l1, l2, comparator_norm, t_tasks, c_sub, inexact_sum):
    """Explicit-constant static-regret bound for projected inexact OGD with
    step size ||x|| / (L1 sqrt(2T))."""
    return float(l1 * comparator_norm * np.sqrt(2.0 * t_tasks)
                 + (1.0 + np.sqrt(2.0) * c_sub * l1 * l2 * comparator_norm
                    / np.sqrt(t_tasks)) * inexact_sum)
