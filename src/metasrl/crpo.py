"""Within-task constrained policy optimization.

Alternates natural-gradient reward ascent with constraint descent, gated on
estimated constraint values against the limits plus a tolerance eta. Critic
is either an exact Bellman solve or tabular TD(0) from on-policy samples.

Every sampled draw, whether an episode step or a TD(0) chain step, goes
through one batched rollout that steps all rollouts together and reproduces
one `Generator.choice` call per draw, bit for bit; its inverse-CDF draw and
the checks on each probability table live in `metasrl.sampling`, which the
SGD DICE fit shares. Next states are drawn over the CMDP's successor CDF
(K <= 3 entries a row on the gridworlds), which the CMDP builds, checks and
caches once. The exact critic evaluates all p+1 objectives of an iterate
against one factorisation of its Bellman matrix, and that one solve also
gives the exact objectives (J_0..J_p) that a run records for every iterate,
whichever critic steers it. A run's transition log is built on
first read of `outcome.dataset`: with the Exact critic no sample feeds
control flow, so the episodes are drawn, from the run's seed, only when
something reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cmdp import (SoftmaxPolicy, ValueTable, all_objectives,
                   objective_values, policy_evaluation_exact,
                   policy_from_logits)
from .dice import TrajectoryDataset
from .errors import DegenerateRun, InvalidInput
from .sampling import cdf, draw

EXACT = "Exact"
TD_SAMPLED = "TdSampled"


@dataclass(frozen=True)
class CrpoConfig:
    learning_rate: float = 0.1
    steps: int = 100
    tolerance: float = 0.0
    critic_mode: str = EXACT
    td_iterations: int = 10_000
    td_step_size: float = 0.1
    episodes_per_step: int = 5
    episode_horizon: int = 50
    rng_seed: int = 0
    store_all_iterates: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidInput("learning_rate must be positive")
        if self.steps < 1:
            raise InvalidInput("steps must be >= 1")
        if self.tolerance < 0:
            raise InvalidInput("tolerance must be nonnegative")
        if self.critic_mode not in (EXACT, TD_SAMPLED):
            raise InvalidInput(f"unknown critic_mode {self.critic_mode!r}")
        if self.episodes_per_step < 1 or self.episode_horizon < 1:
            raise InvalidInput("episodes_per_step and episode_horizon must be >= 1")


@dataclass(frozen=True)
class CrpoOutcome:
    returned_policy: SoftmaxPolicy
    reward_steps: tuple            # indices where reward ascent happened
    constraint_steps: tuple        # per-constraint index tuples
    per_step_estimates: np.ndarray  # (M, p) estimated constraint values
    iterate_objectives: np.ndarray  # (M, p+1) exact J_0..J_p of every iterate
    returned_step: int             # iterate index of returned_policy
    log_builder: Callable = field(repr=False, compare=False)
    all_iterates: tuple = None

    @cached_property
    def dataset(self):
        """The run's transition log (a TrajectoryDataset), built on first read."""
        return self.log_builder()

    @property
    def returned_objectives(self):
        """Exact (J_0, ..., J_p) of the returned policy."""
        return self.iterate_objectives[self.returned_step]


def compute_eta(dims, alpha, m_steps, kl_bound, gamma, c_max, p):
    """Violation tolerance making reward steps provably nonempty.

    eta = 2 kl/(M alpha) + 4 alpha c_max^2 |S||A|/(1-gamma)^3
          + (p+1) * 2 (3 + (1-gamma)^2 + 3 alpha c_max) / (sqrt(M) (1-gamma)^2).
    """
    s_n, a_n = dims
    if m_steps <= 0 or alpha <= 0:
        raise InvalidInput("alpha and M must be positive")
    if kl_bound < 0:
        raise InvalidInput("kl_bound must be nonnegative")
    one_m_g = 1.0 - gamma
    term1 = 2.0 * kl_bound / (m_steps * alpha)
    term2 = alpha * 4.0 * c_max ** 2 * s_n * a_n / one_m_g ** 3
    term3 = (p + 1) * 2.0 * (3.0 + one_m_g ** 2 + 3.0 * alpha * c_max) \
        / (np.sqrt(m_steps) * one_m_g ** 2)
    return term1 + term2 + term3


def suboptimality_bound(alpha, m_steps, kl_bound, gamma, c_max, s_n, a_n):
    """Upper bound on both the reward gap and constraint violation of the
    averaged CRPO iterate: 2 kl/(alpha M) + 4 alpha c_max^2 |S||A|/(1-gamma)^3."""
    return 2.0 * kl_bound / (alpha * m_steps) \
        + 4.0 * alpha * c_max ** 2 * s_n * a_n / (1.0 - gamma) ** 3


def npg_softmax_step(logits, q_estimate, alpha, direction, gamma):
    """Natural-gradient softmax update: theta' = theta +/- alpha/(1-gamma) Q."""
    if alpha < 0:
        raise InvalidInput("alpha must be nonnegative")
    q = q_estimate.q if hasattr(q_estimate, "q") else np.asarray(q_estimate, dtype=float)
    if not np.all(np.isfinite(q)):
        raise InvalidInput("non-finite Q estimate")
    sign = {"Ascent": 1.0, "Descent": -1.0}.get(direction)
    if sign is None:
        raise InvalidInput(f"unknown direction {direction!r}")
    return np.asarray(logits, dtype=float) + sign * (alpha / (1.0 - gamma)) * q


def _rollout(cmdp, policy_cdf, row_policy, u):
    """Walk every row of uniforms u (n, w) along s_0 ~ rho, a_0 ~ pi(s_0),
    s_1 ~ P(s_0, a_0), a_1 ~ pi(s_1), ..., one uniform per draw, all rows
    stepped together; row i acts with policy table row_policy[i].

    Returns the (n, w) drawn indices: states in even columns, actions in odd.
    A next state is drawn over its (s, a)'s successor CDF and mapped back to
    its state index. That is the dense draw bit for bit: the omitted zeros
    add nothing to the cumulative sums, and the padded slots sit at 1.0,
    above every uniform.
    """
    succ = cmdp.successors[0]
    succ_cdf = cmdp.successor_cdf
    x = np.empty(u.shape, dtype=np.intp)
    x[:, 0] = draw(cdf(cmdp.initial_dist, "initial distribution"), u[:, 0])
    for j in range(1, u.shape[1]):
        if j % 2:
            x[:, j] = draw(policy_cdf[row_policy, x[:, j - 1]], u[:, j])
        else:
            s, a = x[:, j - 2], x[:, j - 1]
            x[:, j] = succ[s, a, draw(succ_cdf[s, a], u[:, j])]
    return x


def sample_episode(cmdp, probs, horizon, rng, episodes=1):
    """On-policy rollouts of fixed horizon, all stepped together.

    probs is one (S, A) policy table or a stack (k, S, A) of them; each table
    runs `episodes` rollouts, table after table. The draws are those of one
    `rng.choice` per initial state, action and next state, episode after
    episode. Returns (states, actions, next_states), each of shape
    (k * episodes, horizon).
    """
    policy_cdf = cdf(probs, "policy")
    if policy_cdf.ndim == 2:
        policy_cdf = policy_cdf[None]
    row_policy = np.repeat(np.arange(len(policy_cdf)), episodes)
    x = _rollout(cmdp, policy_cdf, row_policy,
                 rng.random((row_policy.size, 1 + 2 * horizon)))
    return x[:, :-1:2], x[:, 1::2], x[:, 2::2]


def _td_q(cmdp, probs, objective_index, config, rng):
    """Tabular TD(0) on Q from on-policy samples (SARSA-style targets).

    The chain restarts from rho after every `horizon` updates. Its path does
    not depend on q, so it is sampled first, one reset segment a row: a
    segment draws s_0, a_0, s_1, a_1, ..., s_H, a_H (2 + 2H draws), the last
    one only as far as the K updates reach. Only the scalar updates run in
    order, on Python floats, which round as numpy scalars do.
    """
    c = cmdp.objective_table(objective_index)
    a_n = cmdp.n_actions
    horizon = max(2, config.episode_horizon)
    k = max(0, config.td_iterations)
    width = 2 + 2 * horizon
    u = np.zeros((k // horizon + 1) * width)
    rng.random(out=u[:2 + 2 * k + 2 * (k // horizon)])
    u = u.reshape(-1, width)
    x = _rollout(cmdp, cdf(probs, "policy")[None], np.zeros(len(u), dtype=np.intp), u)
    sa = (x[:, :-2:2] * a_n + x[:, 1:-2:2]).ravel()[:k]    # (s, a) of each update
    sa_next = (x[:, 2::2] * a_n + x[:, 3::2]).ravel()[:k]  # (s', a') of its target
    step, gamma, cost = config.td_step_size, cmdp.discount, c.ravel().tolist()
    q = [0.0] * c.size
    for i, j in zip(sa.tolist(), sa_next.tolist()):
        qi = q[i]
        q[i] = qi + step * (cost[i] + gamma * q[j] - qi)
    return np.array(q).reshape(c.shape)


def td_critic(cmdp, policy, objective_index, config, rng=None):
    """Sampled critic: K_in tabular TD(0) updates from on-policy samples.
    The Exact critic is `policy_evaluation_exact`, which `run_crpo` calls
    itself; an Exact config is refused here."""
    if config.critic_mode != TD_SAMPLED:
        raise InvalidInput(f"td_critic needs critic_mode {TD_SAMPLED!r}, "
                           f"not {config.critic_mode!r}")
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    q = _td_q(cmdp, policy.probs, objective_index, config, rng)
    v = (policy.probs * q).sum(axis=1)
    return ValueTable(v=v, q=q, objective_index=objective_index)


def _discounted_weights(states, actions, t, gamma, s_n, a_n):
    """Normalized discounted visitation weights of observed (s,a) pairs."""
    w = np.zeros((s_n, a_n))
    np.add.at(w, (states, actions), gamma ** t)
    return w / w.sum()


def _log_dataset(cmdp, states, actions, nexts):
    """Transition log from (episodes, horizon) arrays in (step, episode)
    order."""
    return TrajectoryDataset.from_samples(
        cmdp.n_states, cmdp.n_actions, s=states.ravel(), a=actions.ravel(),
        s_next=nexts.ravel(), initial_states=states[:, 0])


def _sampled_log(cmdp, policies, config):
    """Draw every episode of an Exact-critic run: they are the first draws of
    the run's generator, so they are drawn again from its seed."""
    episodes = sample_episode(cmdp, policies, config.episode_horizon,
                              np.random.default_rng(config.rng_seed),
                              config.episodes_per_step)
    return _log_dataset(cmdp, *episodes)


def run_crpo(cmdp, init_policy, config):
    """CRPO loop: gate on estimated constraint values, ascend or descend.

    At each of M steps, estimate every constraint value; if all are within
    their limit plus tolerance, take a natural-gradient ascent step on the
    reward, otherwise descend on the most-violated constraint (ties to the
    lowest index). Returns the uniform draw from the reward-step snapshots,
    the exact objectives of every iterate, and the transition log (built when
    first read).
    """
    rng = np.random.default_rng(config.rng_seed)
    p = cmdp.n_costs
    gamma = cmdp.discount
    alpha = config.learning_rate
    eta = config.tolerance
    horizon = config.episode_horizon
    exact = config.critic_mode == EXACT
    if exact:
        # the episodes feed no decision: skip their draws here, so the final
        # draw sees the same stream, and make them when the log is read
        rng.bit_generator.advance(
            config.steps * config.episodes_per_step * (1 + 2 * horizon))
    else:
        episodes = []

    logits = np.array(init_policy.logits, dtype=float)
    snapshots = []
    reward_steps = []
    constraint_steps = [[] for _ in range(p)]
    estimates = np.zeros((config.steps, p))
    objectives = np.zeros((config.steps, p + 1))

    for m in range(config.steps):
        policy = policy_from_logits(logits)
        snapshots.append(policy)

        if exact:
            values = policy_evaluation_exact(cmdp, policy)
            objectives[m] = objective_values(cmdp, values)
            j_bar = objectives[m, 1:]
        else:
            st, ac, nx = sample_episode(cmdp, policy.probs, horizon, rng,
                                        config.episodes_per_step)
            episodes.append((st, ac, nx))
            values = [td_critic(cmdp, policy, i, config, rng) for i in range(p + 1)]
            tt = np.broadcast_to(np.arange(horizon), st.shape)
            w = _discounted_weights(st.ravel(), ac.ravel(), tt.ravel(), gamma,
                                    cmdp.n_states, cmdp.n_actions)
            j_bar = np.array([(w * values[i].q).sum() for i in range(1, p + 1)])
            objectives[m] = all_objectives(cmdp, policy)
        estimates[m] = j_bar

        excess = j_bar - cmdp.limits - eta
        if np.all(excess <= 0):
            reward_steps.append(m)
            logits = npg_softmax_step(logits, values[0], alpha, "Ascent", gamma)
        else:
            worst = int(np.argmax(excess))  # argmax returns the lowest tied index
            constraint_steps[worst].append(m)
            logits = npg_softmax_step(logits, values[worst + 1], alpha, "Descent", gamma)

    if exact:
        policies = np.array([pol.probs for pol in snapshots])
        log_builder = partial(_sampled_log, cmdp, policies, config)
    else:
        log_builder = partial(_log_dataset, cmdp,
                              *(np.concatenate(arrays) for arrays in zip(*episodes)))
    outcome_args = dict(
        reward_steps=tuple(reward_steps),
        constraint_steps=tuple(tuple(v) for v in constraint_steps),
        per_step_estimates=estimates,
        iterate_objectives=objectives,
        log_builder=log_builder,
        all_iterates=tuple(snapshots) if config.store_all_iterates else None,
    )
    if not reward_steps:
        raise DegenerateRun(
            "no reward-ascent step occurred; returned policy undefined",
            last_policy=snapshots[-1],
            outcome=CrpoOutcome(returned_policy=snapshots[-1],
                                returned_step=config.steps - 1, **outcome_args))
    chosen = reward_steps[rng.integers(len(reward_steps))]
    return CrpoOutcome(returned_policy=snapshots[chosen], returned_step=chosen,
                       **outcome_args)
