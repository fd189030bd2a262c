"""Within-task constrained policy optimization.

Alternates natural-gradient reward ascent with constraint descent, gated on
estimated constraint values against the limits plus a tolerance eta. Critic
is either an exact Bellman solve or tabular LSTD(0) from on-policy samples,
one chain a step for all p+1 objectives. A TdSampled step is one call of
`td_critic`, which draws the step's episodes and its chain of
`td_iterations` steps in one rollout, solves the chain's empirical SARSA
model for all p+1 objectives with one m x m solve (m <= S*A the pairs the
chain steps from), and returns the stacked value tables (v, q) together
with the episodes. Either critic hands `run_crpo` q of shape (p+1, S, A),
reward first, and a step moves the logits along one of its rows.
LSTD(0) has no step size, so the config has no `td_step_size`.

Every sampled draw, whether an episode step or a chain step, goes
through one batched rollout that steps all rows together and reproduces
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

from .cmdp import SoftmaxPolicy, all_objectives, policy_evaluation_exact
from .dice import TrajectoryDataset
from .errors import DegenerateRun, InvalidInput, is_count
from .sampling import cdf, draw

EXACT = "Exact"
TD_SAMPLED = "TdSampled"


@dataclass(frozen=True)
class CrpoConfig:
    learning_rate: float = 0.1
    steps: int = 100
    tolerance: float = 0.0
    critic_mode: str = EXACT
    td_iterations: int = 10_000     # TdSampled chain length, K
    episodes_per_step: int = 5
    episode_horizon: int = 50
    rng_seed: int = 0
    store_all_iterates: bool = True

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:   # NaN fails too
            raise InvalidInput("learning_rate must be positive and finite")
        if not is_count(self.steps, 1):
            raise InvalidInput("steps must be an integer >= 1")
        if not self.tolerance >= 0.0:
            raise InvalidInput("tolerance must be nonnegative")
        if self.critic_mode not in (EXACT, TD_SAMPLED):
            raise InvalidInput(f"unknown critic_mode {self.critic_mode!r}")
        if not is_count(self.td_iterations, 0):
            raise InvalidInput("td_iterations must be an integer >= 0")
        if not (is_count(self.episodes_per_step, 1)
                and is_count(self.episode_horizon, 1)):
            raise InvalidInput("episodes_per_step and episode_horizon must be "
                               "integers >= 1")


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


def npg_softmax_step(logits, q, alpha, direction, gamma):
    """Natural-gradient softmax update: theta' = theta +/- alpha/(1-gamma) Q,
    for one (S, A) Q table."""
    if alpha < 0:
        raise InvalidInput("alpha must be nonnegative")
    q = np.asarray(q, dtype=float)
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
    above every uniform. The walk steps through a transposed copy of u, so
    each step reads and writes one contiguous row, and keeps the CDF tables
    transposed, as `draw` takes them.
    """
    succ = cmdp.successors[0]
    a_n, k = succ.shape[1:]
    succ = succ.ravel()
    succ_cdf = np.ascontiguousarray(cmdp.successor_cdf.reshape(-1, k).T)  # (K, SA)
    policy_cdf = np.ascontiguousarray(policy_cdf.reshape(-1, a_n).T)      # (A, tables*S)
    table_start = row_policy * cmdp.n_states
    u = np.ascontiguousarray(u.T)
    x = np.empty(u.shape, dtype=np.intp)
    x[0] = draw(cdf(cmdp.initial_dist, "initial distribution")[:, None], u[0])
    for j in range(1, len(u)):
        if j % 2:
            x[j] = draw(policy_cdf.take(table_start + x[j - 1], axis=1), u[j])
        else:
            sa = x[j - 2] * a_n + x[j - 1]
            x[j] = succ.take(sa * k + draw(succ_cdf.take(sa, axis=1), u[j]))
    return x.T


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


def _td_q(cmdp, chain, config):
    """Tabular LSTD(0) on Q (SARSA-style targets) for every objective
    i = 0..p along one chain; returns the (p+1, S, A) tables.

    chain holds the drawn reset segments, one a row: s_0, a_0, s_1, a_1, ...,
    s_H, a_H, the last row only as far as the K steps reach. The K
    (s, a) -> (s', a') steps are counted into the empirical SARSA model
    P_hat on the m pairs that are the source of some step, each row divided
    by its pair's visits, and (I - gamma P_hat) Q = c is solved for all p+1
    objectives at once: the point batch TD(0) converges to on this chain.
    P_hat's rows sum to at most 1, so the system is diagonally dominant. A
    pair that is the source of no step keeps Q = 0, where TD(0) leaves it.
    """
    a_n, n = cmdp.n_actions, cmdp.n_states * cmdp.n_actions
    k = config.td_iterations
    sa = (chain[:, :-2:2] * a_n + chain[:, 1:-2:2]).ravel()[:k]    # (s, a) of each step
    sa_next = (chain[:, 2::2] * a_n + chain[:, 3::2]).ravel()[:k]  # (s', a') it steps to
    visits = np.bincount(sa, minlength=n)
    source = np.flatnonzero(visits)
    m = source.size
    index = np.full(n, m)   # column m: steps into pairs never stepped from, Q = 0
    index[source] = np.arange(m)
    counts = np.bincount(index[sa] * (m + 1) + index[sa_next],
                         minlength=m * (m + 1)).reshape(m, m + 1)[:, :m]
    system = np.eye(m) - cmdp.discount * counts / visits[source, None]
    tables = cmdp.objective_tables
    q = np.zeros((len(tables), n))
    q[:, source] = np.linalg.solve(system, tables.reshape(-1, n)[:, source].T).T
    return q.reshape(tables.shape)


def td_critic(cmdp, policy, config, rng=None):
    """One TdSampled CRPO step's samples and critic, from one rollout.

    Draws the step's `episodes_per_step` episodes of `episode_horizon`, then a
    chain of K = `td_iterations` (s, a) -> (s', a') steps that restarts from
    rho after every max(2, horizon) steps, and solves LSTD(0) for every
    objective over the chain (`_td_q`): one m x m solve with p+1 right-hand
    sides, m <= S*A the pairs the chain steps from, with Q = 0 on every
    other pair. The uniforms come from rng in that order, the
    episodes' exactly as `sample_episode` takes them, and all rows are walked
    together: an episode row is padded to the chain's width, 2 + 2 max(2, H),
    and its padded draws are dropped.

    Returns ((v, q), (states, actions, next_states)): the value tables, v
    of shape (p+1, S) and q of shape (p+1, S, A), reward first, as
    `policy_evaluation_exact` returns them, and the episodes as
    `sample_episode` returns them, each (episodes, horizon).
    The Exact critic is `policy_evaluation_exact`, which `run_crpo` calls
    itself; an Exact config is refused here.
    """
    if config.critic_mode != TD_SAMPLED:
        raise InvalidInput(f"td_critic needs critic_mode {TD_SAMPLED!r}, "
                           f"not {config.critic_mode!r}")
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    policy_cdf = cdf(policy.probs, "policy")[None]
    e, horizon = config.episodes_per_step, config.episode_horizon
    reset = max(2, horizon)
    k = config.td_iterations
    u = np.zeros((e + k // reset + 1, 2 + 2 * reset))
    u[:e, :1 + 2 * horizon] = rng.random((e, 1 + 2 * horizon))
    # s_0, a_0, then (s', a') per step and (s_0, a_0) per reset
    rng.random(out=u[e:].reshape(-1)[:2 + 2 * k + 2 * (k // reset)])
    x = _rollout(cmdp, policy_cdf, np.zeros(len(u), dtype=np.intp), u)
    episodes = x[:e, :1 + 2 * horizon].copy()
    q = _td_q(cmdp, x[e:], config)
    return (((policy.probs * q).sum(axis=2), q),
            (episodes[:, :-1:2], episodes[:, 1::2], episodes[:, 2::2]))


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
        policy = SoftmaxPolicy(logits=logits)
        snapshots.append(policy)

        if exact:
            v, q = policy_evaluation_exact(cmdp, policy)
            objectives[m] = v @ cmdp.initial_dist
            j_bar = objectives[m, 1:]
        else:
            (_, q), (st, ac, nx) = td_critic(cmdp, policy, config, rng)
            episodes.append((st, ac, nx))
            tt = np.broadcast_to(np.arange(horizon), st.shape)
            w = _discounted_weights(st.ravel(), ac.ravel(), tt.ravel(), gamma,
                                    cmdp.n_states, cmdp.n_actions)
            j_bar = (w * q[1:]).sum(axis=(1, 2))
            objectives[m] = all_objectives(cmdp, policy)
        estimates[m] = j_bar

        excess = j_bar - cmdp.limits - eta
        if np.all(excess <= 0):
            reward_steps.append(m)
            logits = npg_softmax_step(logits, q[0], alpha, "Ascent", gamma)
        else:
            worst = int(np.argmax(excess))  # argmax returns the lowest tied index
            constraint_steps[worst].append(m)
            logits = npg_softmax_step(logits, q[worst + 1], alpha, "Descent", gamma)

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
            outcome=CrpoOutcome(returned_policy=snapshots[-1],
                                returned_step=config.steps - 1, **outcome_args))
    chosen = reward_steps[rng.integers(len(reward_steps))]
    return CrpoOutcome(returned_policy=snapshots[chosen], returned_step=chosen,
                       **outcome_args)
