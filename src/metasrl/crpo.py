"""Within-task constrained policy optimization.

Alternates natural-gradient reward ascent with constraint descent, gated on
estimated constraint values against the limits plus a tolerance eta. A
critic is either an exact Bellman solve (`policy_evaluation_exact`) or
tabular LSTD(0) from on-policy samples (`td_critic`), one chain a step for
all p+1 objectives: it draws a chain of `td_iterations` steps in one
rollout, solves the chain's empirical SARSA model for all p+1 objectives
with one m x m solve (m <= S*A the pairs the chain steps from), and returns
the value tables. Both critics take the iterate's (S, A) probability table
and return (v, q), v of shape (p+1, S) and q of shape (p+1, S, A), reward
first, and `run_crpo` has one step body for both: it gates on the estimates
J_i = rho . v_i of the step's own critic and moves the logits along one row
of q. LSTD(0) has no step size, so the config has no `td_step_size`. A run
writes each step's softmax into row m of one (M, S, A) iterate stack and
builds no policy object per step: the init `SoftmaxPolicy` checks the logits
once, and `npg_softmax_step` refuses a non-finite Q.

Every sampled draw, whether an episode step or a chain step, goes
through one batched rollout that steps all rows together and reproduces
one `Generator.choice` call per draw, bit for bit; its inverse-CDF draw and
the checks on each probability table live in `metasrl.sampling`, which the
SGD DICE fit shares. Next states are drawn over the CMDP's successor CDF
(K <= 3 entries a row on the gridworlds), which the CMDP builds, checks and
caches once. The exact critic evaluates all p+1 objectives of an iterate
against one factorisation of its Bellman matrix, and that one solve also
gives the exact objectives (J_0..J_p) that a run records for every iterate,
whichever critic steers it. A run's transition log feeds no decision under
either critic, so it is built on first read of `outcome.dataset`: its
episodes are the first draws of the run's generator, which the run skips,
and they are drawn then, from the run's seed and its iterate stack, in one
`sample_episode` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cmdp import TablePolicy, _check_dims, _softmax_rows, policy_evaluation_exact
from .dice import TrajectoryDataset
from .errors import DegenerateRun, InvalidInput, check_counts
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

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:   # NaN fails too
            raise InvalidInput("learning_rate must be positive and finite")
        check_counts(self, steps=1, td_iterations=0, episodes_per_step=1,
                     episode_horizon=1, rng_seed=0)
        if not self.tolerance >= 0.0:
            raise InvalidInput("tolerance must be nonnegative")
        if self.critic_mode not in (EXACT, TD_SAMPLED):
            raise InvalidInput(f"unknown critic_mode {self.critic_mode!r}")


@dataclass(frozen=True)
class CrpoOutcome:
    """What one CRPO run leaves: its iterates, its decisions, every step's
    constraint estimates rho . v_1..p from the step's own critic, every
    iterate's exact objectives, and the transition log, which is drawn only
    when `dataset` is first read."""

    iterates: np.ndarray           # (M, S, A) read-only tables, in step order
    reward_steps: tuple            # indices where reward ascent happened
    constraint_steps: tuple        # per-constraint index tuples
    per_step_estimates: np.ndarray  # (M, p) estimated constraint values
    iterate_objectives: np.ndarray  # (M, p+1) exact J_0..J_p of every iterate
    returned_step: int             # iterate index of returned_policy
    log_builder: Callable = field(repr=False, compare=False)

    @cached_property
    def dataset(self):
        """The run's transition log (a TrajectoryDataset), built on first read."""
        return self.log_builder()

    @cached_property
    def returned_policy(self):
        """The returned iterate, iterates[returned_step], as a TablePolicy of
        its own copy: a caller that keeps it keeps no view of the stack."""
        return TablePolicy(probs=self.iterates[self.returned_step].copy())

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


def td_critic(cmdp, probs, config, rng=None):
    """One TdSampled CRPO step's critic, from one rollout of the table probs.

    Draws a chain of K = `td_iterations` (s, a) -> (s', a') steps that
    restarts from rho after every max(2, horizon) steps, and solves LSTD(0)
    for every objective over the chain (`_td_q`): one m x m solve with p+1
    right-hand sides, m <= S*A the pairs the chain steps from, with Q = 0 on
    every other pair. The chain's uniforms are the rng's next draws, and all
    its reset segments are walked together.

    Returns (v, q), v = sum_a pi q of shape (p+1, S) and q of shape
    (p+1, S, A), reward first, as `policy_evaluation_exact` returns them.
    The Exact critic is `policy_evaluation_exact`, which `run_crpo` calls
    itself; an Exact config is refused here.
    """
    if config.critic_mode != TD_SAMPLED:
        raise InvalidInput(f"td_critic needs critic_mode {TD_SAMPLED!r}, "
                           f"not {config.critic_mode!r}")
    _check_dims(cmdp, probs)
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    policy_cdf = cdf(probs, "policy")[None]
    reset = max(2, config.episode_horizon)
    k = config.td_iterations
    u = np.zeros((k // reset + 1, 2 + 2 * reset))
    # s_0, a_0, then (s', a') per step and (s_0, a_0) per reset
    rng.random(out=u.reshape(-1)[:2 + 2 * k + 2 * (k // reset)])
    q = _td_q(cmdp, _rollout(cmdp, policy_cdf, np.zeros(len(u), dtype=np.intp), u),
              config)
    return (probs * q).sum(axis=2), q


def _sampled_log(cmdp, iterates, config):
    """The run's transition log: `episodes_per_step` episodes of each row of
    the iterate stack, in step order. They are the first draws of the run's
    generator, which the run skips, so they are drawn here from its seed."""
    states, actions, nexts = sample_episode(
        cmdp, iterates, config.episode_horizon,
        np.random.default_rng(config.rng_seed), config.episodes_per_step)
    return TrajectoryDataset.from_samples(
        cmdp.n_states, cmdp.n_actions, s=states.ravel(), a=actions.ravel(),
        s_next=nexts.ravel(), initial_states=states[:, 0])


def run_crpo(cmdp, init_policy, config):
    """CRPO loop: gate on estimated constraint values, ascend or descend.

    At each of M steps, the config's critic gives the iterate's (v, q) and
    every constraint value is estimated as rho . v_i. If all are within
    their limit plus tolerance, take a natural-gradient ascent step on the
    reward, otherwise descend on the most-violated constraint (ties to the
    lowest index). Returns the (M, S, A) iterate stack, the uniform draw from
    its reward-step rows, the exact objectives of every iterate, and the
    transition log (built when first read).
    """
    rng = np.random.default_rng(config.rng_seed)
    # the log's episodes feed no decision: skip their draws here, so that the
    # critic and the final draw see the same stream, and make them when the
    # log is read
    rng.bit_generator.advance(
        config.steps * config.episodes_per_step * (1 + 2 * config.episode_horizon))
    p = cmdp.n_costs
    gamma = cmdp.discount
    alpha = config.learning_rate
    eta = config.tolerance
    exact = config.critic_mode == EXACT

    logits = np.array(init_policy.logits, dtype=float)
    iterates = np.empty((config.steps,) + logits.shape)
    reward_steps = []
    constraint_steps = [[] for _ in range(p)]
    estimates = np.zeros((config.steps, p))
    objectives = np.zeros((config.steps, p + 1))

    for m in range(config.steps):
        iterates[m] = probs = _softmax_rows(logits)
        v, q = (policy_evaluation_exact(cmdp, probs) if exact
                else td_critic(cmdp, probs, config, rng))
        j = v @ cmdp.initial_dist
        objectives[m] = (j if exact else
                         policy_evaluation_exact(cmdp, probs)[0] @ cmdp.initial_dist)
        estimates[m] = j[1:]

        excess = estimates[m] - cmdp.limits - eta
        if np.all(excess <= 0):
            reward_steps.append(m)
            logits = npg_softmax_step(logits, q[0], alpha, "Ascent", gamma)
        else:
            worst = int(np.argmax(excess))  # argmax returns the lowest tied index
            constraint_steps[worst].append(m)
            logits = npg_softmax_step(logits, q[worst + 1], alpha, "Descent", gamma)

    iterates.setflags(write=False)
    outcome_args = dict(
        iterates=iterates,
        reward_steps=tuple(reward_steps),
        constraint_steps=tuple(map(tuple, constraint_steps)),
        per_step_estimates=estimates,
        iterate_objectives=objectives,
        log_builder=partial(_sampled_log, cmdp, iterates, config),
    )
    if not reward_steps:
        raise DegenerateRun(
            "no reward-ascent step occurred; returned policy undefined",
            outcome=CrpoOutcome(returned_step=config.steps - 1, **outcome_args))
    chosen = reward_steps[rng.integers(len(reward_steps))]
    return CrpoOutcome(returned_step=chosen, **outcome_args)
