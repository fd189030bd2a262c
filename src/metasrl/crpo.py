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
builds no policy object per step; `npg_softmax_step` refuses a non-finite Q
and adds it times the signed step +/- alpha/(1-gamma).

Runs on one CMDP step in lockstep: `crpo_lanes` takes L runs, its lanes,
which share one config but for each lane's rate and seed, through their M
steps together over an (L, S, A) logit stack, with one stacked exact solve
a step and a signed step per lane. Each lane's output draw, and under
TdSampled its critic's chains, come from its own generator, so each lane
gets the bits it gets alone; a run called alone is a lockstep of one lane.

Every sampled draw, whether an episode step or a chain step, goes
through one batched rollout that steps all rows together and reproduces
one `Generator.choice` call per draw, bit for bit; its inverse-CDF draw and
the checks on each probability table live in `metasrl.sampling`, which the
SGD DICE fit shares. Next states are drawn over the CMDP's successor CDF
(K <= 3 entries a row on the gridworlds) and initial states over rho's
CDF, which the CMDP builds, checks and caches once, in the layout the
rollout steps through; a rollout builds only its policy tables' CDF. The
exact critic evaluates all p+1 objectives of an iterate against one
factorisation of its Bellman matrix, and that one solve also gives the
exact objectives (J_0..J_p) that a run records for every iterate,
whichever critic steers it. A run's transition log feeds no decision under
either critic, so it is built on first read of `outcome.dataset`: its
episodes are the first draws of the run's generator, which the run skips,
and they are drawn then, from the run's seed and its iterate stack, in one
`sample_episode` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .cmdp import (TablePolicy, _as_readonly, _check_dims, _softmax_rows,
                   policy_evaluation_exact)
from .dice import TrajectoryDataset
from .errors import DegenerateRun, InvalidInput, check_counts, check_reals
from .sampling import cdf, draw

EXACT = "Exact"
TD_SAMPLED = "TdSampled"


def _lane_error(rate, seed, finite=True):
    """The InvalidInput that refuses a run's learning rate, seed or (not
    finite) init logits, or None: `CrpoConfig` raises it for its own rate
    and seed, and `crpo_lanes` makes it the entry of a lane it refuses."""
    lane = SimpleNamespace(learning_rate=rate, rng_seed=seed)
    try:
        check_reals(lane, "learning_rate")
        if not 0.0 < rate < np.inf:   # NaN fails too
            raise InvalidInput("learning_rate must be positive and finite")
        check_counts(lane, rng_seed=0)
    except InvalidInput as exc:
        return exc
    return None if finite else InvalidInput("logits must be finite")


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
        if (error := _lane_error(self.learning_rate, self.rng_seed)) is not None:
            raise error
        check_reals(self, "tolerance")
        check_counts(self, steps=1, td_iterations=0, episodes_per_step=1,
                     episode_horizon=1)
        if not self.tolerance >= 0.0:
            raise InvalidInput("tolerance must be nonnegative")
        if self.critic_mode not in (EXACT, TD_SAMPLED):
            raise InvalidInput(f"unknown critic_mode {self.critic_mode!r}")
        if self.critic_mode == TD_SAMPLED and self.td_iterations < 1:
            raise InvalidInput("td_iterations must be >= 1 under TdSampled")


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


def npg_softmax_step(logits, q, step):
    """Natural-gradient softmax update theta' = theta + step * Q of one (S, A)
    logit table, or of a stack (L, S, A) with one step a table, (L, 1, 1):
    step = alpha/(1-gamma) ascends, -alpha/(1-gamma) descends."""
    if not np.isfinite(q).all():
        raise InvalidInput("non-finite Q estimate")
    return logits + step * q


def _rollout(cmdp, policy_cdf, row_policy, u):
    """Walk every row of uniforms u (n, w) along s_0 ~ rho, a_0 ~ pi(s_0),
    s_1 ~ P(s_0, a_0), a_1 ~ pi(s_1), ..., one uniform per draw, all rows
    stepped together; row i acts with the CDF table policy_cdf[row_policy[i]].

    Returns the (n, w) drawn indices: states in even columns, actions in odd.
    A next state is drawn over its (s, a)'s successor CDF and mapped back to
    its state index. That is the dense draw bit for bit: the omitted zeros
    add nothing to the cumulative sums, and the padded slots sit at 1.0,
    above every uniform. The walk steps through a transposed copy of u, so
    each step reads and writes one contiguous row, and reads the CMDP's
    cached CDF tables, kept transposed as `draw` takes them.
    """
    a_n, k = cmdp.successors[0].shape[1:]
    succ, succ_cdf = cmdp.successors[0].ravel(), cmdp.successor_cdf  # succ_cdf (K, SA)
    policy_cdf = np.ascontiguousarray(policy_cdf.reshape(-1, a_n).T)  # (A, tables*S)
    table_start = row_policy * cmdp.n_states
    u = np.ascontiguousarray(u.T)
    x = np.empty(u.shape, dtype=np.intp)
    x[0] = draw(cmdp.initial_cdf, u[0])
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


def _td_q(cmdp, chain, iterations):
    """Tabular LSTD(0) on Q (SARSA-style targets) for every objective
    i = 0..p along one chain's first K = `iterations` steps; returns the
    (p+1, S, A) tables.

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
    k = iterations
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


def td_critic(cmdp, probs, iterations, horizon, rng):
    """One TdSampled CRPO step's critic, from one rollout of the table probs.

    Draws a chain of K = `iterations` (s, a) -> (s', a') steps that restarts
    from rho after every max(2, horizon) steps, and solves LSTD(0) for every
    objective over the chain (`_td_q`): one m x m solve with p+1 right-hand
    sides, m <= S*A the pairs the chain steps from, with Q = 0 on every
    other pair. The chain's uniforms are the rng's next draws, and all its
    reset segments are walked together.

    Returns (v, q), v = sum_a pi q of shape (p+1, S) and q of shape
    (p+1, S, A), reward first, as `policy_evaluation_exact` returns them.
    """
    _check_dims(cmdp, probs)
    policy_cdf = cdf(probs, "policy")[None]
    reset = max(2, horizon)
    u = np.zeros((iterations // reset + 1, 2 + 2 * reset))
    # s_0, a_0, then (s', a') per step and (s_0, a_0) per reset
    rng.random(out=u.reshape(-1)[:2 + 2 * iterations + 2 * (iterations // reset)])
    chain = _rollout(cmdp, policy_cdf, np.zeros(len(u), dtype=np.intp), u)
    q = _td_q(cmdp, chain, iterations)
    return (probs * q).sum(axis=2), q


def _sampled_log(cmdp, iterates, config, seed):
    """The run's transition log: `episodes_per_step` episodes of each row of
    the iterate stack, in step order. They are the first draws of the run's
    generator, which the run skips, so they are drawn here from its seed."""
    states, actions, nexts = sample_episode(
        cmdp, iterates, config.episode_horizon,
        np.random.default_rng(seed), config.episodes_per_step)
    return TrajectoryDataset.from_samples(
        cmdp.n_states, cmdp.n_actions, s=states.ravel(), a=actions.ravel(),
        s_next=nexts.ravel(), initial_states=states[:, 0])


def _lockstep(cmdp, config, logits, step, generators):
    """One CRPO step of L lanes: logits (L, S, A), step (L, 1, 1) each
    lane's alpha/(1-gamma), and generators each lane's generator, which
    only the TdSampled critic draws from (None under Exact).

    Returns (the next logits, the iterates, their exact J_0..J_p, the
    estimates J_1..J_p that gated them, and the q row each lane moved
    along: 0 to ascend on the reward, i to descend on cost i)."""
    rho = cmdp.initial_dist
    probs = _softmax_rows(logits)
    if config.critic_mode == EXACT:
        v, q = policy_evaluation_exact(cmdp, probs)
        j = objectives = v @ rho
    else:
        v, q = map(np.array, zip(*(
            td_critic(cmdp, table, config.td_iterations, config.episode_horizon, rng)
            for table, rng in zip(probs, generators))))
        j = v @ rho
        objectives = policy_evaluation_exact(cmdp, probs)[0] @ rho
    excess = j[:, 1:] - cmdp.limits - config.tolerance
    ascend = (excess <= 0).all(axis=1)
    if ascend.all():
        row, q_row = np.zeros(len(ascend), dtype=np.intp), q[:, 0]
    else:   # argmax returns the lowest tied index
        row = np.where(ascend, 0, excess.argmax(axis=1) + 1)
        q_row = q[np.arange(len(row)), row]
        step = np.where(ascend[:, None, None], step, -step)
    return npg_softmax_step(logits, q_row, step), probs, objectives, j[:, 1:], row


def _finish(cmdp, config, seed, rng, iterates, rows, estimates, objectives):
    """One lane's outcome, output drawn from rng and log from seed, by the q
    row (0 reward, i cost i) each of its M steps moved along; a
    `DegenerateRun` returning the last iterate if none ascended."""
    reward_steps = tuple(np.flatnonzero(rows == 0).tolist())
    outcome = CrpoOutcome(
        iterates=iterates, reward_steps=reward_steps,
        constraint_steps=tuple(tuple(np.flatnonzero(rows == i + 1).tolist())
                               for i in range(cmdp.n_costs)),
        per_step_estimates=estimates, iterate_objectives=objectives,
        returned_step=reward_steps[rng.integers(len(reward_steps))]
        if reward_steps else config.steps - 1,
        log_builder=partial(_sampled_log, cmdp, iterates, config, seed))
    return outcome if reward_steps else DegenerateRun(
        "no reward-ascent step occurred; returned policy undefined", outcome=outcome)


def crpo_lanes(cmdp, logits, config, rates, seeds):
    """L CRPO runs on one CMDP, stepped in lockstep, each finished.

    logits is the (L, S, A) stack of the runs' initial logits, and the runs
    share config but for rates and seeds, one learning rate and one
    generator seed a lane. A lane whose rate or seed fails `CrpoConfig`'s
    check, or whose logits are not all finite, is refused before the first
    step. Each step is one `_lockstep` over the stack; under TdSampled each
    lane's critic draws from the lane's own generator, lane after lane. A
    step that raises is taken again lane by lane, each from its generator's
    state before the step, and a lane whose step raises leaves the
    lockstep. Each lane gets the bits it gets alone.

    Returns one entry a lane: its `CrpoOutcome` (output drawn and log built
    on its own seed), a `DegenerateRun` carrying its outcome, or the
    exception that stopped or refused it.
    """
    logits = np.array(logits, dtype=float)
    if logits.ndim != 3 or not len(logits) == len(rates) == len(seeds):
        raise InvalidInput(f"logit stack of shape {logits.shape} for "
                           f"{len(rates)} rates and {len(seeds)} seeds")
    _check_dims(cmdp, logits[0])
    n, steps, p = len(logits), config.steps, cmdp.n_costs
    errors = [_lane_error(*lane) for lane in
              zip(rates, seeds, np.isfinite(logits).all(axis=(1, 2)))]
    live = np.flatnonzero([error is None for error in errors])
    generators = {lane: np.random.default_rng(seeds[lane]) for lane in live}
    for rng in generators.values():
        # the log's episodes feed no decision: skip their draws here, so that
        # the critic and the final draw see the same stream, and make them
        # when the log is read
        rng.bit_generator.advance(
            steps * config.episodes_per_step * (1 + 2 * config.episode_horizon))
    step = np.array([rates[lane] for lane in live], dtype=float)[:, None, None] \
        / (1.0 - cmdp.discount)

    iterates = np.empty((n, steps) + logits.shape[1:])
    objectives = np.zeros((n, steps, p + 1))
    estimates = np.zeros((n, steps, p))
    rows = np.zeros((n, steps), dtype=np.intp)
    logits = logits[live]
    exact = config.critic_mode == EXACT
    for m in range(steps if live.size else 0):
        # the Exact step draws nothing: no generator state to restore
        lane_rngs = None if exact else [generators[lane] for lane in live]
        saved = None if exact else [rng.bit_generator.state for rng in lane_rngs]
        try:
            logits, *taken = _lockstep(cmdp, config, logits, step, lane_rngs)
        except Exception:   # find the lanes that raise: each one alone
            kept, taken = [], []
            for i, lane in enumerate(live):
                if not exact:
                    lane_rngs[i].bit_generator.state = saved[i]
                try:
                    taken.append(_lockstep(cmdp, config, logits[i:i + 1], step[i:i + 1],
                                           None if exact else lane_rngs[i:i + 1]))
                except Exception as exc:
                    errors[lane] = exc
                else:
                    kept.append(i)
            live, step = live[kept], step[kept]
            if not kept:
                break
            logits, *taken = map(np.concatenate, zip(*taken))
        at = live if len(live) < n else slice(None)
        iterates[at, m], objectives[at, m], estimates[at, m], rows[at, m] = taken

    return [errors[lane] if errors[lane] is not None else _finish(
        # each lane's own copy: an outcome that is kept keeps no other lane
        cmdp, config, seeds[lane], generators[lane], _as_readonly(iterates[lane].copy()),
        rows[lane], estimates[lane], objectives[lane]) for lane in range(n)]


def run_crpo(cmdp, init_policy, config, lane=None):
    """CRPO loop: gate on estimated constraint values, ascend or descend.

    At each of M steps, the config's critic gives the iterate's (v, q) and
    every constraint value is estimated as rho . v_i. If all are within
    their limit plus tolerance, take a natural-gradient ascent step on the
    reward, otherwise descend on the most-violated constraint (ties to the
    lowest index). Returns the (M, S, A) iterate stack, the uniform draw
    from its reward-step rows, the exact objectives of every iterate, and
    the transition log (built when first read); with no reward step, raises
    `DegenerateRun` carrying that outcome.

    lane is the run's entry of a `crpo_lanes` call on the run's logits,
    rate and seed, with config's other settings: it is returned, or raised
    if it is an exception; init_policy and config are then not read.
    Without it, the run steps alone from init_policy. This call stays, one
    a run, because `perfbench` counts one `run_crpo` call per record and
    checks `harness.run_crpo is crpo.run_crpo`; ROADMAP item 1b can fold it
    into the harness.
    """
    if lane is None:
        lane, = crpo_lanes(cmdp, init_policy.logits[None], config,
                           [config.learning_rate], [config.rng_seed])
    if isinstance(lane, Exception):
        raise lane
    return lane
