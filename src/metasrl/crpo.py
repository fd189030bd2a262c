"""Within-task constrained policy optimization.

Alternates natural-gradient reward ascent with constraint descent, gated on
estimated constraint values against the limits plus a tolerance eta. The
critic is an exact Bellman solve (`policy_evaluation_exact`) or, under
TdSampled, certainty-equivalence evaluation on sampled data (Boyan 2002;
Parr et al. 2008): each step draws one on-policy chain of `td_iterations`
transitions (`td_critic`), adds its counts n(s, a, k) of the CMDP's
successor-view slots it drew to the run's, and evaluates the iterate
exactly on the pooled model p_hat = n(s, a, k)/n(s, a). A pair the chain
never stepped from keeps a zero row, so its Q is c(s, a): one step, then
a zero-reward absorbing state. Both critics give (v, q), v of shape
(p+1, S) and q of shape (p+1, S, A), reward first, and a step gates on
the estimates J_i = rho . v_i of its own critic and moves the logits along
one row of q. A run writes each step's softmax into row m of one
(M, S, A) iterate stack and builds no policy object per step;
`npg_softmax_step` refuses a non-finite Q and adds it times the signed
step +/- alpha/(1-gamma).

Runs on one CMDP step in lockstep: `crpo_lanes` takes L runs, its lanes,
which share one config but for each lane's rate and seed, through their M
steps together over an (L, S, A) logit stack, with a signed step per lane
and one stacked exact solve a step. That solve gives the iterates' exact
objectives, which a run records whichever critic steers it, and under
TdSampled also evaluates every lane's pooled model, whose pattern lies in
the CMDP's: one elimination, one LU a table. Each lane's output draw, and
under TdSampled its chains and counts, come from its own generator, so each
lane gets the bits it gets alone; a run called alone is a lockstep of one
lane.

Every sampled draw, whether an episode step or a chain step, goes
through one batched rollout that steps all rows together and reproduces
one `Generator.choice` call per draw, bit for bit; its inverse-CDF draw and
the checks on each probability table live in `metasrl.sampling`, which the
SGD DICE fit shares. It draws each next state as a slot of the CMDP's
successor view, over that view's CDF (K <= 3 entries a row on the
gridworlds), and records the slot, which the sampled critic counts and an
episode maps to its state; it draws s_0 over rho's CDF. The CMDP builds,
checks and caches both CDFs once, in the layout the rollout steps through;
a rollout builds only its policy tables' CDF. A run's transition log feeds no decision under either critic, so it is
built on first read of `outcome.dataset`: its episodes are the first draws
of the run's generator, which the run skips, and they are drawn then, from
the run's seed and its iterate stack, in one `sample_episode` call.
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

    Returns the (n, w) drawn indices: s_0 in column 0, actions in odd
    columns, and in every even column from 2 on the slot (s*A + a)*K + k,
    flat into `cmdp.successors`, drawn over (s, a)'s successor CDF. That
    is the dense draw bit for bit: the omitted zeros add nothing to the
    cumulative sums, and the padded slots sit at 1.0, above every uniform,
    so every drawn slot carries mass. The walk steps through a transposed
    copy of u, so each step reads and writes one contiguous row, and reads
    the CMDP's cached CDF tables, kept transposed as `draw` takes them.
    """
    a_n, k = cmdp.successors[0].shape[1:]
    succ, succ_cdf = cmdp.successors[0].ravel(), cmdp.successor_cdf  # succ_cdf (K, SA)
    policy_cdf = np.ascontiguousarray(policy_cdf.reshape(-1, a_n).T)  # (A, tables*S)
    table_start = row_policy * cmdp.n_states
    u = np.ascontiguousarray(u.T)
    x = np.empty(u.shape, dtype=np.intp)
    x[0] = state = draw(cmdp.initial_cdf, u[0])
    for j in range(1, len(u)):
        if j % 2:
            x[j] = draw(policy_cdf.take(table_start + state, axis=1), u[j])
        else:
            sa = state * a_n + x[j - 1]
            x[j] = sa * k + draw(succ_cdf.take(sa, axis=1), u[j])
            state = succ.take(x[j])
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
    nexts = cmdp.successors[0].ravel().take(x[:, 2::2])
    return np.concatenate((x[:, :1], nexts[:, :-1]), axis=1), x[:, 1::2], nexts


def td_critic(cmdp, probs, iterations, horizon, rng):
    """One TdSampled CRPO step's draws, from one rollout of the table probs:
    the (S, A, K) counts n(s, a, k) of a chain of `iterations` transitions
    (s, a) -> s', in the CMDP's successor-view slots.

    The chain restarts from rho after every max(2, horizon) steps; its
    uniforms are the rng's next draws, and all its reset segments are
    walked together. The rollout records the slot of each transition it
    draws, and the counts are one bincount of those slots.
    """
    _check_dims(cmdp, probs)
    policy_cdf = cdf(probs, "policy")[None]
    reset = max(2, horizon)
    u = np.zeros((iterations // reset + 1, 2 + 2 * reset))
    # s_0, a_0, then (s', a') per step and (s_0, a_0) per reset; a segment's
    # last action starts no transition, so its uniform is drawn, not walked
    rng.random(out=u.reshape(-1)[:2 + 2 * iterations + 2 * (iterations // reset)])
    x = _rollout(cmdp, policy_cdf, np.zeros(len(u), dtype=np.intp), u[:, :-1])
    return np.bincount(x[:, 2::2].ravel()[:iterations],
                       minlength=cmdp.successors[1].size).reshape(cmdp.successors[1].shape)


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


def _lockstep(cmdp, config, logits, step, generators, counts):
    """One CRPO step of L lanes: logits (L, S, A), step (L, 1, 1) each
    lane's alpha/(1-gamma), and, read only by the TdSampled critic,
    generators each lane's generator and counts each lane's (S, A, K)
    chain counts so far, (L, S, A, K) (None and zero-width under Exact).

    Returns (the next logits, the counts, the iterates, their exact
    J_0..J_p, the estimates J_1..J_p that gated them, and the q row each
    lane moved along: 0 to ascend on the reward, i to descend on cost i)."""
    rho = cmdp.initial_dist
    probs = _softmax_rows(logits)
    if config.critic_mode == EXACT:
        v, q = policy_evaluation_exact(cmdp, probs)
        j = objectives = v @ rho
    else:
        counts = counts + np.array([
            td_critic(cmdp, table, config.td_iterations, config.episode_horizon, rng)
            for table, rng in zip(probs, generators)])
        p_hat = counts / np.maximum(counts.sum(axis=3, keepdims=True), 1)
        v, q = policy_evaluation_exact(cmdp, np.concatenate((probs, probs)), np.concatenate(
            (np.broadcast_to(cmdp.successors[1], p_hat.shape), p_hat)))
        objectives, j = np.split(v @ rho, 2)
        q = q[len(probs):]
    excess = j[:, 1:] - cmdp.limits - config.tolerance
    ascend = (excess <= 0).all(axis=1)
    if ascend.all():
        row, q_row = np.zeros(len(ascend), dtype=np.intp), q[:, 0]
    else:   # argmax returns the lowest tied index
        row = np.where(ascend, 0, excess.argmax(axis=1) + 1)
        q_row = q[np.arange(len(row)), row]
        step = np.where(ascend[:, None, None], step, -step)
    return (npg_softmax_step(logits, q_row, step), counts, probs, objectives, j[:, 1:],
            row)


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
    state and its counts before the step, and a lane whose step raises
    leaves the lockstep. Each lane gets the bits it gets alone.

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
    counts = np.zeros((live.size,) + ((0,) if exact else cmdp.successors[1].shape), int)
    for m in range(steps if live.size else 0):
        # the Exact step draws nothing: no generator state to restore
        lane_rngs = None if exact else [generators[lane] for lane in live]
        saved = None if exact else [rng.bit_generator.state for rng in lane_rngs]
        try:
            logits, counts, *taken = _lockstep(cmdp, config, logits, step, lane_rngs,
                                               counts)
        except Exception:   # find the lanes that raise: each one alone, from
            kept, taken = [], []   # its generator state and counts before the step
            for i, lane in enumerate(live):
                if not exact:
                    lane_rngs[i].bit_generator.state = saved[i]
                try:
                    taken.append(_lockstep(cmdp, config, logits[i:i + 1], step[i:i + 1],
                                           None if exact else lane_rngs[i:i + 1],
                                           counts[i:i + 1]))
                except Exception as exc:
                    errors[lane] = exc
                else:
                    kept.append(i)
            live, step = live[kept], step[kept]
            if not kept:
                break
            logits, counts, *taken = map(np.concatenate, zip(*taken))
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
