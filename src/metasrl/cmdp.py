"""Exact finite-CMDP machinery: policies, values, visitations, serialization.

All quantities use the discounted infinite-horizon convention: the reward is
objective index 0 and the p cost functions are indices 1..p.  No sampling
happens here.

A CMDP keeps its dense (S, A, S) kernel, which the LP oracle and the JSON
form read, and builds on first use one successor view of it: the nonzero
entries of each row, (S, A, K) with K the largest row count (at most 3 on the
gridworlds). P_pi, the Q backup and the sampler's next-state CDF are computed
from that view, so their cost grows with S*A*K rather than S*A*S.

The Bellman solves use one state order, fixed per CMDP and independent of the
policy: first the n core states, from which some state with rho > 0 can be
reached, then the rest, T. No successor of a T state is a core state, under
any action, so in that order I - gamma P_pi is block upper-triangular for
every policy, and its two diagonal blocks are factorised apart. On the
gridworlds T holds the holes, the goal, the absorbing state and any cell
walled off from the start (77 to 143 of the 257 states of the 16x16 grids of
seeds 0-2); on dense kernels it is empty, a 0 x 0 block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .sampling import cdf

PROB_TOL = 1e-12
SOLVE_TOL = 1e-10


def _as_readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TabularCmdp:
    """A finite CMDP with one reward table and p cost tables.

    transition has shape (S, A, S); reward (S, A); costs (p, S, A);
    limits (p,); initial_dist (S,).  Infinite limits are encoded by any
    value >= c_max/(1-gamma) + 1.  The successor view, its CDF and the
    block order of the Bellman solves are built from the kernel on first use
    and cached on the instance.
    """

    transition: np.ndarray
    reward: np.ndarray
    costs: np.ndarray
    limits: np.ndarray
    discount: float
    initial_dist: np.ndarray
    c_max: float

    def __post_init__(self):
        object.__setattr__(self, "transition", _as_readonly(self.transition))
        object.__setattr__(self, "reward", _as_readonly(self.reward))
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim == 2:
            costs = costs[None]
        object.__setattr__(self, "costs", _as_readonly(costs))
        object.__setattr__(self, "limits", _as_readonly(np.atleast_1d(self.limits)))
        object.__setattr__(self, "initial_dist", _as_readonly(self.initial_dist))
        self._validate()

    def _validate(self):
        s, a, s2 = self.transition.shape
        if s != s2:
            raise InvalidInput("transition must have shape (S, A, S)")
        if self.reward.shape != (s, a):
            raise InvalidInput("reward shape mismatch")
        if self.costs.shape[1:] != (s, a):
            raise InvalidInput("cost shape mismatch")
        if self.limits.shape != (self.costs.shape[0],):
            raise InvalidInput("one limit per cost table required")
        if not (0.0 < self.discount < 1.0):
            raise InvalidInput("discount must lie strictly inside (0, 1)")
        # every check below fails on NaN, which compares false
        if not self.c_max > 0:
            raise InvalidInput("c_max must be positive")
        if np.isnan(self.limits).any():
            raise InvalidInput("limits must not be NaN")
        if not self.transition.min() >= -PROB_TOL:
            raise InvalidInput("negative or NaN transition probability")
        rowsums = self.transition.sum(axis=2)
        if not np.max(np.abs(rowsums - 1.0)) <= PROB_TOL:
            raise InvalidInput("transition rows must sum to 1")
        rho = self.initial_dist
        if not (rho.min() >= -PROB_TOL and abs(rho.sum() - 1.0) <= PROB_TOL):
            raise InvalidInput("initial_dist must be a probability vector")
        tables = np.concatenate([self.reward[None], self.costs], axis=0)
        if not (tables.min() >= -PROB_TOL and tables.max() <= self.c_max + PROB_TOL):
            raise InvalidInput("reward/cost entries must lie in [0, c_max]")

    @property
    def n_states(self):
        return self.transition.shape[0]

    @property
    def n_actions(self):
        return self.transition.shape[1]

    @property
    def n_costs(self):
        return self.costs.shape[0]

    @cached_property
    def successors(self):
        """(idx, prob), each (S, A, K): the states with a nonzero (!= 0)
        probability in each kernel row, ascending, and those probabilities,
        padded with probability 0 up to K, the largest count of any row."""
        nonzero = self.transition != 0
        counts = nonzero.sum(axis=2)
        shape = counts.shape + (counts.max(),)
        idx = np.zeros(shape, dtype=np.intp)
        prob = np.zeros(shape)
        slot = np.arange(shape[2]) < counts[..., None]
        idx[slot] = np.nonzero(nonzero)[2]
        prob[slot] = self.transition[nonzero]
        idx.setflags(write=False)
        prob.setflags(write=False)
        return idx, prob

    @cached_property
    def block_order(self):
        """(order, n): the state order of the Bellman solves, read-only. The n
        core states, those from which a state with rho > 0 can be reached,
        come first, then the closed set T of the others; each part ascending."""
        idx, prob = self.successors
        live = prob != 0
        core = self.initial_dist > 0
        while True:  # grow the core by every state with a successor in it
            grown = core | (core[idx] & live).any(axis=(1, 2))
            if np.array_equal(grown, core):
                break
            core = grown
        order = np.concatenate([np.flatnonzero(core), np.flatnonzero(~core)])
        order.setflags(write=False)
        return order, int(core.sum())

    @cached_property
    def block_bins(self):
        """(S, A, K) flat positions, read-only: successor-view entry (s, a, k)
        sits at row rank(s), column rank(idx[s, a, k]) of the block-ordered
        S x S matrix, rank(s) being the position of s in `block_order`."""
        order = self.block_order[0]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        bins = rank[:, None, None] * order.size + rank[self.successors[0]]
        bins.setflags(write=False)
        return bins

    @cached_property
    def successor_cdf(self):
        """Normalized cumulative successor rows (S, A, K), as the sampler
        draws them: checked once, by `sampling.cdf`, when first built."""
        return _as_readonly(cdf(self.successors[1], "transition kernel"))

    def objective_table(self, objective_index):
        """Reward table for index 0, cost table i for index i >= 1."""
        if objective_index == 0:
            return self.reward
        if 1 <= objective_index <= self.n_costs:
            return self.costs[objective_index - 1]
        raise InvalidInput(f"objective_index {objective_index} out of range")

    def infinite_limit(self):
        """Sentinel encoding an inactive cost limit."""
        return self.c_max / (1.0 - self.discount) + 1.0

    def to_json(self):
        doc = {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "transition": _fmt(self.transition),
            "reward": _fmt(self.reward),
            "costs": _fmt(self.costs),
            "limits": _fmt(self.limits),
            "discount": _fmt(self.discount),
            "initial_dist": _fmt(self.initial_dist),
            "c_max": _fmt(self.c_max),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(
            transition=np.array(doc["transition"], dtype=float),
            reward=np.array(doc["reward"], dtype=float),
            costs=np.array(doc["costs"], dtype=float),
            limits=np.array(doc["limits"], dtype=float),
            discount=float(doc["discount"]),
            initial_dist=np.array(doc["initial_dist"], dtype=float),
            c_max=float(doc["c_max"]),
        )


def _fmt(x):
    """Python floats (nested lists for arrays) for json, which writes each
    float64 as its shortest repr that reads back exactly."""
    return np.asarray(x, dtype=float).tolist()


@dataclass(frozen=True)
class SoftmaxPolicy:
    """Per-state logits with the induced (cached) action probabilities."""

    logits: np.ndarray
    cached_probs: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "logits", _as_readonly(self.logits))
        if self.cached_probs is None:
            object.__setattr__(self, "cached_probs", _softmax_rows(self.logits))
        object.__setattr__(self, "cached_probs", _as_readonly(self.cached_probs))

    @property
    def probs(self):
        return self.cached_probs

    @classmethod
    def uniform(cls, n_states, n_actions):
        return cls(logits=np.zeros((n_states, n_actions)))


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def policy_from_logits(logits):
    """Row-wise softmax policy from a logit table; stabilized by row-max shift."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 2:
        raise InvalidInput("logits must be a (S, A) table")
    if not np.all(np.isfinite(logits)):
        raise InvalidInput("logits must be finite")
    return SoftmaxPolicy(logits=logits)


@dataclass(frozen=True)
class ValueTable:
    v: np.ndarray
    q: np.ndarray
    objective_index: int


@dataclass(frozen=True)
class VisitationDistribution:
    nu: np.ndarray
    nu_sa: np.ndarray = None


@dataclass(frozen=True)
class TablePolicy:
    """A bare probability table; rows may touch the simplex boundary.

    Duck-types SoftmaxPolicy for evaluation purposes (only .probs is used).
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly(self.probs))


@dataclass(frozen=True)
class OptimalSolution:
    policy: TablePolicy
    visitation: VisitationDistribution
    objective_values: np.ndarray
    feasible: bool
    duality_gap: float = 0.0


def _check_dims(cmdp, policy):
    if policy.probs.shape != (cmdp.n_states, cmdp.n_actions):
        raise InvalidInput("policy dimensions do not match CMDP")


def transition_under_policy(cmdp, probs):
    """State-to-state kernel P_pi(s'|s) = sum_a pi(a|s) P(s'|s,a), one
    weighted bincount over the successor view. Each entry adds its terms in
    ascending a, as the dense sum over a does, and the omitted zeros add
    nothing, so it equals the dense einsum bit for bit."""
    idx = cmdp.successors[0]
    s_n = cmdp.n_states
    return _policy_kernel(cmdp, idx + np.arange(0, s_n * s_n, s_n)[:, None, None], probs)


def _policy_kernel(cmdp, bins, probs):
    """P_pi scattered to the flat positions `bins` of the successor view."""
    s_n = cmdp.n_states
    weights = (probs[:, :, None] * cmdp.successors[1]).ravel()
    return np.bincount(bins.ravel(), weights, minlength=s_n * s_n).reshape(s_n, s_n)


def _block_bellman_matrix(cmdp, probs):
    """(I - gamma P_pi, order, n): the Bellman matrix in block order, built
    as one array over `block_bins` and scaled in place. Every entry gathers
    the same terms in the same order as in P_pi, so this is bit for bit the
    permuted np.eye(S) - gamma P_pi."""
    order, n = cmdp.block_order
    a = _policy_kernel(cmdp, cmdp.block_bins, probs)
    a *= cmdp.discount
    np.subtract(0.0, a, out=a)  # 0 - x, not -x: zeros keep their + sign
    a.reshape(-1)[::len(a) + 1] += 1.0
    return a, order, n


def _solve(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1
        raise NumericalFailure("singular Bellman system") from exc


def policy_evaluation_exact(cmdp, policy):
    """Value tables (V_i, Q_i) of every objective i = 0..p of one policy.

    All p+1 Bellman systems (I - gamma P_pi) V_i = c_pi,i share one matrix.
    In block order it is [[A_CC, A_CT], [0, A_TT]], so V_T is solved from
    A_TT first and V_C from A_CC against c_C - A_CT V_T, each block with one
    LU and the stacked (., p+1) right-hand side; every column of the whole
    system must then pass the residual check. Each
    Q_i = c_i + gamma sum_k prob_k V_i(idx_k) is backed up over the
    successor view. Returns the tuple of p+1 ValueTables, reward first.
    """
    _check_dims(cmdp, policy)
    probs = policy.probs
    tables = np.concatenate([cmdp.reward[None], cmdp.costs])
    a, order, n = _block_bellman_matrix(cmdp, probs)
    c_pi = (probs * tables).sum(axis=2).T[order]
    v = np.empty_like(c_pi)
    v[n:] = _solve(a[n:, n:], c_pi[n:])
    v[:n] = _solve(a[:n, :n], c_pi[:n] - a[:n, n:] @ v[n:])
    residual = np.max(np.abs(a @ v - c_pi))
    if not residual <= SOLVE_TOL:
        raise NumericalFailure(f"Bellman residual {residual:.3e} exceeds tolerance")
    v_states = np.empty((len(tables), len(order)))
    v_states[:, order] = v.T
    idx, prob = cmdp.successors
    step = cmdp.discount * prob
    return tuple(ValueTable(v=v_i, q=tables[i] + (step * v_i[idx]).sum(-1),
                            objective_index=i)
                 for i, v_i in enumerate(v_states))


def visitation_exact(cmdp, policy):
    """Discounted state (and state-action) visitation, by a linear solve.

    nu solves (I - gamma P_pi)^T nu = (1-gamma) rho. In block order that
    system is lower block-triangular: nu_C comes from A_CC^T, then nu_T
    from A_TT^T against its share of (1-gamma) rho less A_CT^T nu_C.
    """
    _check_dims(cmdp, policy)
    probs = policy.probs
    a, order, n = _block_bellman_matrix(cmdp, probs)
    b = (1.0 - cmdp.discount) * cmdp.initial_dist[order]
    nu_block = np.empty_like(b)
    nu_block[:n] = _solve(a[:n, :n].T, b[:n])
    nu_block[n:] = _solve(a[n:, n:].T, b[n:] - a[:n, n:].T @ nu_block[:n])
    nu = np.empty_like(nu_block)
    nu[order] = np.maximum(nu_block, 0.0)
    nu = nu / nu.sum()
    return VisitationDistribution(nu=nu, nu_sa=nu[:, None] * probs)


def objective_values(cmdp, values):
    """Vector (J_0, ..., J_p), J_i = E_rho[V_i(s)], of one policy's value tables."""
    return np.array([cmdp.initial_dist @ vt.v for vt in values])


def all_objectives(cmdp, policy):
    """Vector (J_0, J_1, ..., J_p)."""
    return objective_values(cmdp, policy_evaluation_exact(cmdp, policy))
