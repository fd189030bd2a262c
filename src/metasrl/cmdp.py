"""Exact finite-CMDP machinery: policies, values, visitations, serialization.

All quantities use the discounted infinite-horizon convention: the reward is
objective index 0 and the p cost functions are indices 1..p.  No sampling
happens here.

A CMDP stores its kernel as entries (idx, prob): entry (s, a, k) puts mass
prob[s, a, k] on state idx[s, a, k]. The gridworlds hand over K = 3 entries
a row, the intended move and its two slips; a dense kernel P is the entries
(np.arange(S), P). On first use the CMDP builds one successor view of the
kernel: each row's states with nonzero mass, ascending, (S, A, K) with K the
largest row count (at most 3 on the gridworlds). P_pi, the Q backup and the
sampler's next-state CDF are computed from that view, so their cost grows
with S*A*K rather than S*A*S. Only the LP oracle and the JSON form read the
dense (S, A, S) kernel, which `transition` rebuilds on every read.

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

    kernel is (idx, prob): prob has shape (S, A, K) and entry (s, a, k) puts
    mass prob[s, a, k] on state idx[s, a, k]. idx may be any integer array
    that broadcasts against prob, and is stored as a read-only view of
    prob's shape. A row may name a state more than once, so a dense
    (S, A, S) kernel P is (np.arange(S), P). reward has shape
    (S, A); costs (p, S, A); limits (p,); initial_dist (S,).  Infinite
    limits are encoded by any value >= c_max/(1-gamma) + 1.  The successor
    view, its CDF and the block order of the Bellman solves are built from
    the kernel on first use and cached on the instance.
    """

    kernel: tuple
    reward: np.ndarray
    costs: np.ndarray
    limits: np.ndarray
    discount: float
    initial_dist: np.ndarray
    c_max: float

    def __post_init__(self):
        idx, prob = np.asarray(self.kernel[0]), _as_readonly(self.kernel[1])
        if idx.dtype.kind not in "iu":
            raise InvalidInput("kernel idx must be an integer array")
        try:  # a read-only view of prob's shape
            idx = np.broadcast_to(idx.astype(np.intp, copy=False), prob.shape)
        except ValueError:
            raise InvalidInput(f"kernel idx of shape {idx.shape} does not "
                               f"broadcast against prob of shape {prob.shape}") from None
        object.__setattr__(self, "kernel", (idx, prob))
        object.__setattr__(self, "reward", _as_readonly(self.reward))
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim == 2:
            costs = costs[None]
        object.__setattr__(self, "costs", _as_readonly(costs))
        object.__setattr__(self, "limits", _as_readonly(np.atleast_1d(self.limits)))
        object.__setattr__(self, "initial_dist", _as_readonly(self.initial_dist))
        self._validate()

    def _validate(self):
        idx, prob = self.kernel
        if prob.ndim != 3 or 0 in prob.shape:
            raise InvalidInput("kernel prob must have shape (S, A, K), none of them 0")
        s, a, _ = prob.shape
        if idx.min() < 0 or idx.max() >= s:
            raise InvalidInput("kernel idx out of range")
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
        if not prob.min() >= -PROB_TOL:
            raise InvalidInput("negative or NaN transition probability")
        rowsums = prob.sum(axis=2)
        if not np.max(np.abs(rowsums - 1.0)) <= PROB_TOL:
            raise InvalidInput("transition rows must sum to 1")
        rho = self.initial_dist
        if not (rho.min() >= -PROB_TOL and abs(rho.sum() - 1.0) <= PROB_TOL):
            raise InvalidInput("initial_dist must be a probability vector")
        tables = self.objective_tables
        if not (tables.min() >= -PROB_TOL and tables.max() <= self.c_max + PROB_TOL):
            raise InvalidInput("reward/cost entries must lie in [0, c_max]")

    @property
    def n_states(self):
        return self.kernel[1].shape[0]

    @property
    def n_actions(self):
        return self.kernel[1].shape[1]

    @property
    def n_costs(self):
        return self.costs.shape[0]

    @cached_property
    def objective_tables(self):
        """(p+1, S, A), read-only: the reward table, then the cost tables."""
        return _as_readonly(np.concatenate([self.reward[None], self.costs]))

    def _entry_keys(self):
        """(S*A*K,) flat position s*A*S + a*S + idx[s, a, k] of each kernel
        entry in the dense kernel, in entry order."""
        s_n, a_n, _ = self.kernel[1].shape
        rows = np.arange(s_n * a_n).reshape(s_n, a_n, 1) * s_n
        return (rows + self.kernel[0]).ravel()

    @property
    def transition(self):
        """The dense (S, A, S) kernel, read-only and rebuilt on every read:
        each row's entries for one state added in k order."""
        s_n, a_n, _ = self.kernel[1].shape
        p = np.bincount(self._entry_keys(), self.kernel[1].ravel(),
                        minlength=s_n * a_n * s_n).reshape(s_n, a_n, s_n)
        p.setflags(write=False)
        return p

    @cached_property
    def successors(self):
        """(idx, prob), each (S, A, K) and read-only: the states with a
        nonzero (!= 0) total in each kernel row, ascending, and those totals,
        padded with index 0 and probability 0 up to K, the largest count of
        any row. A state's total adds the row's entries for it in k order."""
        s_n, a_n, _ = self.kernel[1].shape
        weights = self.kernel[1].ravel()
        nonzero = weights != 0   # adding a zero changes no nonzero total
        keys, weights = self._entry_keys()[nonzero], weights[nonzero]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        totals = np.bincount(np.cumsum(first) - 1, weights[order])
        live = totals != 0
        row, state = np.divmod(keys[first][live], s_n)
        counts = np.bincount(row, minlength=s_n * a_n).reshape(s_n, a_n)
        shape = counts.shape + (counts.max(),)
        idx = np.zeros(shape, dtype=np.intp)
        prob = np.zeros(shape)
        slot = np.arange(shape[2]) < counts[..., None]
        idx[slot] = state
        prob[slot] = totals[live]
        idx.setflags(write=False)
        prob.setflags(write=False)
        return idx, prob

    @cached_property
    def block_order(self):
        """(order, n): the state order of the Bellman solves, read-only. The n
        core states, those from which a state with rho > 0 can be reached,
        come first, then the closed set T of the others; each part ascending.
        The core is one breadth-first search backwards from the states with
        rho > 0, over predecessor lists grouped by successor with one argsort."""
        idx, prob = self.successors
        live = prob != 0
        succ = idx[live]
        by_succ = np.argsort(succ, kind="stable")
        preds = np.nonzero(live)[0][by_succ].tolist()  # source state of each entry
        starts = np.searchsorted(succ[by_succ], np.arange(self.n_states + 1)).tolist()
        queue = np.flatnonzero(self.initial_dist > 0).tolist()
        seen = (self.initial_dist > 0).tolist()
        for t in queue:  # the queue grows while it is walked
            for s in preds[starts[t]:starts[t + 1]]:
                if not seen[s]:
                    seen[s] = True
                    queue.append(s)
        core = np.array(seen)
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
        if 0 <= objective_index <= self.n_costs:
            return self.objective_tables[objective_index]
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
        transition = np.array(doc["transition"], dtype=float)
        return cls(
            kernel=(np.arange(len(transition)), transition),
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
    """Row-wise softmax policy of a finite (S, A) logit table; probs holds
    its action probabilities, computed once with a row-max shift."""

    logits: np.ndarray
    probs: np.ndarray = field(init=False)

    def __post_init__(self):
        logits = _as_readonly(self.logits)
        if logits.ndim != 2:
            raise InvalidInput("logits must be a (S, A) table")
        if not np.all(np.isfinite(logits)):
            raise InvalidInput("logits must be finite")
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "probs", _as_readonly(_softmax_rows(logits)))

    @classmethod
    def uniform(cls, n_states, n_actions):
        return cls(logits=np.zeros((n_states, n_actions)))


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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


def _block_bellman_matrix(cmdp, probs):
    """(I - gamma P_pi, order, n): the Bellman matrix in block order, built
    as one weighted bincount of the successor view over `block_bins` and
    scaled in place. Each entry of P_pi(s'|s) = sum_a pi(a|s) P(s'|s,a)
    adds its terms in ascending a, as the dense einsum does, and the omitted
    zeros add nothing, so this is bit for bit the permuted
    np.eye(S) - gamma P_pi of the dense kernel."""
    order, n = cmdp.block_order
    s_n = cmdp.n_states
    weights = (probs[:, :, None] * cmdp.successors[1]).ravel()
    a = np.bincount(cmdp.block_bins.ravel(), weights,
                    minlength=s_n * s_n).reshape(s_n, s_n)
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
    """Value tables (v, q) of every objective i = 0..p of one policy.

    All p+1 Bellman systems (I - gamma P_pi) V_i = c_pi,i share one matrix.
    In block order it is [[A_CC, A_CT], [0, A_TT]], so V_T is solved from
    A_TT first and V_C from A_CC against c_C - A_CT V_T, each block with one
    LU and the stacked (., p+1) right-hand side; every column of the whole
    system must then pass the residual check. All p+1 tables
    Q_i = c_i + gamma sum_k prob_k V_i(idx_k) are backed up in one
    expression over the successor view. Returns (v, q), v of shape
    (p+1, S) and q of shape (p+1, S, A), row i of each for objective i,
    reward first.
    """
    _check_dims(cmdp, policy)
    probs = policy.probs
    tables = cmdp.objective_tables
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
    return v_states, tables + (step * v_states.take(idx, axis=1)).sum(-1)


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


def all_objectives(cmdp, policy):
    """Vector (J_0, J_1, ..., J_p), J_i = E_rho[V_i(s)]."""
    return policy_evaluation_exact(cmdp, policy)[0] @ cmdp.initial_dist
