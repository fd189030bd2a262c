"""Exact finite-CMDP machinery: policies, values, visitations, serialization.

All quantities use the discounted infinite-horizon convention: the reward is
objective index 0 and the p cost functions are indices 1..p.  No sampling
happens here.

A CMDP stores its kernel as entries (idx, prob): entry (s, a, k) puts mass
prob[s, a, k] on state idx[s, a, k]. The gridworlds hand over K = 3 entries
a row, the intended move and its two slips; a dense kernel P is the entries
(np.arange(S), P). On first use the CMDP builds one successor view of the
kernel: each row's states with nonzero mass, ascending, (S, A, K) with K the
largest row count (at most 3 on the gridworlds), padded with zero-mass
self-loops. P_pi, the Q backup and the sampler's next-state CDF are computed
from that view, so their cost grows with S*A*K rather than S*A*S. Only the
LP oracle and the JSON form read the dense (S, A, S) kernel, which
`transition` rebuilds on every read. A CMDP read from JSON is stored on
its successor view, so it holds no dense kernel either.

The Bellman solves first eliminate an independent set of states, the same
for every policy. The pattern of P_pi is the union over actions of the
successor view, plus the diagonal. Taking the states in ascending order, a
state joins the set I unless a state already in I is one of its successors
or predecessors (self-loops aside); J holds the rest. No pattern entry links
two I states, so the I x I block of I - gamma P_pi is the diagonal
D = 1 - gamma P_pi(i|i) >= 1 - gamma, and one LU, of the Schur complement

    S = I - gamma P_JJ - gamma^2 P_JI D^-1 P_IJ,

solves the system; V_I (or nu_I) then follows from D alone. S is again
strictly diagonally dominant, so the LU is stable. A solve forms S and the
coupling blocks D^-1 gamma P_IJ and gamma P_JI dense, never an S x S matrix.
On the gridworlds I is nearly a checkerboard (128 of the 257 states of the
16x16 grid of seed 2); on a dense kernel it holds one state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NumericalFailure
from .sampling import cdf

PROB_TOL = 1e-12
SOLVE_TOL = 1e-10


def _as_readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def successor_view(keys, weights, n_states, n_actions):
    """Weighted kernel entries as (idx, prob), each (S, A, K) and read-only.

    Entry i puts weights[i] on flat key keys[i] = (s*A + a)*S + s' of the
    dense (S, A, S) kernel; the keys may come in any order and repeat. A
    key's total adds its weights in entry order, and keys whose total is 0
    are dropped. Row (s, a) holds its states ascending with their totals,
    padded up to K, the largest count of any row, with zero-mass self-loops
    (the row's own state, probability 0).
    """
    nonzero = weights != 0   # adding a zero changes no nonzero total
    keys, weights = keys[nonzero], weights[nonzero]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    totals = np.bincount(np.cumsum(first) - 1, weights[order])
    live = totals != 0
    row, state = np.divmod(keys[first][live], n_states)
    counts = np.bincount(row, minlength=n_states * n_actions).reshape(
        n_states, n_actions)
    shape = counts.shape + (counts.max(),)
    idx = np.empty(shape, dtype=np.intp)
    idx[:] = np.arange(n_states)[:, None, None]
    prob = np.zeros(shape)
    slot = np.arange(shape[2]) < counts[..., None]
    idx[slot] = state
    prob[slot] = totals[live]
    idx.setflags(write=False)
    prob.setflags(write=False)
    return idx, prob


class Elimination(NamedTuple):
    """The policy-independent index arrays of the Bellman solves (see the
    module docstring), each read-only.

    A state's position is its index in `order`: I holds positions [0, n)
    and J the rest. The nnz slots of the pattern of P_pi lie in four
    blocks, each by row and then column position: [0, n) the diagonal of
    I, [n, b1) the IJ entries, [b1, b2) the JI entries and [b2, nnz) the JJ
    entries, with blocks = (n, b1, b2, nnz). The dense blocks of one solve
    share one flat array: S, then R (n x |J|), then A_JI (|J| x n).
    """

    blocks: tuple
    order: np.ndarray       # (S,): I ascending, then J ascending
    rank: np.ndarray        # (S,): the position of each state
    slot: np.ndarray        # (S*A*K,): the slot of each successor-view entry
    ij_row: np.ndarray      # the I position of each IJ slot
    fill_ji: np.ndarray     # the JI slot (less b1) of each fill term j -> i -> j'
    fill_ij: np.ndarray     # the IJ slot (less n) of each fill term
    bins: np.ndarray        # the flat dense index of each fill term and JJ
                            # slot (into S), IJ slot (R) and JI slot (A_JI)


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
    view, the elimination of the Bellman solves and the sampler's tables
    (the successor CDF and rho's CDF) are built on first use and cached on
    the instance.
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
        """The `successor_view` of the kernel's entries: each row's states
        with a nonzero total (the row's entries for it added in k order)."""
        return successor_view(self._entry_keys(), self.kernel[1].ravel(),
                              self.n_states, self.n_actions)

    @cached_property
    def elimination(self):
        """The `Elimination` of the Bellman solves, read-only.

        I is grown greedily over the successor view. The pattern is the
        sorted distinct (block, row, column) keys over positions of the
        successor-view entries and the diagonal; the fill pairs each JI slot
        (j, i) with every IJ slot of row i."""
        s_n = self.n_states
        idx = self.successors[0]
        indep, dep, in_i, blocked = [], [], set(), set()
        for s, row in enumerate(idx.reshape(s_n, -1).tolist()):
            if s in blocked or not in_i.isdisjoint(row):  # an I predecessor or successor
                dep.append(s)
            else:
                indep.append(s)
                in_i.add(s)
                blocked.update(row)
        n, m, sq = len(indep), len(dep), s_n * s_n
        order = np.array(indep + dep)
        rank = np.empty_like(order)
        rank[order] = np.arange(s_n)
        in_j = rank >= n      # blocks 0-3: I x I (its diagonal alone), IJ, JI, JJ
        row_key, col_key = (2 * s_n * in_j + rank) * s_n, sq * in_j + rank
        entry_keys = (row_key[:, None, None] + col_key[idx]).ravel()
        keys = np.concatenate((entry_keys, row_key + col_key))
        keys.sort()
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        pattern = keys[first]
        slot = np.searchsorted(pattern, entry_keys)
        b1, b2 = np.searchsorted(pattern, (2 * sq, 3 * sq)).tolist()
        rows, cols = np.divmod(pattern % sq, s_n)
        ij_row, ij_col = rows[n:b1], cols[n:b1]
        ji_row, ji_col = rows[b1:b2], cols[b1:b2]
        # JI slot e = (j, i) meets the IJ slots [start, start + reps) of row i
        start = np.searchsorted(ij_row, ji_col)
        reps = np.searchsorted(ij_row, ji_col, side="right") - start
        fill_ji = np.repeat(np.arange(reps.size), reps)
        fill_ij = np.arange(fill_ji.size) + np.repeat(start - np.cumsum(reps) + reps, reps)
        flat_m = rows * m + cols
        bins = np.concatenate((ji_row[fill_ji] * m + ij_col[fill_ij] - n * (m + 1),
                               flat_m[b2:] - n * (m + 1), flat_m[n:b1] + (m * m - n),
                               ji_row * n + ji_col + (m * m + m * n - n * n)))
        arrays = dict(order=order, rank=rank, slot=slot, ij_row=ij_row,
                      fill_ji=fill_ji, fill_ij=fill_ij, bins=bins)
        for a in arrays.values():
            a.setflags(write=False)
        return Elimination(blocks=(n, b1, b2, pattern.size), **arrays)

    @cached_property
    def successor_cdf(self):
        """Normalized cumulative successor rows, read-only, in the contiguous
        (K, S*A) layout the sampler steps through: column s*A + a is row
        (s, a)'s CDF. Checked once, by `sampling.cdf`, when first built."""
        rows = cdf(self.successors[1], "transition kernel")
        return _as_readonly(np.ascontiguousarray(rows.reshape(-1, rows.shape[2]).T))

    @cached_property
    def initial_cdf(self):
        """rho's normalized cumulative sums, one read-only (S, 1) column as
        the sampler draws s_0; checked once, by `sampling.cdf`."""
        return _as_readonly(cdf(self.initial_dist, "initial distribution")[:, None])

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
        """The CMDP of a `to_json` document, stored on the successor view of
        its dense kernel, which holds the same kernel: no (S, A, S) array is
        kept. A kernel that is not a nonempty (S, A, S) array is refused."""
        doc = json.loads(text)
        transition = np.array(doc["transition"], dtype=float)
        shape = transition.shape
        if len(shape) != 3 or 0 in shape or shape[2] != shape[0]:
            raise InvalidInput(f"transition of shape {shape} is not a "
                               "nonempty (S, A, S) kernel")
        return cls(
            kernel=successor_view(np.arange(transition.size), transition.ravel(),
                                  shape[0], shape[1]),
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
    """Row-wise softmax policy of a finite (S, A) logit table, checked when
    built; probs, its action probabilities, is computed on first read."""

    logits: np.ndarray

    def __post_init__(self):
        logits = _as_readonly(self.logits)
        if logits.ndim != 2:
            raise InvalidInput("logits must be a (S, A) table")
        if not np.all(np.isfinite(logits)):
            raise InvalidInput("logits must be finite")
        object.__setattr__(self, "logits", logits)

    @cached_property
    def probs(self):
        return _as_readonly(_softmax_rows(self.logits))

    @classmethod
    def uniform(cls, n_states, n_actions):
        return cls(logits=np.zeros((n_states, n_actions)))


def _softmax_rows(logits):
    """Softmax over the last axis of a logit table or a stack of them."""
    # each row's max as elementwise maxima over the action columns, which
    # is exact, so it has the bits of logits.max(axis=-1) without a
    # reduction along a short last axis (about 20x slower on a 50-table stack)
    top = logits[..., 0]
    for k in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., k])
    e = np.exp(logits - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class VisitationDistribution:
    nu: np.ndarray


@dataclass(frozen=True)
class TablePolicy:
    """A policy as a bare probability table whose rows may touch the simplex
    boundary, as the LP oracle and a CRPO run's drawn iterate return them;
    the per-step critics and the meta layer take the bare table.
    """

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly(self.probs))


@dataclass(frozen=True)
class OptimalSolution:
    policy: TablePolicy
    nu: np.ndarray                  # (S,) state visitation of policy
    objective_values: np.ndarray
    feasible: bool
    duality_gap: float = 0.0


def _check_dims(cmdp, probs, stacked=False):
    """Refuse anything but one (S, A) table, or, if stacked, a stack
    (..., S, A) of them."""
    shape = np.shape(probs)
    if (shape[-2:] if stacked else shape) != (cmdp.n_states, cmdp.n_actions):
        raise InvalidInput(f"policy table of shape {shape} does not match CMDP")


def _lane_bins(bins, n_lanes, size):
    """One table's bincount bins for each of n_lanes tables, lane l's
    offset by l * size, flat in lane order."""
    if n_lanes == 1:
        return bins
    return (bins + np.arange(0, n_lanes * size, size)[:, None]).ravel()


def _schur_complement(cmdp, probs, neg_step):
    """(nd, s, r, a_ji) for a policy table or a stack (..., S, A) of them,
    each with the table's leading axes: nd = -D = gamma P_pi(i|i) - 1 on I,
    and dense, the Schur complement S on J, the multipliers
    R = D^-1 gamma P_IJ and the block A_JI = -gamma P_JI.

    neg_step is -gamma times the successor view's probabilities, (S, A, K).
    -gamma P_pi is one weighted bincount of it over the pattern slots, lane
    l's slots offset by l nnz; each slot adds its terms in ascending a, as a
    dense einsum does. The dense blocks come from one more bincount: each
    entry of S adds its fill terms a_ji * r_ij' in ascending i, then its
    -gamma P_JJ entry, and the diagonal gets 1 added last. A lane's bins
    hold only its own terms, in the order one table alone adds them."""
    e = cmdp.elimination
    n, b1, b2, nnz = e.blocks
    s_n = cmdp.n_states
    m = s_n - n
    lead = probs.shape[:-2]
    stack = probs.reshape((-1,) + probs.shape[-2:] + (1,))
    n_lanes = len(stack)
    a = np.bincount(_lane_bins(e.slot, n_lanes, nnz), (stack * neg_step).ravel(),
                    n_lanes * nnz).reshape(n_lanes, nnz)
    nd = -1.0 - a[:, :n]
    r = a[:, n:b1] / nd.take(e.ij_row, axis=1)
    a_ji = a[:, b1:b2]
    w = np.concatenate((a_ji.take(e.fill_ji, axis=1) * r.take(e.fill_ij, axis=1),
                        a[:, b2:], r, a_ji), axis=1)
    size = m * (m + 2 * n)
    dense = np.bincount(_lane_bins(e.bins, n_lanes, size), w.ravel(),
                        n_lanes * size).astype(float, copy=False)  # int if empty
    dense = dense.reshape(n_lanes, size)
    dense[:, :m * m:m + 1] += 1.0
    return (nd.reshape(lead + (n,)), dense[:, :m * m].reshape(lead + (m, m)),
            dense[:, m * m:m * (m + n)].reshape(lead + (n, m)),
            dense[:, m * (m + n):].reshape(lead + (m, n)))


def _solve(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:  # cannot occur for gamma < 1
        raise NumericalFailure("singular Bellman system") from exc


def policy_evaluation_exact(cmdp, probs):
    """Value tables (v, q) of every objective i = 0..p of one policy table,
    or of each table of a stack (..., S, A).

    All p+1 Bellman systems (I - gamma P_pi) V_i = c_pi,i of a table share
    one matrix. Eliminating I leaves S V_J = c_J + gamma P_JI D^-1 c_I,
    solved with one LU and the stacked (., p+1) right-hand side; then
    V_I = D^-1 (c_I + gamma P_IJ V_J). A stack of tables is one stacked
    solve and stacked products, which give each table the bits it gets
    alone. All p+1 tables Q_i = c_i + gamma sum_k prob_k V_i(idx_k) are
    backed up in one expression over the successor view, and
    V - sum_a pi Q, which is (I - gamma P_pi) V - c_pi, must pass the
    residual check on every column of every table's system; a failure
    reports the largest failing residual. Returns (v, q), v of shape
    (..., p+1, S) and q of shape (..., p+1, S, A), row i of each for
    objective i, reward first.
    """
    probs = np.asarray(probs)
    _check_dims(cmdp, probs, stacked=True)
    lead = probs.shape[:-2]
    probs = probs.reshape((-1,) + probs.shape[-2:])
    tables = cmdp.objective_tables
    e = cmdp.elimination
    n = e.blocks[0]
    neg_step = -cmdp.discount * cmdp.successors[1]   # shared with the Q backup
    nd, s, r, a_ji = _schur_complement(cmdp, probs, neg_step)
    c = (probs[:, None] * tables).sum(axis=3)[:, :, e.order]
    y = c[:, :, :n] / nd[:, None]                  # -D^-1 c_I
    v_j = _solve(s, (c[:, :, n:] + y @ a_ji.transpose(0, 2, 1)).transpose(0, 2, 1))
    v_j = v_j.transpose(0, 2, 1)
    v_i = v_j @ r.transpose(0, 2, 1) - y
    # each table's v laid out state-major, (S, p+1) in memory, as one
    # table's v = concat(...)[:, rank] is: a BLAS product of v, such as
    # v @ rho, then reads every table's v alike, alone or in a stack
    v = np.concatenate((v_i, v_j), axis=2).transpose(0, 2, 1).take(e.rank, axis=1)
    v = v.transpose(0, 2, 1)
    # k leading: the k terms add slab by slab in k order, faster than a sum
    # over a short last axis
    q = tables - (neg_step.transpose(2, 0, 1)
                  * v.take(cmdp.successors[0].transpose(2, 0, 1), axis=2)).sum(axis=2)
    residual = np.abs(v - np.einsum("lsa,lisa->lis", probs, q)).max()
    if not residual <= SOLVE_TOL:
        raise NumericalFailure(f"Bellman residual {residual:.3e} exceeds tolerance")
    return v.reshape(lead + v.shape[1:]), q.reshape(lead + q.shape[1:])


def visitation_exact(cmdp, policy):
    """Discounted state visitation of a policy, by a linear solve.

    nu solves (I - gamma P_pi)^T nu = (1-gamma) rho = b. Eliminating I
    leaves S^T nu_J = b_J + sum_i r_ij b_i, one LU, with r = gamma P_IJ / D;
    then nu_I = D^-1 (b_I + gamma P_JI^T nu_J). Clipped at 0 and normalized.
    """
    probs = policy.probs
    _check_dims(cmdp, probs)
    e = cmdp.elimination
    n = e.blocks[0]
    nd, s, r, a_ji = _schur_complement(cmdp, probs, -cmdp.discount * cmdp.successors[1])
    b = ((1.0 - cmdp.discount) * cmdp.initial_dist)[e.order]
    b_i = b[:n]
    nu_j = _solve(s.T, b[n:] + b_i @ r)
    nu_i = (nu_j @ a_ji - b_i) / nd
    nu = np.maximum(np.concatenate((nu_i, nu_j))[e.rank], 0.0)
    nu = nu / nu.sum()
    return VisitationDistribution(nu=nu)


def all_objectives(cmdp, policy):
    """Vector (J_0, J_1, ..., J_p), J_i = E_rho[V_i(s)], of a policy."""
    return policy_evaluation_exact(cmdp, policy.probs)[0] @ cmdp.initial_dist
