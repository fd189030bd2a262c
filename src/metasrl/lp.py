"""Occupancy-measure LP oracle for exact optimal CMDP policies.

The CMDP is solved as a linear program over discounted occupancy measures
mu(s,a) >= 0:

    maximize   sum mu * c0 / (1-gamma)
    subject to sum_a mu(s,a) - gamma sum_{s',a'} P(s|s',a') mu(s',a') = (1-gamma) rho(s)
               sum mu * c_i / (1-gamma) <= d_i   for each cost i

The flow rows are read off the CMDP's successor view, unbuffered: a row's
zero-mass pads share its self-loop slot, where a buffered -= keeps only the
last write. A dense two-phase simplex with Bland's rule is used; desk
scale only (|S||A| up to a couple thousand).

Each pivot is vectorised, but its choices and its arithmetic are those of a
scalar simplex that scans columns and rows one at a time: the first allowed
column of negative reduced cost enters, the ratio test folds the candidate
rows in row order, and the pivot updates exactly the rows with a nonzero
entry in the entering column, the objective (the tableau's last row) among
them. So the pivot sequence, every result and every failure are the same
bit for bit; tests/test_lp.py::TestVectorisedSimplex checks this.
"""

from __future__ import annotations

import numpy as np

from .cmdp import OptimalSolution, TablePolicy
from .errors import NumericalFailure

PIVOT_TOL = 1e-9
GAP_TOL = 1e-8
MAX_ITER = 100_000


class _Infeasible(Exception):
    pass


def _pivot(tab, basis, row, col):
    """Pivot in place on (row, col): scale the pivot row, then clear col
    from every other row, the objective row included, whose entry there is
    nonzero."""
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    others = np.abs(tab[:, col]) > 0.0
    others[row] = False
    rows = others.nonzero()[0]
    block = tab[rows]
    block -= block[:, col, None] * pivot_row
    tab[rows] = block
    basis[row] = col


def _run_simplex(tab, basis, allowed):
    """Bland-rule simplex on an in-place tableau whose last row holds the
    reduced costs.

    allowed marks columns permitted to enter the basis.
    """
    # a reduced cost below its column's limit enters: -PIVOT_TOL where the
    # column is allowed, -inf (never) where it is not or for the value entry
    obj = tab[-1]
    limit = np.full(obj.shape, -np.inf)
    limit[:-1][allowed] = -PIVOT_TOL
    for it in range(MAX_ITER):
        negative = obj < limit
        enter = int(negative.argmax())
        if not negative[enter]:
            return
        # ratio test, ties broken by smallest basis index (Bland), folded in
        # row order: the tolerance makes the winner depend on that order
        leave, best, best_basis = -1, np.inf, -1
        for i, (c, r) in enumerate(zip(tab[:-1, enter].tolist(), tab[:-1, -1].tolist())):
            if c > PIVOT_TOL:
                ratio = r / c
                if ratio < best - PIVOT_TOL or (ratio < best + PIVOT_TOL
                                                and basis[i] < best_basis):
                    leave, best, best_basis = i, ratio, basis[i]
        if leave < 0:
            raise NumericalFailure("LP is unbounded", best_bound=float(-obj[-1]))
        _pivot(tab, basis, leave, enter)
    raise NumericalFailure("simplex iteration cap reached", best_bound=float(-obj[-1]))


def simplex_solve(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """Minimize c.x subject to a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    Returns (x, duals, gap) where duals covers equality rows then ub rows
    and gap is the primal-dual objective difference from the final basis.
    Raises _Infeasible when phase 1 cannot zero out the artificials.
    """
    c = np.asarray(c, dtype=float)
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    n = c.size
    if a_ub is not None and len(b_ub) > 0:
        a_ub = np.asarray(a_ub, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float)
        k = len(b_ub)
        a = np.block([[a_eq, np.zeros((a_eq.shape[0], k))], [a_ub, np.eye(k)]])
        b = np.concatenate([b_eq, b_ub])
        cost = np.concatenate([c, np.zeros(k)])
    else:
        a, b, cost = a_eq.copy(), b_eq.copy(), c.copy()
    m, n_tot = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b = np.abs(b)

    # phase 1: artificials with unit cost, priced out of the objective row
    # (the tableau's last row)
    tab = np.block([[a, np.eye(m), b[:, None]],
                    [-a.sum(axis=0), np.zeros(m), -b.sum()]])
    basis = list(range(n_tot, n_tot + m))
    allowed = np.ones(n_tot + m, dtype=bool)
    _run_simplex(tab, basis, allowed)
    if -tab[m, -1] > 1e-9:
        raise _Infeasible
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n_tot:
            for j in range(n_tot):
                if abs(tab[i, j]) > PIVOT_TOL:
                    _pivot(tab, basis, i, j)
                    break

    # phase 2 on the true cost; artificials stay as columns (their reduced
    # costs expose the duals) but may not re-enter the basis
    allowed[n_tot:] = False
    obj = tab[m]
    obj[:] = np.concatenate((cost, np.zeros(m + 1)))
    for i, bi in enumerate(basis):
        if bi < n_tot and abs(cost[bi]) > 0.0:
            obj -= cost[bi] * tab[i]
    _run_simplex(tab, basis, allowed)

    x = np.zeros(n_tot)
    for i, bi in enumerate(basis):
        if bi < n_tot:
            x[bi] = tab[i, -1]
    duals = -tab[m, n_tot:n_tot + m]
    primal = float(cost @ x)
    dual = float(duals @ b)
    gap = abs(primal - dual)
    return x[:n], duals, gap


def solve_optimal_lp(cmdp):
    """Exact optimal CMDP policy via the occupancy-measure LP.

    Returns an OptimalSolution; feasible=False when no occupancy measure
    satisfies the cost limits. Optimality is certified by the duality gap
    of the final simplex basis (<= 1e-8 required).
    """
    s_n, a_n = cmdp.n_states, cmdp.n_actions
    n = s_n * a_n
    gamma = cmdp.discount

    # flow balance rows: sum_a mu(s,a) - gamma sum P(s|s',a') mu(s',a') = (1-gamma) rho(s)
    idx, prob = cmdp.successors
    a_eq = np.repeat(np.eye(s_n), a_n, axis=1)
    np.subtract.at(a_eq, (idx, np.arange(n).reshape(s_n, a_n, 1)), gamma * prob)
    b_eq = (1.0 - gamma) * cmdp.initial_dist

    active = cmdp.limits < cmdp.infinite_limit() - 1e-9
    a_ub = cmdp.costs[active].reshape(-1, n) / (1.0 - gamma)
    b_ub = cmdp.limits[active]

    cost = -cmdp.reward.reshape(n) / (1.0 - gamma)
    try:
        mu, _, gap = simplex_solve(cost, a_eq, b_eq, a_ub, b_ub)
    except _Infeasible:
        return OptimalSolution(policy=None, nu=None,
                               objective_values=None, feasible=False)
    if gap > GAP_TOL:
        raise NumericalFailure(f"LP duality gap {gap:.3e} exceeds tolerance",
                               best_bound=float(-cost @ mu))

    mu = np.maximum(mu.reshape(s_n, a_n), 0.0)
    nu = mu.sum(axis=1)
    probs = np.full((s_n, a_n), 1.0 / a_n)
    covered = nu > 1e-13
    probs[covered] = mu[covered] / nu[covered, None]
    objective_values = np.array(
        [float(mu.reshape(n) @ table.reshape(n)) / (1.0 - gamma)
         for table in cmdp.objective_tables])
    return OptimalSolution(
        policy=TablePolicy(probs=probs),
        nu=nu / nu.sum(),
        objective_values=objective_values,
        feasible=True,
        duality_gap=float(gap),
    )
