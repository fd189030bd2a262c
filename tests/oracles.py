"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch (value iteration,
the gridworld builder's per-cell loop, its tuple breadth-first search and
its per-cell ASCII renderer,
one dense Bellman solve per objective, per-row successor lists, einsum
state kernels, a state-by-state greedy independent set and a dense Schur
complement, the two-array empirical kernel, vectorized Monte-Carlo
rollouts, per-draw episode, TD(0) and SGD DICE samplers, a dense DualDICE solve,
row-by-row simplex projections and simplex pivots, finite differences, scipy-based constrained
minimization and linear programming, the learning-curve table grouped record by record)
rather than calling into the package under test.
It also holds the drifting quadratic loss stream of the OGD regret test.
"""

from collections import deque

import numpy as np
import scipy.optimize

from metasrl.cmdp import TablePolicy, TabularCmdp, VisitationDistribution
from metasrl.errors import NumericalFailure
from metasrl.taskgen import MOVES, PERP


def value_iteration(cmdp, tol=1e-12, max_iter=200_000):
    """Optimal unconstrained value via V(s) = max_a [c0 + gamma P V]."""
    v = np.zeros(cmdp.n_states)
    transition = cmdp.transition
    for _ in range(max_iter):
        q = cmdp.reward + cmdp.discount * transition @ v
        v_new = q.max(axis=1)
        if np.max(np.abs(v_new - v)) < tol * (1.0 - cmdp.discount):
            return float(cmdp.initial_dist @ v_new)
        v = v_new
    raise RuntimeError("value iteration did not converge")


def policy_evaluation_reference(cmdp, probs):
    """Value tables (v, q) of every objective of one (S, A) policy table,
    stacked as `policy_evaluation_exact` returns them, one dense solve per
    objective: P_pi is rebuilt and (I - gamma P_pi) refactorised for each one."""
    vs, qs = [], []
    for i in range(cmdp.n_costs + 1):
        c = cmdp.objective_tables[i]
        p_pi = np.einsum("sa,sat->st", probs, cmdp.transition)
        c_pi = (probs * c).sum(axis=1)
        a = np.eye(cmdp.n_states) - cmdp.discount * p_pi
        v = np.linalg.solve(a, c_pi)
        residual = np.max(np.abs(a @ v - c_pi))
        if residual > 1e-10:
            raise NumericalFailure(f"Bellman residual {residual:.3e}")
        vs.append(v)
        qs.append(c + cmdp.discount * cmdp.transition @ v)
    return np.array(vs), np.array(qs)


def occupancy_lp_reference(cmdp):
    """Optimal J_0 of the occupancy-measure LP, solved by scipy's HiGHS."""
    s_n, a_n = cmdp.n_states, cmdp.n_actions
    n, gamma = s_n * a_n, cmdp.discount
    flow = np.repeat(np.eye(s_n), a_n, axis=1) - gamma * cmdp.transition.reshape(n, s_n).T
    active = cmdp.limits < cmdp.infinite_limit() - 1e-9
    res = scipy.optimize.linprog(
        -cmdp.reward.reshape(n) / (1.0 - gamma),
        A_ub=cmdp.costs[active].reshape(-1, n) / (1.0 - gamma),
        b_ub=cmdp.limits[active], A_eq=flow,
        b_eq=(1.0 - gamma) * cmdp.initial_dist, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -res.fun


def pivot_reference(tab, obj, basis, row, col):
    """One simplex pivot on a tableau, row by row."""
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0.0:
            tab[i] -= tab[i, col] * tab[row]
    obj -= obj[col] * tab[row]
    basis[row] = col


def run_simplex_reference(tab, obj, basis, allowed, pivot_tol, max_iter):
    """Bland-rule simplex, scanning columns and rows one at a time: the first
    allowed column of negative reduced cost enters, and the ratio test keeps
    the row of smallest ratio, ties (within pivot_tol) to the smallest basis
    index, in row order."""
    for _ in range(max_iter):
        enter = -1
        for j in range(tab.shape[1] - 1):
            if allowed[j] and obj[j] < -pivot_tol:
                enter = j
                break
        if enter < 0:
            return
        leave, best, best_basis = -1, np.inf, -1
        for i in range(tab.shape[0]):
            if tab[i, enter] > pivot_tol:
                ratio = tab[i, -1] / tab[i, enter]
                if ratio < best - pivot_tol or (ratio < best + pivot_tol
                                                and basis[i] < best_basis):
                    leave, best, best_basis = i, ratio, basis[i]
        if leave < 0:
            raise NumericalFailure("LP is unbounded", best_bound=float(-obj[-1]))
        pivot_reference(tab, obj, basis, leave, enter)
    raise NumericalFailure("simplex iteration cap reached", best_bound=float(-obj[-1]))


def goal_reachable_reference(frozen, rows, cols):
    """BFS over frozen cells under deterministic moves, holes blocking."""
    start, goal = (0, 0), (rows - 1, cols - 1)
    seen = {start}
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        if (r, c) == goal:
            return True
        for dr, dc in MOVES:
            nr, nc = min(max(r + dr, 0), rows - 1), min(max(c + dc, 0), cols - 1)
            if frozen[nr, nc] and (nr, nc) not in seen:
                seen.add((nr, nc))
                queue.append((nr, nc))
    return False


def grid_ascii_reference(frozen):
    """Render a bitmap one cell at a time: S start, G goal, . frozen, H hole."""
    rows, cols = frozen.shape
    lines = []
    for r in range(rows):
        chars = []
        for c in range(cols):
            if (r, c) == (0, 0):
                chars.append("S")
            elif (r, c) == (rows - 1, cols - 1):
                chars.append("G")
            else:
                chars.append("." if frozen[r, c] else "H")
        lines.append("".join(chars))
    return lines


def grid_to_cmdp_reference(frozen, spec):
    """Build the tabular CMDP for an explicit frozen/hole bitmap."""
    rows, cols = spec.rows, spec.cols
    n_cells = rows * cols
    n_states = n_cells + 1          # + absorbing
    absorbing = n_cells
    goal = n_cells - 1
    n_actions = 4
    p = np.zeros((n_states, n_actions, n_states))
    holes = ~frozen

    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            terminal = holes[r, c] or s == goal
            for a in range(n_actions):
                if terminal:
                    p[s, a, absorbing] = 1.0
                    continue
                outcomes = [(a, 1.0 - spec.slip_prob)]
                for perp in PERP[a]:
                    outcomes.append((perp, spec.slip_prob / 2.0))
                for move, prob in outcomes:
                    dr, dc = MOVES[move]
                    nr = min(max(r + dr, 0), rows - 1)
                    nc = min(max(c + dc, 0), cols - 1)
                    p[s, a, nr * cols + nc] += prob
    p[absorbing, :, absorbing] = 1.0

    hole_states = np.zeros(n_states)
    hole_states[:n_cells] = holes.reshape(-1)
    reward = spec.goal_reward * p[:, :, goal]
    cost = spec.hole_cost * (p * hole_states[None, None, :]).sum(axis=2)
    return TabularCmdp(
        kernel=(np.arange(len(p)), p),
        reward=reward,
        costs=cost[None],
        limits=np.array([spec.cost_limit]),
        discount=spec.discount,
        initial_dist=np.eye(n_states)[0],
        c_max=max(spec.goal_reward, abs(spec.hole_cost), 1e-12),
    )


def successor_arrays(transition):
    """(idx, prob) of shape (S, A, K): each kernel row's nonzero entries from
    np.nonzero of that row, padded up to K with the row's own state and
    probability 0."""
    s_n, a_n, _ = transition.shape
    rows = [np.nonzero(transition[s, a])[0]
            for s in range(s_n) for a in range(a_n)]
    k = max(r.size for r in rows)
    idx = np.repeat(np.arange(s_n), a_n * k).reshape(s_n * a_n, k)
    prob = np.zeros((s_n * a_n, k))
    for i, r in enumerate(rows):
        idx[i, :r.size] = r
        prob[i, :r.size] = transition[i // a_n, i % a_n, r]
    return idx.reshape(s_n, a_n, k), prob.reshape(s_n, a_n, k)


def q_backup_reference(cmdp, objective_index, v):
    """Q = c + gamma sum_k prob_k v(idx_k) over the successor arrays, the
    k terms added one after another."""
    idx, prob = successor_arrays(cmdp.transition)
    total = 0.0
    for k in range(idx.shape[2]):
        total = total + cmdp.discount * prob[..., k] * v[idx[..., k]]
    return cmdp.objective_tables[objective_index] + total


def transition_under_policy_reference(cmdp, probs):
    """P_pi(s'|s) by a dense einsum over the (S, A, S) kernel."""
    return np.einsum("sa,sat->st", probs, cmdp.transition)


def visitation_reference(cmdp, probs):
    """Discounted state visitation from the einsum P_pi:
    nu = (1-gamma) rho + gamma P_pi^T nu, clipped at 0 and normalized."""
    p_pi = transition_under_policy_reference(cmdp, probs)
    a = np.eye(cmdp.n_states) - cmdp.discount * p_pi.T
    nu = np.linalg.solve(a, (1.0 - cmdp.discount) * cmdp.initial_dist)
    nu = np.maximum(nu, 0.0)
    return nu / nu.sum()


def independent_set_reference(cmdp):
    """The greedy independent set, state by state over the dense kernel: a
    state joins unless a state already in the set is one of its successors
    or predecessors under some action; self-loops do not count."""
    linked = [set() for _ in range(cmdp.n_states)]
    for s, rows in enumerate(cmdp.transition.tolist()):
        for row in rows:
            for t, p in enumerate(row):
                if p != 0 and t != s:
                    linked[s].add(t)
                    linked[t].add(s)
    chosen = []
    for s in range(cmdp.n_states):
        if not linked[s] & set(chosen):
            chosen.append(s)
    return chosen


def schur_reference(cmdp, probs):
    """(indep, dep, nd, s, r, a_ji) of the eliminated Bellman system, dense:
    M = -gamma P_pi from an einsum over the dense kernel, the greedy set I
    and the rest J, nd = -1 - M_ii on I, R = M_IJ / nd row by row,
    A_JI = M_JI, and S = I + M_JJ + sum_i M_Ji R_iJ, the outer products
    added in ascending i before M_JJ."""
    indep = independent_set_reference(cmdp)
    dep = sorted(set(range(cmdp.n_states)) - set(indep))
    m = np.einsum("sa,sat->st", probs, -cmdp.discount * cmdp.transition)
    nd = -1.0 - m[indep, indep]
    r = m[np.ix_(indep, dep)] / nd[:, None]
    a_ji = m[np.ix_(dep, indep)]
    fill = np.zeros((len(dep), len(dep)))
    for k in range(len(indep)):
        fill += np.outer(a_ji[:, k], r[k])
    s = fill + m[np.ix_(dep, dep)]
    s[np.diag_indices(len(dep))] += 1.0
    return indep, dep, nd, s, r, a_ji


def visitation_schur_reference(cmdp, probs):
    """Discounted state visitation through `schur_reference`: nu_J solves
    S^T nu_J = b_J + b_I R, b = (1-gamma) rho, and
    nu_I = (nu_J A_JI - b_I) / nd; clipped at 0 and normalized."""
    indep, dep, nd, s, r, a_ji = schur_reference(cmdp, probs)
    b = (1.0 - cmdp.discount) * cmdp.initial_dist
    nu = np.empty(cmdp.n_states)
    nu[dep] = np.linalg.solve(s.T, b[dep] + b[indep] @ r)
    nu[indep] = (nu[dep] @ a_ji - b[indep]) / nd
    nu = np.maximum(nu, 0.0)
    return nu / nu.sum()


def empirical_kernel_reference(dataset):
    """p_hat(s'|s,a) = n(s,a,s')/n(s,a) on seen pairs, 0 elsewhere, built in
    a second array from the transition counts."""
    counts = np.zeros((dataset.n_states, dataset.n_actions))
    np.add.at(counts, (dataset.s, dataset.a), 1.0)
    trans = np.zeros((dataset.n_states, dataset.n_actions, dataset.n_states))
    np.add.at(trans, (dataset.s, dataset.a, dataset.s_next), 1.0)
    p = np.zeros_like(trans)
    seen = counts > 0
    p[seen] = trans[seen] / counts[seen][:, None]
    return p


def monte_carlo_visitation(cmdp, probs, n_rollouts, seed):
    """Empirical discounted state visitation from vectorized rollouts."""
    rng = np.random.default_rng(seed)
    gamma = cmdp.discount
    horizon = int(np.ceil(np.log(1e-6) / np.log(gamma)))
    s = rng.choice(cmdp.n_states, size=n_rollouts, p=cmdp.initial_dist)
    weights = np.zeros(cmdp.n_states)
    pol_cdf = np.cumsum(probs, axis=1)
    trans_cdf = np.cumsum(cmdp.transition, axis=2)
    w = 1.0 - gamma
    for _ in range(horizon):
        np.add.at(weights, s, w)
        u = rng.random(n_rollouts)
        a = (u[:, None] > pol_cdf[s]).sum(axis=1)
        u = rng.random(n_rollouts)
        s = (u[:, None] > trans_cdf[s, a]).sum(axis=1)
        w *= gamma
    return weights / weights.sum()


def monte_carlo_objective(cmdp, probs, objective_index, n_steps, seed):
    """Plain rollout estimate of the discounted objective, with stderr."""
    rng = np.random.default_rng(seed)
    gamma = cmdp.discount
    horizon = int(np.ceil(np.log(1e-8) / np.log(gamma)))
    n_ep = max(1, n_steps // horizon)
    c = cmdp.objective_tables[objective_index]
    s = rng.choice(cmdp.n_states, size=n_ep, p=cmdp.initial_dist)
    pol_cdf = np.cumsum(probs, axis=1)
    trans_cdf = np.cumsum(cmdp.transition, axis=2)
    returns = np.zeros(n_ep)
    w = 1.0
    for _ in range(horizon):
        u = rng.random(n_ep)
        a = (u[:, None] > pol_cdf[s]).sum(axis=1)
        returns += w * c[s, a]
        u = rng.random(n_ep)
        s = (u[:, None] > trans_cdf[s, a]).sum(axis=1)
        w *= gamma
    return returns.mean(), returns.std(ddof=1) / np.sqrt(n_ep)


def sample_episode_reference(cmdp, probs, horizon, rng):
    """One rollout of fixed horizon, one rng.choice per draw."""
    transition = cmdp.transition
    s = rng.choice(cmdp.n_states, p=cmdp.initial_dist)
    states = np.empty(horizon, dtype=int)
    actions = np.empty(horizon, dtype=int)
    nexts = np.empty(horizon, dtype=int)
    for t in range(horizon):
        a = rng.choice(cmdp.n_actions, p=probs[s])
        s2 = rng.choice(cmdp.n_states, p=transition[s, a])
        states[t], actions[t], nexts[t] = s, a, s2
        s = s2
    return states, actions, nexts


def lstd_q_reference(cmdp, probs, config, rng):
    """Tabular LSTD(0) on Q for every objective, stepping the chain one
    rng.choice at a time; returns the (p+1, S, A) tables.

    Counts the chain's (s, a) -> (s', a') steps over all S*A pairs and
    solves (I - gamma P_hat) Q = c, P_hat the visit-normalised counts; a
    pair never stepped from gets an identity row and a zero right-hand side.
    """
    n = cmdp.n_states * cmdp.n_actions
    transition = cmdp.transition
    counts = np.zeros((n, n))
    horizon = max(2, config.episode_horizon)
    s = rng.choice(cmdp.n_states, p=cmdp.initial_dist)
    a = rng.choice(cmdp.n_actions, p=probs[s])
    t = 0
    for _ in range(config.td_iterations):
        s2 = rng.choice(cmdp.n_states, p=transition[s, a])
        a2 = rng.choice(cmdp.n_actions, p=probs[s2])
        counts[s * cmdp.n_actions + a, s2 * cmdp.n_actions + a2] += 1.0
        t += 1
        if t >= horizon:
            s = rng.choice(cmdp.n_states, p=cmdp.initial_dist)
            a = rng.choice(cmdp.n_actions, p=probs[s])
            t = 0
        else:
            s, a = s2, a2
    visits = counts.sum(axis=1)
    visited = visits > 0
    p_hat = np.zeros((n, n))
    p_hat[visited] = counts[visited] / visits[visited, None]
    c = cmdp.objective_tables.reshape(cmdp.n_costs + 1, -1)
    q = np.linalg.solve(np.eye(n) - cmdp.discount * p_hat, (c * visited).T).T
    return q.reshape(-1, cmdp.n_states, cmdp.n_actions)


def dense_kernel(dataset):
    """The dataset's p_hat entries scattered into a dense (S, A, S) array,
    each row's entries for one state added in k order."""
    idx, prob = dataset.p_hat
    s_n, a_n = dataset.n_states, dataset.n_actions
    p = np.zeros((s_n, a_n, s_n))
    np.add.at(p, (np.arange(s_n)[:, None, None], np.arange(a_n)[:, None], idx),
              prob)
    return p


def dualdice_direct_reference(dataset, probs, gamma):
    """DualDICE on the dense (SA)x(SA) normal equations G^T D G z = (1-gamma) b.

    Min-norm lstsq, omega = G z clipped at 0 and zeroed on uncovered pairs.
    """
    s_n, a_n = dataset.n_states, dataset.n_actions
    n = s_n * a_n
    next_op = np.einsum("sat,tb->satb", dense_kernel(dataset), probs).reshape(n, n)
    g = np.eye(n) - gamma * next_op
    d = dataset.d_sa.reshape(n)
    normal = g.T @ (d[:, None] * g)
    rhs = (1.0 - gamma) * (dataset.rho_hat[:, None] * probs).reshape(n)
    z = np.linalg.lstsq(normal, rhs, rcond=None)[0]
    omega = np.maximum((g @ z).reshape(s_n, a_n), 0.0)
    omega[dataset.d_sa <= 0] = 0.0
    return omega


def sgd_z_reference(dataset, probs, gamma, config):
    """The z table of DualDICE by SGD, one step at a time.

    The draws come 1024 steps at a time from four batch calls:
    rng.integers(n_tr, size=k), rng.random(k), rng.integers(n_init, size=k),
    rng.random(k). Each action is count(cumsum(p)/cumsum(p)[-1] <= u).
    """
    rng = np.random.default_rng(config.rng_seed)
    s_n, a_n = dataset.n_states, dataset.n_actions
    z = np.zeros((s_n, a_n))
    zeta = np.zeros((s_n, a_n))
    lr = config.sgd_step_size

    def action(state, u):
        c = np.cumsum(probs[state])
        return int(np.count_nonzero(c / c[-1] <= u))

    for start in range(0, config.sgd_steps, 1024):
        k = min(1024, config.sgd_steps - start)
        tr = rng.integers(dataset.s.size, size=k)
        u_next = rng.random(k)
        init = rng.integers(dataset.initial_states.size, size=k)
        u_init = rng.random(k)
        for n in range(k):
            i = tr[n]
            s, a, s2 = dataset.s[i], dataset.a[i], dataset.s_next[i]
            a2 = action(s2, u_next[n])
            s0 = dataset.initial_states[init[n]]
            a0 = action(s0, u_init[n])
            resid = z[s, a] - gamma * z[s2, a2] - zeta[s, a]
            zeta[s, a] += lr * resid
            z[s, a] -= lr * zeta[s, a]
            z[s2, a2] += lr * gamma * zeta[s, a]
            z[s0, a0] += lr * (1.0 - gamma)
    return z


def sgd_fit_reference(dataset, probs, gamma, config):
    """DualDICE by SGD: omega = z - gamma P_hat^pi z on the z of
    `sgd_z_reference`, clipped at 0 and zeroed on uncovered pairs.

    The expected next z of a pair adds p_hat(t|s,a) v(t), with
    v(t) = sum_b pi(b|t) z(t, b), over the row's nonzero t in ascending
    order, one term at a time from 0.
    """
    z = sgd_z_reference(dataset, probs, gamma, config)
    p = dense_kernel(dataset)
    v = (probs * z).sum(axis=1)
    next_z = np.zeros_like(z)
    for s, a in np.ndindex(z.shape):
        for t in np.flatnonzero(p[s, a]):
            next_z[s, a] += p[s, a, t] * v[t]
    omega = np.maximum(z - gamma * next_z, 0.0)
    omega[dataset.d_sa <= 0] = 0.0
    return omega


def project_simplex_reference(v):
    """Sort-based Euclidean projection of one vector onto the simplex."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, n + 1)
    k = idx[u + (1.0 - css) / idx > 0][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(v - tau, 0.0)


def project_table_shrinkage_reference(table, shrink):
    """Row by row projection onto {a : sum a = 1, a_i >= shrink}."""
    rows = []
    for v in np.asarray(table, dtype=float):
        n = v.size
        scale = 1.0 - n * shrink
        if scale == 0.0:
            rows.append(np.full(n, shrink))
        else:
            rows.append(shrink + scale
                        * project_simplex_reference((v - shrink) / scale))
    return np.vstack(rows)


def synthetic_kl_stream_reference(n_states, n_actions, t_tasks, dispersion,
                                  seed, shrink=1e-3, center=None):
    """The synthetic KL stream as a list of (VisitationDistribution,
    TablePolicy) pairs, one task at a time: the task's logit noise, its
    shrinkage projection, then its Dirichlet visitation."""
    from metasrl.meta import project_table_shrinkage_simplex

    rng = np.random.default_rng(seed)
    if center is None:
        center = rng.dirichlet(np.ones(n_actions), size=n_states)
    stream = []
    for _ in range(t_tasks):
        noisy = np.log(np.maximum(center, 1e-12)) \
            + dispersion * rng.standard_normal((n_states, n_actions))
        probs = np.exp(noisy - noisy.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        probs = project_table_shrinkage_simplex(probs, shrink)
        nu = rng.dirichlet(np.ones(n_states))
        stream.append((VisitationDistribution(nu=nu), TablePolicy(probs=probs)))
    return stream


def central_difference(fn, x, step=1e-6):
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = x.copy()
        lo = x.copy()
        hi[idx] += step
        lo[idx] -= step
        grad[idx] = (fn(hi) - fn(lo)) / (2.0 * step)
        it.iternext()
    return grad


def project_shrinkage_qp(v, shrink):
    """Quadratic-program projection onto {a: sum a = 1, a_i >= shrink}."""
    v = np.asarray(v, dtype=float)
    n = v.size
    res = scipy.optimize.minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2), np.full(n, 1.0 / n),
        jac=lambda x: x - v,
        bounds=[(shrink, None)] * n,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                      "jac": lambda x: np.ones(n)}],
        method="SLSQP", options={"ftol": 1e-14, "maxiter": 500})
    return res.x


def minimize_average_kl(nus, pis, shrink):
    """Numerical minimizer of (1/T) sum_t E_{nu_t}[KL(pi_t | phi)] over the
    visitation stack nus (T, S) and the table stack pis (T, S, A).

    Solved row by row with SLSQP over the shrunk simplex; returns the
    attained minimum value.
    """
    nus, pis = np.asarray(nus), np.asarray(pis)
    t_n, s_n, a_n = pis.shape
    total = 0.0
    for s in range(s_n):
        w = nus[:, s]
        if w.sum() == 0:
            continue
        rows = pis[:, s, :]

        def loss(phi):
            return float(np.sum(w[:, None] * rows * (np.log(rows) - np.log(phi))))

        def grad(phi):
            return -np.sum(w[:, None] * rows, axis=0) / phi

        res = scipy.optimize.minimize(
            loss, np.full(a_n, 1.0 / a_n), jac=grad,
            bounds=[(max(shrink, 1e-12), 1.0)] * a_n,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                          "jac": lambda x: np.ones(a_n)}],
            method="SLSQP", options={"ftol": 1e-16, "maxiter": 1000})
        total += res.fun
    return total / t_n


def random_cmdp(rng, n_states=4, n_actions=3, n_costs=1, gamma=0.8,
                feasible_margin=None):
    """Random dense CMDP; limits set so the uniform policy is feasible."""
    transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.random((n_states, n_actions))
    costs = rng.random((n_costs, n_states, n_actions))
    rho = rng.dirichlet(np.ones(n_states))
    # uniform-policy cost gives a guaranteed-feasible limit
    probs = np.full((n_states, n_actions), 1.0 / n_actions)
    p_pi = np.einsum("sa,sat->st", probs, transition)
    limits = np.zeros(n_costs)
    for i in range(n_costs):
        c_pi = (probs * costs[i]).sum(axis=1)
        v = np.linalg.solve(np.eye(n_states) - gamma * p_pi, c_pi)
        margin = feasible_margin if feasible_margin is not None else 0.0
        limits[i] = float(rho @ v) + margin
    return TabularCmdp(kernel=(np.arange(n_states), transition), reward=reward,
                       costs=costs, limits=limits, discount=gamma, initial_dist=rho,
                       c_max=1.0)


def curve_rows_reference(records, strategy, n_costs):
    """Aggregate per-step curves: mean, std and stderr over runs."""
    rows = []
    keyed = {}
    for rec in records:
        if rec.strategy != strategy or rec.error is not None:
            continue
        keyed.setdefault((rec.task_index, rec.is_test), []).append(rec)
    for (task, is_test) in sorted(keyed, key=lambda k: (k[1], k[0])):
        group = keyed[(task, is_test)]
        rew = np.array([r.per_step_reward for r in group])
        cost = np.array([r.per_step_costs for r in group])
        n = len(group)
        for m in range(rew.shape[1]):
            row = [task, 1 if is_test else 0, m,
                   rew[:, m].mean(), rew[:, m].std(ddof=0),
                   rew[:, m].std(ddof=0) / np.sqrt(n)]
            for i in range(n_costs):
                row += [cost[:, m, i].mean(), cost[:, m, i].std(ddof=0),
                        cost[:, m, i].std(ddof=0) / np.sqrt(n)]
            rows.append(row)
    return rows


def quadratic_stream(dim, t_tasks, lam, drift, seed, box=5.0):
    """Drifting strongly-convex quadratics f_t(x) = lam/2 ||x - x*_t||^2.

    Comparator minimizers perform a bounded random walk of step `drift`.
    Returns a list of (minimizer, loss_fn, grad_fn) triples.
    """
    rng = np.random.default_rng(seed)
    x_star = rng.uniform(-box / 2, box / 2, size=dim)
    stream = []
    for _ in range(t_tasks):
        step = rng.standard_normal(dim)
        step = drift * step / max(np.linalg.norm(step), 1e-12)
        x_star = np.clip(x_star + step, -box, box)
        target = x_star.copy()
        stream.append((
            target,
            (lambda x, c=target: 0.5 * lam * float(np.sum((x - c) ** 2))),
            (lambda x, c=target: lam * (x - c)),
        ))
    return stream
