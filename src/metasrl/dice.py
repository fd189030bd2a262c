"""Tabular off-policy visitation correction (DualDICE) and the plug-in KL loss.

The fit minimizes J(z) = 1/2 E_d[(z - T^pi z)^2] - (1-gamma) E_{rho,pi}[z]
over a fully tabular z, then recovers the correction ratios
omega(s,a) = (z - B^pi z)(s,a), the estimated visitation nu_hat, and the
visitation-weighted KL loss the meta-learner descends on.

The Sgd solver draws its steps with numpy's batch calls, `rng.integers` and
`rng.random`, and turns the uniforms into target-policy actions with the
inverse-CDF draw of `metasrl.sampling`, which the CRPO sampler shares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cmdp import VisitationDistribution, successor_view
from .errors import (CoverageWarning, DegenerateEstimate, InvalidInput, check_counts,
                     check_reals)
from .sampling import cdf, draw

COUNT_TOL = 1e-12
SGD_CHUNK = 1024    # Sgd steps drawn at a time: bounds the draw arrays


@dataclass(frozen=True)
class TrajectoryDataset:
    """Off-policy transitions (s, a, s') and initial states, plus the
    empirical quantities DICE needs.

    s, a and s_next are parallel 1-D integer arrays, and initial_states a
    1-D integer array, each index in range. d_sa, p_hat and rho_hat are
    either empirical (from samples) or exact (from_distribution). p_hat is
    the kernel as entries (idx, prob), each (S, A, K), as `TabularCmdp`
    takes its kernel: entry (s, a, k) puts mass prob[s, a, k] on state
    idx[s, a, k]. The empirical kernel has one entry per distinct
    (s, a, s') of the log, p_hat = n(s, a, s')/n(s, a), in ascending s'
    within a row; K is the largest count of any row, and shorter rows,
    unseen ones whole, are padded with zero-mass self-loops. No (S, A, S)
    array is kept.
    """

    n_states: int
    n_actions: int
    s: np.ndarray
    a: np.ndarray
    s_next: np.ndarray
    initial_states: np.ndarray
    d_sa: np.ndarray = field(default=None)      # (S, A) data distribution
    p_hat: tuple = field(default=None)          # (idx, prob), each (S, A, K)
    rho_hat: np.ndarray = field(default=None)   # (S,) empirical initial dist

    def __post_init__(self):
        for name, bound in (("s", self.n_states), ("a", self.n_actions),
                            ("s_next", self.n_states),
                            ("initial_states", self.n_states)):
            _check_indices(name, getattr(self, name), bound)
        if not self.s.size == self.a.size == self.s_next.size:
            raise InvalidInput("s, a and s_next must have equal lengths")
        if self.d_sa is None:
            if self.s.size == 0:
                raise InvalidInput("empty trajectory dataset")
            if self.initial_states.size == 0:
                raise InvalidInput("no initial-state samples")
            d, p, rho = self._empirical()
            object.__setattr__(self, "d_sa", d)
            object.__setattr__(self, "p_hat", p)
            object.__setattr__(self, "rho_hat", rho)
        if abs(self.d_sa.sum() - 1.0) > COUNT_TOL:
            raise InvalidInput("d_sa must sum to 1")

    def _empirical(self):
        s_n, a_n = self.n_states, self.n_actions
        sa = self.s.astype(np.intp) * a_n + self.a     # no wrap in small dtypes
        counts = np.bincount(sa, minlength=s_n * a_n)
        d = (counts / counts.sum()).reshape(s_n, a_n)
        # n(s, a, s') on the view, then each row over n(s, a), or 1 if unseen
        idx, seen = successor_view(sa * s_n + self.s_next, np.ones(sa.size), s_n, a_n)
        prob = seen / np.maximum(counts, 1).reshape(s_n, a_n, 1)
        prob.setflags(write=False)
        rho = np.bincount(self.initial_states, minlength=s_n)
        return d, (idx, prob), rho / rho.sum()

    @classmethod
    def from_samples(cls, n_states, n_actions, s, a, s_next, initial_states):
        return cls(n_states=n_states, n_actions=n_actions, s=np.asarray(s),
                   a=np.asarray(a), s_next=np.asarray(s_next),
                   initial_states=np.asarray(initial_states))

    @classmethod
    def from_distribution(cls, d_sa, transition, initial_dist):
        """Exact-expectation dataset: known data distribution and dense
        (S, A, S) kernel, kept as the entries of its nonzero values."""
        d_sa = np.asarray(d_sa, dtype=float)
        s_n, a_n = d_sa.shape
        transition = np.asarray(transition, dtype=float)
        if transition.shape != (s_n, a_n, s_n):
            raise InvalidInput(f"transition of shape {transition.shape} is not "
                               f"(S, A, S) = {(s_n, a_n, s_n)} for d_sa")
        empty = np.zeros(0, dtype=int)
        return cls(n_states=s_n, n_actions=a_n,
                   s=empty, a=empty, s_next=empty, initial_states=empty,
                   d_sa=d_sa / d_sa.sum(),
                   p_hat=successor_view(np.arange(transition.size), transition.ravel(),
                                        s_n, a_n),
                   rho_hat=np.asarray(initial_dist, dtype=float))


def _check_indices(name, x, bound):
    """x must be a 1-D integer array with entries in [0, bound)."""
    if x.ndim != 1:
        raise InvalidInput(f"{name} must be a 1-D array")
    if x.size and (x.dtype.kind not in "iu" or x.min() < 0 or x.max() >= bound):
        raise InvalidInput(f"{name} must hold integer indices in [0, {bound})")


@dataclass(frozen=True)
class CorrectionTable:
    omega: np.ndarray
    coverage_mask: np.ndarray


@dataclass(frozen=True)
class DiceConfig:
    solver: str = "DirectSolve"       # or "Sgd"
    sgd_steps: int = 10_000
    sgd_step_size: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        if self.solver not in ("DirectSolve", "Sgd"):
            raise InvalidInput(f"unknown DICE solver {self.solver!r}")
        check_counts(self, rng_seed=0)
        check_reals(self, "sgd_step_size")
        if self.solver == "Sgd":
            check_counts(self, sgd_steps=1)
            if not 0.0 < self.sgd_step_size < np.inf:
                raise InvalidInput("sgd_step_size must be positive and finite")


def dualdice_fit(dataset, target_policy, gamma, config=None):
    """Fit correction ratios omega = nu_pi(s,a)/d_data(s,a) from off-policy data.

    DirectSolve minimizes the quadratic objective exactly via its normal
    equations G^T D G z = (1-gamma) b, where G = I - gamma P_hat^pi is the
    (SA)x(SA) Bellman matrix and D = diag(d_data). It works on the k covered
    pairs C only: D vanishes off C, so G^T D G = G_C^T D_C G_C, and G_C has
    full row rank k because ||gamma P_hat^pi||_inf <= gamma < 1. With the
    k x k matrix H = G_C G_C^T, the min-norm solution is
    z = G_C^T H^-1 D_C^-1 H^-1 G_C r (r = (1-gamma) b), so the covered
    ratios are omega_C = G_C z = D_C^-1 H^-1 G_C r: one k x k solve. The
    nonzero columns of G_C are the pairs (t, b) of the m touched states t,
    the covered pairs' own states and the successors in their p_hat
    entries, so G_C is formed on those m*A columns alone: cost O(k^2 m A),
    at most O(k^2 SA), with no (SA)x(SA) matrix, no k x SA matrix and no
    (S, A, S) kernel. When k < SA the objective J(z) is
    unbounded below whenever b has a component outside the row space of
    G_C; DirectSolve then returns the min-norm least-squares point of the
    normal equations, as a dense lstsq would. Every least-squares point
    differs from it by a null vector of G_C, so omega_C does not depend on
    that choice.

    Sgd runs `sgd_steps` stochastic steps on the minimax surrogate, seeded
    by `rng_seed`. Its draws are made ahead in batches of numpy calls; only
    the O(K) scalar updates run in a Python loop. omega = z - gamma
    P_hat^pi z then reads the p_hat entries, O(S A K).

    Output is clipped at 0 and zeroed on uncovered pairs, and a
    CoverageWarning is raised when any pair is uncovered.
    """
    if config is None:
        config = DiceConfig()
    if not (0.0 < gamma < 1.0):
        raise InvalidInput("gamma must lie in (0, 1)")
    if dataset.d_sa.sum() <= 0:
        raise InvalidInput("empty dataset")
    s_n, a_n = dataset.n_states, dataset.n_actions
    covered = dataset.d_sa > 0

    probs = target_policy.probs
    if config.solver == "DirectSolve":
        rows = np.flatnonzero(covered)
        k = rows.size
        idx, prob = (x.reshape(s_n * a_n, -1)[rows] for x in dataset.p_hat)
        # G_C has nonzero columns only on the touched pairs: the actions of
        # the covered pairs' own states and of their successors
        hit = np.zeros(s_n, dtype=bool)
        hit[rows // a_n] = True
        hit[idx] = True
        touched = np.flatnonzero(hit)
        col = np.cumsum(hit) - 1     # a touched state's place in `touched`
        m = touched.size
        p_c = np.bincount((np.arange(k)[:, None] * m + col[idx]).ravel(),
                          prob.ravel(), minlength=k * m).reshape(k, m)
        # G_C: row (s,a) is e_(s,a) - gamma p_hat(t|s,a) pi(b|t), on (t, b)
        g_c = -gamma * (p_c[:, :, None] * probs[touched]).reshape(k, m * a_n)
        g_c[np.arange(k), col[rows // a_n] * a_n + rows % a_n] += 1.0
        rhs = (1.0 - gamma) * (dataset.rho_hat[touched, None]
                               * probs[touched]).reshape(-1)
        y = np.linalg.solve(g_c @ g_c.T, g_c @ rhs)
        omega = np.zeros((s_n, a_n))
        omega[covered] = y / dataset.d_sa[covered]
    else:
        omega = _sgd_fit(dataset, probs, gamma, config)
    if not covered.all():
        warnings.warn("data left correction ratios underdetermined on "
                      "uncovered state-action pairs", CoverageWarning)

    omega = np.maximum(omega, 0.0)
    omega[~covered] = 0.0
    return CorrectionTable(omega=omega, coverage_mask=covered)


def _sgd_fit(dataset, probs, gamma, config):
    """K stochastic saddle-point steps on J(z, zeta); returns z - B^pi z on data.

    Each step draws a logged transition (s, a, s'), a' ~ pi(s'), a logged
    initial state s_0 and a_0 ~ pi(s_0). No draw depends on z, so the steps
    are drawn ahead, SGD_CHUNK steps at a time, with four batch calls a
    chunk: rng.integers for the transitions, rng.random for a', rng.integers
    for the initial states and rng.random for a_0; the actions are the
    inverse-CDF draws of those uniforms. Only the scalar updates run one by
    one, on Python floats, which round as numpy scalars do.
    """
    s_n, a_n = dataset.n_states, dataset.n_actions
    n_tr, n_init = dataset.s.size, dataset.initial_states.size
    if n_tr == 0 or n_init == 0:
        raise InvalidInput("Sgd solver needs sampled transitions")
    policy_cdf = cdf(probs, "target policy").T.copy()   # (A, S), as draw takes it
    rng = np.random.default_rng(config.rng_seed)
    gamma, lr = float(gamma), float(config.sgd_step_size)
    lr_gamma, lr_init = lr * gamma, lr * (1.0 - gamma)
    z = [0.0] * (s_n * a_n)
    zeta = [0.0] * (s_n * a_n)
    for start in range(0, config.sgd_steps, SGD_CHUNK):
        k = min(SGD_CHUNK, config.sgd_steps - start)
        i, u_next = rng.integers(n_tr, size=k), rng.random(k)
        j, u_init = rng.integers(n_init, size=k), rng.random(k)
        s2, s0 = dataset.s_next[i], dataset.initial_states[j]
        sa = dataset.s[i] * a_n + dataset.a[i]
        sa_next = s2 * a_n + draw(policy_cdf.take(s2, axis=1), u_next)
        sa_init = s0 * a_n + draw(policy_cdf.take(s0, axis=1), u_init)
        for k, k2, k0 in zip(sa.tolist(), sa_next.tolist(), sa_init.tolist()):
            resid = z[k] - gamma * z[k2] - zeta[k]
            # ascent in zeta, descent in z
            zeta[k] += lr * resid
            z[k] -= lr * zeta[k]
            z[k2] += lr_gamma * zeta[k]
            z[k0] += lr_init
    z = np.array(z).reshape(s_n, a_n)
    # omega = z - gamma * expected next z under p_hat and the target policy:
    # each row's entries summed in k order
    idx, prob = dataset.p_hat
    next_v = (probs * z).sum(axis=1)[idx]
    rows = np.arange(s_n * a_n).repeat(idx.shape[2])
    next_z = np.bincount(rows, (prob * next_v).ravel(), minlength=s_n * a_n)
    return z - gamma * next_z.reshape(s_n, a_n)


def visitation_from_corrections(dataset, corrections):
    """nu_hat(s) proportional to sum_a omega(s,a) d_data(s,a)."""
    mass = (corrections.omega * dataset.d_sa).sum(axis=1)
    total = mass.sum()
    if total <= 0:
        raise DegenerateEstimate("corrections carry no visitation mass")
    return VisitationDistribution(nu=mass / total)


def kl_loss_and_grad(nu, probs, phi):
    """Visitation-weighted KL loss E_nu[D_KL(probs | phi)] and its gradient.

    nu is a visitation stack (..., S) and probs a table stack (..., S, A);
    a table may have zero entries (0 log 0 = 0), as LP-optimal policies do.
    phi, with positive entries, is one (S, A) table, such as the
    meta-learner's initialization, or a stack (..., S, A), one per loss.
    The loss is a float without leading axes, else a (...,) array, each
    entry bit for bit the single-table loss. The gradient (..., S, A) is
    with respect to phi: d/d phi(a|s) = -nu(s) probs(a|s) / phi(a|s).
    """
    nu, p, q = (np.asarray(x, dtype=float) for x in (nu, probs, phi))
    if (p.ndim < 2 or nu.shape != p.shape[:-1]
            or q.shape not in (p.shape[-2:], p.shape)):
        raise InvalidInput(f"nu {nu.shape}, probs {p.shape} and phi {q.shape} "
                           "are not (..., S), (..., S, A) and (S, A) or (..., S, A)")
    if np.any(q <= 0):
        raise InvalidInput("phi rows must be strictly positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(q))
    per_state = np.where(p > 0, terms, 0.0).sum(axis=-1)
    # one dot product per table, as nu @ per_state takes it
    loss = (nu[..., None, :] @ per_state[..., :, None])[..., 0, 0]
    grad = -nu[..., :, None] * p / q
    return (float(loss) if loss.ndim == 0 else loss), grad


def error_decomposition(nu_star, pi_star, nu_tilde, nu_hat, pi_hat, phi):
    """Split the plug-in KL error into visitation, estimation and policy parts.

    The visitations are (S,) arrays and the policies (S, A) tables. With
    L(nu, pi) = E_nu[KL(pi|phi)], four losses in one stacked call give

    total = L(nu*, pi*) - L(nu_hat, pi_hat)
          = (A) visitation mismatch nu* vs nu_tilde on KL(pi*|phi)
          + (C) policy mismatch pi* vs pi_hat under nu_tilde
          + (B) estimation error nu_tilde vs nu_hat on KL(pi_hat|phi).
    """
    star, tilde_star, tilde_hat, hat = kl_loss_and_grad(
        np.stack([nu_star, nu_tilde, nu_tilde, nu_hat]),
        np.stack([pi_star, pi_star, pi_hat, pi_hat]), phi)[0].tolist()
    return {"A": star - tilde_star, "B": tilde_hat - hat,
            "C": tilde_star - tilde_hat, "total": star - hat}
