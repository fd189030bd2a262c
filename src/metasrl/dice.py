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

from .errors import CoverageWarning, DegenerateEstimate, InvalidInput
from .sampling import cdf, draw

COUNT_TOL = 1e-12
SGD_CHUNK = 1024    # Sgd steps drawn at a time: bounds the draw arrays


@dataclass(frozen=True)
class TrajectoryDataset:
    """Off-policy transitions (s, a, s') and initial states, plus the
    empirical quantities DICE needs.

    s, a and s_next are parallel arrays; d_sa, p_hat and rho_hat are either
    empirical (from samples) or exact (from_distribution).
    """

    n_states: int
    n_actions: int
    s: np.ndarray
    a: np.ndarray
    s_next: np.ndarray
    initial_states: np.ndarray
    d_sa: np.ndarray = field(default=None)      # (S, A) data distribution
    p_hat: np.ndarray = field(default=None)     # (S, A, S) empirical kernel
    rho_hat: np.ndarray = field(default=None)   # (S,) empirical initial dist

    def __post_init__(self):
        if self.s.size:
            bad = (self.s.min() < 0 or self.s.max() >= self.n_states
                   or self.a.min() < 0 or self.a.max() >= self.n_actions
                   or self.s_next.min() < 0 or self.s_next.max() >= self.n_states)
            if bad:
                raise InvalidInput("transition index out of range")
        if self.d_sa is None:
            if self.s.size == 0:
                raise InvalidInput("empty trajectory dataset")
            d, p, rho = self._empirical()
            object.__setattr__(self, "d_sa", d)
            object.__setattr__(self, "p_hat", p)
            object.__setattr__(self, "rho_hat", rho)
        if abs(self.d_sa.sum() - 1.0) > COUNT_TOL:
            raise InvalidInput("d_sa must sum to 1")

    def _empirical(self):
        counts = np.zeros((self.n_states, self.n_actions))
        np.add.at(counts, (self.s, self.a), 1.0)
        d = counts / counts.sum()
        # transition counts, divided in place on the seen pairs into p_hat;
        # unseen rows hold no counts and stay 0
        p = np.zeros((self.n_states, self.n_actions, self.n_states))
        np.add.at(p, (self.s, self.a, self.s_next), 1.0)
        seen = counts > 0
        p[seen] /= counts[seen][:, None]
        rho = np.zeros(self.n_states)
        np.add.at(rho, self.initial_states, 1.0)
        if rho.sum() == 0:
            raise InvalidInput("no initial-state samples")
        rho /= rho.sum()
        return d, p, rho

    @classmethod
    def from_samples(cls, n_states, n_actions, s, a, s_next, initial_states):
        return cls(n_states=n_states, n_actions=n_actions, s=np.asarray(s),
                   a=np.asarray(a), s_next=np.asarray(s_next),
                   initial_states=np.asarray(initial_states))

    @classmethod
    def from_distribution(cls, d_sa, transition, initial_dist):
        """Exact-expectation dataset: known data distribution and kernel."""
        d_sa = np.asarray(d_sa, dtype=float)
        s_n, a_n = d_sa.shape
        empty = np.zeros(0, dtype=int)
        return cls(n_states=s_n, n_actions=a_n,
                   s=empty, a=empty, s_next=empty, initial_states=empty,
                   d_sa=d_sa / d_sa.sum(),
                   p_hat=np.asarray(transition, dtype=float),
                   rho_hat=np.asarray(initial_dist, dtype=float))


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
        if self.solver == "Sgd" and self.sgd_steps < 1:
            raise InvalidInput("sgd_steps must be >= 1")
        if self.solver == "Sgd" and not 0.0 < self.sgd_step_size < np.inf:
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
    ratios are omega_C = G_C z = D_C^-1 H^-1 G_C r: one k x k solve, cost
    O(k^2 SA), and no (SA)x(SA) matrix. When k < SA the objective J(z) is
    unbounded below whenever b has a component outside the row space of
    G_C; DirectSolve then returns the min-norm least-squares point of the
    normal equations, as a dense lstsq would. Every least-squares point
    differs from it by a null vector of G_C, so omega_C does not depend on
    that choice.

    Sgd runs `sgd_steps` stochastic steps on the minimax surrogate, seeded
    by `rng_seed`. Its draws are made ahead in batches of numpy calls; only
    the O(K) scalar updates run in a Python loop.

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

    if config.solver == "DirectSolve":
        probs = target_policy.probs
        rows = np.flatnonzero(covered)
        # G_C: row (s,a) is e_(s,a) - gamma p_hat(s'|s,a) pi(a'|s')
        g_c = -gamma * (dataset.p_hat[covered][:, :, None]
                        * probs[None]).reshape(rows.size, s_n * a_n)
        g_c[np.arange(rows.size), rows] += 1.0
        rhs = (1.0 - gamma) * (dataset.rho_hat[:, None] * probs).reshape(-1)
        y = np.linalg.solve(g_c @ g_c.T, g_c @ rhs)
        omega = np.zeros((s_n, a_n))
        omega[covered] = y / dataset.d_sa[covered]
    else:
        omega = _sgd_fit(dataset, target_policy, gamma, config)
    if not covered.all():
        warnings.warn("data left correction ratios underdetermined on "
                      "uncovered state-action pairs", CoverageWarning)

    omega = np.maximum(omega, 0.0)
    omega[~covered] = 0.0
    return CorrectionTable(omega=omega, coverage_mask=covered)


def _sgd_fit(dataset, target_policy, gamma, config):
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
    probs = target_policy.probs
    policy_cdf = cdf(probs, "target policy")
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
        sa_next = s2 * a_n + draw(policy_cdf[s2], u_next)
        sa_init = s0 * a_n + draw(policy_cdf[s0], u_init)
        for k, k2, k0 in zip(sa.tolist(), sa_next.tolist(), sa_init.tolist()):
            resid = z[k] - gamma * z[k2] - zeta[k]
            # ascent in zeta, descent in z
            zeta[k] += lr * resid
            z[k] -= lr * zeta[k]
            z[k2] += lr_gamma * zeta[k]
            z[k0] += lr_init
    z = np.array(z).reshape(s_n, a_n)
    # omega = z - gamma * expected next z under p_hat and the target policy
    next_z = np.einsum("sat,tb,tb->sa", dataset.p_hat, probs, z)
    return z - gamma * next_z


def visitation_from_corrections(dataset, corrections):
    """nu_hat(s) proportional to sum_a omega(s,a) d_data(s,a)."""
    mass = (corrections.omega * dataset.d_sa).sum(axis=1)
    total = mass.sum()
    if total <= 0:
        raise DegenerateEstimate("corrections carry no visitation mass")
    from .cmdp import VisitationDistribution

    nu = mass / total
    nu_sa = corrections.omega * dataset.d_sa
    return VisitationDistribution(nu=nu, nu_sa=nu_sa / nu_sa.sum())


def kl_loss_and_grad(nu_hat, pi_hat, phi):
    """Visitation-weighted KL loss E_nu[D_KL(pi_hat | phi)] and its gradient.

    The gradient is with respect to phi's probability table:
    d/d phi(a|s) = -nu(s) pi_hat(a|s) / phi(a|s). pi_hat may have zero
    entries (0 log 0 = 0), as LP-optimal policies do.
    """
    nu = nu_hat.nu
    p = pi_hat.probs
    q = phi.probs if hasattr(phi, "probs") else np.asarray(phi, dtype=float)
    if np.any(q <= 0):
        raise InvalidInput("phi rows must be strictly positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(q))
    per_state = np.where(p > 0, terms, 0.0).sum(axis=1)
    loss = float(nu @ per_state)
    grad = -nu[:, None] * p / q
    return loss, grad


def error_decomposition(nu_star, pi_star, nu_tilde, nu_hat, pi_hat, phi):
    """Split the plug-in KL error into visitation, estimation and policy parts.

    total = E_{nu*}[KL(pi*|phi)] - E_{nu_hat}[KL(pi_hat|phi)]
          = (A) visitation mismatch nu* vs nu_tilde on KL(pi*|phi)
          + (C) policy mismatch pi* vs pi_hat under nu_tilde
          + (B) estimation error nu_tilde vs nu_hat on KL(pi_hat|phi).
    """
    def avg(nu, pol):
        l, _ = kl_loss_and_grad(nu, pol, phi)
        return l

    term_a = avg(nu_star, pi_star) - avg(nu_tilde, pi_star)
    term_c = avg(nu_tilde, pi_star) - avg(nu_tilde, pi_hat)
    term_b = avg(nu_tilde, pi_hat) - avg(nu_hat, pi_hat)
    total = avg(nu_star, pi_star) - avg(nu_hat, pi_hat)
    return {"A": term_a, "B": term_b, "C": term_c, "total": total}
