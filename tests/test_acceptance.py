"""End-to-end acceptance suite.

Ten criteria, one test (and one pass/fail line) each. Each test pins its
tolerance and a wall-clock budget; all randomness is seeded so results are
reproducible run to run.
"""

import collections
import time
import warnings

import numpy as np

from metasrl.cmdp import SoftmaxPolicy, all_objectives, visitation_exact
from metasrl.bounds import (contraction_step_count, dynamic_regret_bound,
                            kappa_star, rate_regret_objective,
                            suboptimality_bound, synthetic_kl_stream)
from metasrl.crpo import CrpoConfig, run_crpo
from metasrl.dice import (TrajectoryDataset, dualdice_fit, kl_loss_and_grad,
                          visitation_from_corrections)
from metasrl.errors import DegenerateRun
from metasrl.harness import ExperimentConfig, MetaConfig, run_experiment
from metasrl.lp import solve_optimal_lp
from metasrl.meta import (SimConstants, closed_form_similarity_center,
                          inexact_multi_ogd, inexact_ogd_step,
                          project_table_shrinkage_simplex, sim_loss_and_grad)
from metasrl.taskgen import GridSpec, TaskSequenceConfig

from oracles import (central_difference, dense_kernel, minimize_average_kl,
                     monte_carlo_visitation, quadratic_stream, random_cmdp,
                     value_iteration)


def test_01_lp_oracle_matches_value_iteration():
    """Occupancy LP vs independent value iteration; certified duality gaps."""
    t0 = time.monotonic()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_states = int(rng.integers(4, 7))
        cmdp = random_cmdp(rng, n_states=n_states, n_actions=3)
        relaxed = type(cmdp)(
            kernel=cmdp.kernel, reward=cmdp.reward, costs=cmdp.costs,
            limits=np.array([cmdp.infinite_limit()]), discount=cmdp.discount,
            initial_dist=cmdp.initial_dist, c_max=cmdp.c_max)
        sol = solve_optimal_lp(relaxed)
        assert sol.feasible
        assert abs(sol.objective_values[0] - value_iteration(relaxed)) <= 1e-6
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        cmdp = random_cmdp(rng, n_states=int(rng.integers(4, 7)),
                           feasible_margin=float(rng.random() * 0.2))
        sol = solve_optimal_lp(cmdp)
        assert sol.feasible
        assert sol.duality_gap <= 1e-8
    assert time.monotonic() - t0 < 30.0


def test_02_exact_visitation_matches_monte_carlo():
    """Closed-form discounted visitation vs 1e5 sampled rollouts."""
    t0 = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, n_states=int(rng.integers(3, 6)),
                           n_actions=int(rng.integers(2, 4)))
        pol = SoftmaxPolicy(logits=rng.standard_normal(
            (cmdp.n_states, cmdp.n_actions)))
        nu = visitation_exact(cmdp, pol).nu
        nu_mc = monte_carlo_visitation(cmdp, pol.probs, 100_000, seed=seed)
        tv = 0.5 * np.abs(nu - nu_mc).sum()
        assert tv <= 0.02
    assert time.monotonic() - t0 < 60.0


def test_03_crpo_averaged_iterate_meets_its_bound():
    """Gap and violation of the averaged exact-critic run stay under the
    closed-form suboptimality bound, with the gate tolerance set to it."""
    t0 = time.monotonic()
    m_steps = 4000
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        cmdp = random_cmdp(rng, n_states=4, n_actions=3, gamma=0.8,
                           feasible_margin=float(rng.random() * 0.1))
        sol = solve_optimal_lp(cmdp)
        kl = np.log(cmdp.n_actions)  # uniform init upper-bounds the true KL
        slope = 4.0 * cmdp.c_max ** 2 * 12 / (1 - cmdp.discount) ** 3
        alpha = float(np.sqrt(2.0 * kl / (m_steps * slope)))
        bound = suboptimality_bound(alpha, m_steps, kl, cmdp.discount,
                                    cmdp.c_max, 4, 3)
        cfg = CrpoConfig(learning_rate=alpha, steps=m_steps, tolerance=bound,
                         episodes_per_step=1, episode_horizon=2, rng_seed=0)
        out = run_crpo(cmdp, SoftmaxPolicy.uniform(4, 3), cfg)
        # every iterate's exact objectives, as run_crpo computed them; the
        # returned one is checked against a fresh evaluation
        snap_j = out.iterate_objectives[list(out.reward_steps)]
        assert np.array_equal(out.returned_objectives,
                              all_objectives(cmdp, out.returned_policy))
        # exact critic makes the iterate path seed-invariant, so 50 seeds
        # differ only in which reward-step snapshot they return
        draws = np.array([
            snap_j[np.random.default_rng(s).integers(len(out.reward_steps))]
            for s in range(50)])
        mean_j = draws.mean(axis=0)
        gap = sol.objective_values[0] - mean_j[0]
        violation = max(0.0, float(mean_j[1] - cmdp.limits[0]))
        assert gap <= bound
        assert violation <= bound
    assert time.monotonic() - t0 < 300.0


def test_04_dice_exact_recovery_and_sample_trend():
    """DirectSolve is exact on exact-expectation systems; plug-in KL error
    median shrinks monotonically with dataset size."""
    t0 = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng, n_states=int(rng.integers(3, 5)))
        behavior = SoftmaxPolicy.uniform(cmdp.n_states, cmdp.n_actions)
        target = SoftmaxPolicy(logits=rng.standard_normal(
            (cmdp.n_states, cmdp.n_actions)))
        d_sa = visitation_exact(cmdp, behavior).nu[:, None] * behavior.probs
        ds = TrajectoryDataset.from_distribution(d_sa, cmdp.kernel,
                                                 cmdp.initial_dist)
        corr = dualdice_fit(ds, target, cmdp.discount)
        nu_sa = visitation_exact(cmdp, target).nu[:, None] * target.probs
        assert np.max(np.abs(corr.omega - nu_sa / d_sa)) <= 1e-6

    def kl_error(seed, n):
        rng = np.random.default_rng(seed)
        cmdp = random_cmdp(rng)
        behavior = SoftmaxPolicy.uniform(4, 3)
        target = SoftmaxPolicy(logits=rng.standard_normal((4, 3)))
        phi = rng.dirichlet(np.ones(3), size=4) * 0.9 + 0.1 / 3
        flat = (visitation_exact(cmdp, behavior).nu[:, None] * behavior.probs).reshape(-1)
        idx = rng.choice(12, size=n, p=flat)
        s, a = idx // 3, idx % 3
        transition = dense_kernel(cmdp.kernel)
        s_next = np.array([rng.choice(4, p=transition[s[i], a[i]])
                           for i in range(n)])
        ds = TrajectoryDataset.from_samples(
            4, 3, s=s, a=a, s_next=s_next,
            initial_states=rng.choice(4, size=max(10, n // 10),
                                      p=cmdp.initial_dist))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            corr = dualdice_fit(ds, target, cmdp.discount)
            nu_hat = visitation_from_corrections(ds, corr)
        l_hat, _ = kl_loss_and_grad(nu_hat.nu, target.probs, phi)
        l_true, _ = kl_loss_and_grad(visitation_exact(cmdp, target).nu,
                                     target.probs, phi)
        return abs(l_hat - l_true)

    medians = [float(np.median([kl_error(100 + s, n) for s in range(31)]))
               for n in (50, 200, 800)]
    assert medians[0] > medians[1] > medians[2]
    assert time.monotonic() - t0 < 180.0


def test_05_online_init_learning_regret_is_sublinear():
    """Averaged regret of projected OGD on exact KL-loss streams drops by
    more than half going from horizon 50 to horizon 200, on all 10 seeds."""
    t0 = time.monotonic()
    s_n, a_n, shrink = 3, 3, 1e-2

    def averaged_regret(stream, horizon):
        nus, pis = (x[:horizon] for x in stream)
        beta = 5.0 / np.sqrt(horizon)
        x = np.full((s_n, a_n), 1.0 / a_n)
        proj = lambda tab: project_table_shrinkage_simplex(tab, shrink)
        total = 0.0
        for nu, pi in zip(nus, pis):
            loss, grad = kl_loss_and_grad(nu, pi, x)
            total += loss
            x = inexact_ogd_step(x, grad, beta, proj)
        _, best = closed_form_similarity_center(nus, pis, shrink)
        return (total - horizon * best.mean()) / horizon

    for seed in range(10):
        center = np.random.default_rng(seed + 500).dirichlet(
            np.full(a_n, 0.3), size=s_n)
        stream = synthetic_kl_stream(s_n, a_n, 200, dispersion=0.02,
                                     seed=seed, shrink=shrink, center=center)
        ratio = averaged_regret(stream, 200) / averaged_regret(stream, 50)
        assert ratio < 0.5
    assert time.monotonic() - t0 < 60.0


def test_06_multi_step_tracking_stays_under_dynamic_bound():
    """Projected multi-step OGD with controlled gradient inexactness on
    drifting strongly convex losses: measured dynamic regret is below the
    explicit-constant bound on all 20 seeds."""
    t0 = time.monotonic()
    lam = l2 = 1.0
    dim, box, t_tasks = 3, 5.0, 20
    l1 = lam * 2.0 * box * np.sqrt(dim)       # gradient bound on the box
    alpha = 1.0 / (2.0 * l2)
    k = contraction_step_count(lam, alpha)
    c_sub = 2.0 * l2
    proj = lambda z: np.clip(z, -box, box)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        stream = quadratic_stream(dim, t_tasks, lam, drift=0.1, seed=seed,
                                  box=box)
        eps = rng.random(t_tasks) * 0.01
        x = np.zeros(dim)
        x1_gap = float(np.linalg.norm(x - stream[0][0]))
        regret = path = sq_path = 0.0
        prev = None
        for t, (target, loss, grad) in enumerate(stream):
            regret += loss(x) - loss(target)
            if prev is not None:
                d = float(np.linalg.norm(target - prev))
                path += d
                sq_path += d * d
            prev = target
            noise = rng.standard_normal(dim)
            noise *= np.sqrt(c_sub * eps[t]) / np.linalg.norm(noise)
            x = inexact_multi_ogd(
                x, lambda z, g=grad, e=noise: g(z) + e, alpha, k, proj)
        bound = dynamic_regret_bound(
            l1, l2, lam, beta=l2, alpha=alpha, c_sub=c_sub, x1_gap=x1_gap,
            path=path, sq_path=sq_path, inexact_sum=float(eps.sum()),
            inexact_tilde_sum=float(np.sqrt(eps).sum()), grad_sq_sum=0.0)
        assert regret <= bound
    assert time.monotonic() - t0 < 60.0


def test_07_analytic_rate_matches_grid_search():
    """Closed-form hindsight learning rate vs brute-force grid argmin."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(50):
        constants = SimConstants.from_problem(
            gamma=float(rng.uniform(0.5, 0.99)),
            c_max=float(rng.uniform(0.5, 3.0)),
            n_states=int(rng.integers(2, 20)),
            n_actions=int(rng.integers(2, 6)))
        u = float(rng.uniform(0.1, 10.0))
        inex = float(rng.uniform(0.0, 5.0))
        t_tasks = int(rng.integers(2, 50))
        v_sq = float(rng.uniform(0.0, 2.0))
        m = int(rng.integers(10, 1000))
        ks = kappa_star(u, inex, t_tasks, v_sq, m, constants)
        grid = np.geomspace(ks / 10.0, ks * 10.0, 200_001)
        objective = lambda g: rate_regret_objective(
            float(g), u, inex, t_tasks, v_sq, m, constants)
        obj = (u + inex + t_tasks * v_sq) / grid \
            + grid * (constants.c2 * m + constants.c4 * np.sqrt(m))
        best = float(grid[np.argmin(obj)])
        assert abs(ks - best) / best <= 1e-4
        assert objective(ks) <= objective(best) * (1.0 + 1e-12)
    assert time.monotonic() - t0 < 10.0


def test_08_similarity_center_matches_numerical_minimizer():
    """Closed-form best-in-hindsight initialization vs constrained solver."""
    t0 = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t_n = int(rng.integers(3, 8))
        s_n = int(rng.integers(2, 5))
        a_n = int(rng.integers(2, 4))
        history = [(rng.dirichlet(np.ones(s_n)),
                    rng.dirichlet(np.ones(a_n), size=s_n)) for _ in range(t_n)]
        nus, pis = (np.array(x) for x in zip(*history))
        _, kl = closed_form_similarity_center(nus, pis, shrink=1e-4)
        d_sq = kl.mean()
        ref = minimize_average_kl(nus, pis, shrink=1e-4)
        assert abs(d_sq - ref) <= 1e-6
    assert time.monotonic() - t0 < 30.0


# the strategy comparison of test_09; examples/test09.json holds the same config
TEST09_CONFIG = ExperimentConfig(
    task_source=TaskSequenceConfig(
        mode="HighSimilarity", num_tasks=11, base=GridSpec(seed=2), seed=2),
    strategies=("Random", "Pretrained", "SimpleAverage", "FAL", "MetaSrl"),
    runs_per_strategy=10,
    crpo=CrpoConfig(learning_rate=1.0, steps=8, tolerance=0.05,
                    episodes_per_step=5, episode_horizon=60),
    meta=MetaConfig(ogd_step_init=0.5),
    master_seed=0)


def test_09_meta_learning_beats_baselines_on_similar_tasks():
    """Shared-structure gridworld sequence: the meta learner's optimality gap
    shrinks over tasks, and on the held-out task its final constraint
    violation is no worse than any baseline while matching Random's reward."""
    t0 = time.monotonic()
    config = TEST09_CONFIG
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records, _ = run_experiment(config)

    per_task = collections.defaultdict(list)
    for rec in records:
        if rec.strategy == "MetaSrl" and not rec.is_test and rec.error is None:
            per_task[rec.task_index].append(rec.taog_contribution)
    means = {t: float(np.mean(v)) for t, v in per_task.items()}
    first_half = np.mean([means[t] for t in range(5)])
    second_half = np.mean([means[t] for t in range(5, 10)])
    assert second_half < first_half

    final = {}
    for strategy in config.strategies:
        group = [r for r in records if r.strategy == strategy and r.is_test]
        assert len(group) == 10
        limit = GridSpec().cost_limit
        final[strategy] = (
            float(np.median([r.per_step_reward[-1] for r in group])),
            float(np.median([max(0.0, r.per_step_costs[-1, 0] - limit)
                             for r in group])))
    meta_reward, meta_violation = final["MetaSrl"]
    for strategy in config.strategies:
        assert meta_violation <= final[strategy][1] + 1e-12
    assert meta_reward >= final["Random"][0]
    assert time.monotonic() - t0 < 1200.0


def test_10_analytic_gradients_match_finite_differences():
    """KL-loss and rate-loss gradients vs central differences."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(100):
        s_n = int(rng.integers(2, 5))
        a_n = int(rng.integers(2, 4))
        nu = rng.dirichlet(np.ones(s_n))
        pi = rng.dirichlet(np.ones(a_n), size=s_n)
        phi = 0.1 + rng.dirichlet(np.ones(a_n), size=s_n)
        phi /= phi.sum(axis=1, keepdims=True)
        _, grad = kl_loss_and_grad(nu, pi, phi)
        fd = central_difference(
            lambda q: kl_loss_and_grad(nu, pi, q)[0], phi)
        scale = max(float(np.max(np.abs(fd))), 1.0)
        assert np.max(np.abs(grad - fd)) / scale <= 1e-5
    for _ in range(100):
        constants = SimConstants.from_problem(
            gamma=float(rng.uniform(0.5, 0.95)), c_max=1.0,
            n_states=int(rng.integers(2, 6)), n_actions=3)
        kappa = float(rng.uniform(0.05, 2.0))
        kl = float(rng.uniform(0.0, 3.0))
        m = int(rng.integers(5, 200))
        _, grad = sim_loss_and_grad(kappa, kl, m, constants)
        fd = central_difference(
            lambda k: sim_loss_and_grad(float(k[0]), kl, m, constants)[0],
            np.array([kappa]), step=1e-7 * max(kappa, 1.0))
        assert abs(grad - fd[0]) / max(abs(fd[0]), 1.0) <= 1e-5
    assert time.monotonic() - t0 < 5.0
