#!/usr/bin/env python3
"""Trace averaged regret of the initialization learner on synthetic streams.

Runs projected online gradient descent on exact visitation-weighted KL
losses for a range of horizons and writes regret(T)/T per horizon and seed
as CSV, one row per (seed, horizon). Tighter streams (lower dispersion)
should show faster decay.

Example:
    python3 scripts/regret_curves.py --dispersion 0.1 --out regret.csv
"""

import argparse

import numpy as np

from metasrl.dice import kl_loss_and_grad
from metasrl.meta import (closed_form_similarity_center, inexact_ogd_step,
                          project_table_shrinkage_simplex)
from metasrl.taskgen import synthetic_kl_stream


def averaged_regret(nus, pis, horizon, step_scale, shrink):
    """Regret(T)/T of OGD from uniform on the first `horizon` tasks of a
    (nus, pis) stream, against the best fixed initialization."""
    nus, pis = nus[:horizon], pis[:horizon]
    beta = step_scale / np.sqrt(horizon)
    x = np.full(pis.shape[1:], 1.0 / pis.shape[2])
    total = 0.0
    for nu, pi in zip(nus, pis):
        loss, grad = kl_loss_and_grad(nu, pi, x)
        total += loss
        x = inexact_ogd_step(
            x, grad, beta, lambda t: project_table_shrinkage_simplex(t, shrink))
    _, best = closed_form_similarity_center(nus, pis, shrink)
    return (total - horizon * best.mean()) / horizon


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--dispersion", type=float, default=0.1)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--actions", type=int, default=3)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--step-scale", type=float, default=5.0)
    parser.add_argument("--shrink", type=float, default=1e-2)
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[25, 50, 100, 200])
    args = parser.parse_args()

    max_t = max(args.horizons)
    with open(args.out, "w") as fh:
        fh.write("seed,horizon,averaged_regret\n")
        for seed in range(args.seeds):
            nus, pis = synthetic_kl_stream(args.states, args.actions, max_t,
                                           dispersion=args.dispersion,
                                           seed=seed, shrink=args.shrink)
            for horizon in args.horizons:
                value = averaged_regret(nus, pis, horizon, args.step_scale,
                                        args.shrink)
                fh.write(f"{seed},{horizon},{value:.17g}\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
