#!/usr/bin/env python3
"""Interaction-strength sweep: how fast distributed inference drifts.

For a two-panel Bernoulli model with a cross-block interaction term of
increasing strength, prints the largest interaction residual that the exact
numeric separability check finds on the pair grid, alongside the
total-variation gap between the distributed product posterior and the
full-joint oracle.
"""

import argparse

import numpy as np

from modcoherence.panels import (
    GridDensity,
    bernoulli_loglik,
    compose_product,
    divergence,
    interior_grid,
    joint_oracle,
    panel_joint_loglik,
    panel_update_grid,
    separability_check_numeric,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=101)
    parser.add_argument("--strengths", type=float, nargs="+",
                        default=[0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0])
    args = parser.parse_args()

    grid = interior_grid(args.grid)
    priors = [GridDensity((grid,), np.full(grid.size, 1.0 / grid.size)) for _ in range(2)]
    logliks = [bernoulli_loglik(50, 100), bernoulli_loglik(20, 60)]
    distributed = compose_product(
        [panel_update_grid(p, ll) for p, ll in zip(priors, logliks)]
    )

    print(f"{'strength':>9} {'separable':>10} {'max residual':>13} {'TV gap':>10}")
    for strength in args.strengths:
        joint_ll = panel_joint_loglik(logliks, strength)
        verdict = separability_check_numeric(joint_ll, [grid, grid])
        gap = divergence(distributed, joint_oracle(priors, joint_ll)).total_variation
        print(f"{strength:>9.2f} {str(verdict.separable):>10} "
              f"{verdict.max_residual:>13.3e} {gap:>10.3e}")


if __name__ == "__main__":
    main()
