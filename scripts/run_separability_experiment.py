#!/usr/bin/env python3
"""Interaction-strength sweep: how fast distributed inference drifts.

For a two-panel Bernoulli model with one cross-panel factor over panels 1
and 2 of increasing strength (strength 0 is no factor), prints the largest
interaction residual that the exact numeric separability check finds on the
pair grid, alongside the total-variation gap between the distributed product
posterior and the full-joint oracle.
"""

import argparse

import numpy as np

from modcoherence.panels import (
    Factor,
    GridDensity,
    bernoulli_loglik,
    grid_comparison,
    interior_grid,
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

    print(f"{'strength':>9} {'separable':>10} {'max residual':>13} {'TV gap':>10}")
    for strength in args.strengths:
        factors = (Factor("cross_term", {1, 2}, strength),) if strength else ()
        comparison = grid_comparison(priors, logliks, factors)
        verdict = separability_check_numeric(comparison.joint_ll, [grid, grid])
        gap = comparison.divergence.total_variation
        print(f"{strength:>9.2f} {str(verdict.separable):>10} "
              f"{verdict.max_residual:>13.3e} {gap:>10.3e}")


if __name__ == "__main__":
    main()
