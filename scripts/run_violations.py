#!/usr/bin/env python3
"""Sweep the repolarizer strength and tabulate the inequality violations.

For each epsilon the repolarizer multiplies trace-norm distances of
positive-domain pairs by exactly 1/epsilon and amplifies relative entropy by
at least the same factor, while its inverse (the depolarizing channel) stays
contractive.
"""

import argparse

import numpy as np

from beyondcp.catalog import (
    RepolarizerParams,
    _require_checkable_epsilon,
    _smallest_state_checkable_epsilon,
    ball_pair,
    contractivity_ratio,
    depolarizer,
    interior_ball_pair,
    repolarizer,
    uhlmann_check,
)
from beyondcp.cli import _positive_int
from beyondcp.config import DEFAULT_TOL


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 0.25, 0.1, 0.05])
    parser.add_argument("--pairs", type=_positive_int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    floor = _smallest_state_checkable_epsilon(DEFAULT_TOL)
    for eps in args.epsilons:  # refused as `beyondcp violations --epsilon` refuses them
        try:
            _require_checkable_epsilon("--epsilons", eps, floor, DEFAULT_TOL)
            RepolarizerParams(eps)
        except ValueError as err:
            parser.error(str(err))

    print(f"{'eps':>6} {'1/eps':>8} {'trace-norm ratio':>18} {'uhlmann min ratio':>18} {'cptp control max':>17}")
    for eps in args.epsilons:
        rng = np.random.default_rng(args.seed)
        phi = repolarizer(eps)
        inverse = depolarizer(eps)
        contraction = [
            contractivity_ratio(phi, *ball_pair(eps, rng), p=1) for _ in range(args.pairs)
        ]
        uhlmann = [
            uhlmann_check(phi, *interior_ball_pair(eps, rng)).ratio
            for _ in range(args.pairs)
        ]
        control = [
            contractivity_ratio(inverse, *ball_pair(1.0, rng), p=1)
            for _ in range(args.pairs)
        ]
        contraction = [r for r in contraction if r is not None]
        uhlmann = [r for r in uhlmann if r is not None]
        control = [r for r in control if r is not None]
        # at small epsilon every input entropy is at noise level, so no ratio is defined
        uhlmann_min = f"{min(uhlmann):>18.6f}" if uhlmann else f"{'undefined':>18}"
        print(
            f"{eps:>6.3f} {1 / eps:>8.2f} {np.mean(contraction):>18.6f} "
            f"{uhlmann_min} {max(control):>17.6f}"
        )


if __name__ == "__main__":
    main()
