#!/usr/bin/env python3
"""Sweep the repolarizer strength and tabulate the inequality violations.

For each epsilon the repolarizer multiplies trace-norm distances of
positive-domain pairs by exactly 1/epsilon and amplifies relative entropy by
at least the same factor, while its inverse (the depolarizing channel) stays
contractive.  Each row tabulates the ratios that
``beyondcp violations --epsilon eps --pairs N --seed S`` reports: both draw
them with ``catalog._violation_sample``.
"""

import argparse

import numpy as np

from beyondcp.catalog import (
    RepolarizerParams,
    _require_checkable_epsilon,
    _smallest_state_checkable_epsilon,
    _violation_sample,
)
from beyondcp.cli import _positive_int, _seed
from beyondcp.config import DEFAULT_TOL


def _cell(value: float, decimals: int, width: int) -> str:
    """``value`` right-aligned in ``width`` characters: with ``decimals`` decimals,
    or in exponent form where those would outgrow the column."""
    text = f"{value:.{decimals}f}"
    if len(text) > width:
        text = f"{value:.{min(decimals, width - 6)}e}"  # d.<n digits>e+XX is n + 6 wide
    return f"{text:>{width}}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 0.25, 0.1, 0.05])
    parser.add_argument("--pairs", type=_positive_int, default=20)
    parser.add_argument("--seed", type=_seed, default=0)
    args = parser.parse_args()
    floor = _smallest_state_checkable_epsilon(DEFAULT_TOL)
    for eps in args.epsilons:  # refused as `beyondcp violations --epsilon` refuses them
        try:
            _require_checkable_epsilon("--epsilons", eps, floor, DEFAULT_TOL)
            RepolarizerParams(eps)
        except ValueError as err:
            parser.error(str(err))

    print(f"{'eps':>11} {'1/eps':>8} {'trace-norm ratio':>18} {'uhlmann min ratio':>18} {'cptp control max':>17}")
    for eps in args.epsilons:
        contraction, uhlmann, _, control = _violation_sample(
            eps, args.pairs, np.random.default_rng(args.seed), DEFAULT_TOL
        )
        # at small epsilon every input entropy is at noise level, so no ratio is defined
        uhlmann_min = _cell(min(uhlmann), 6, 18) if uhlmann else f"{'undefined':>18}"
        print(
            f"{eps:>11g} {_cell(1 / eps, 2, 8)} {_cell(np.mean(contraction), 6, 18)} "
            f"{uhlmann_min} {_cell(max(control), 6, 17)}"
        )


if __name__ == "__main__":
    main()
