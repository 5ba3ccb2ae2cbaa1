"""Numerical tolerance settings shared by every decision procedure, and the error a
construction raises when its own result fails them."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Thresholds used by rank decisions, residual checks, and positivity tests.

    rank_cut: relative singular-value cutoff for span/rank decisions.
    residual_tol: Hilbert-Schmidt residual for consistency and map-equality checks.
    psd_slack: how far below zero an eigenvalue may dip and still count as
        positive semidefinite.
    entropy_support_tol: eigenvalue cutoff when taking logarithms of states.
    """

    rank_cut: float = 1e-9
    residual_tol: float = 1e-9
    psd_slack: float = 1e-10
    entropy_support_tol: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("rank_cut", "residual_tol", "psd_slack", "entropy_support_tol"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    @property
    def state_tol(self) -> float:
        """The tolerance of every state test: max(residual_tol, psd_slack)."""
        return max(self.residual_tol, self.psd_slack)


DEFAULT_TOL = ToleranceConfig()


class SelfCheckError(RuntimeError):
    """A construction's check of its own result failed at the tolerances: the input is
    too ill-conditioned for it.  The CLI reports it as an input error (exit 2)."""
