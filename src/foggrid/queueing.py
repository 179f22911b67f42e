"""Analytic M/M/1 formulas, Little's Law, and service-rate calibration.

W here is always the sojourn time (queueing plus service), so that the
standard identity W = 1/(mu - lambda) holds and measured waiting-time
targets can be inverted exactly into service rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FogGridError, shown
from .topology import FLOAT_MAX, NodeId

#: Floor used in the Little's Law residual denominator.
RESIDUAL_EPS = 1e-12


class Unstable(FogGridError):
    """lambda >= mu: the queue has no steady state."""


class NonpositiveTarget(FogGridError):
    """Calibration target waiting time must be positive."""


@dataclass(frozen=True)
class MM1Metrics:
    """Steady-state M/M/1 metrics: sojourn W, population L, utilization rho."""

    W: float
    L: float
    rho: float


@dataclass(frozen=True, slots=True)
class QueueStats:
    """Measured per-node statistics over the post-warmup window.

    lambda_hat is the observed arrival rate, mean_wait_s the mean sojourn
    of completed jobs, mean_in_system the time-average population, and
    utilization the busy fraction. samples counts completed jobs.
    """

    node: NodeId
    lambda_hat: float
    mean_wait_s: float
    mean_in_system: float
    utilization: float
    samples: int


def mm1_analytic(lam: float, mu: float) -> MM1Metrics:
    """Closed-form M/M/1 metrics for arrival rate ``lam``, service rate ``mu``.

    W = 1/(mu - lam), L = lam * W, rho = lam / mu. Requires a finite
    mu > 0 and 0 <= lam < mu; raises Unstable for lam >= mu, at any size.
    """
    if not 0 < mu <= FLOAT_MAX:
        raise ValueError(f"mu must be finite and positive, got {shown(mu)}")
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {shown(lam)}")
    if lam >= mu:
        raise Unstable(f"lambda {shown(lam, str)} >= mu {shown(mu, str)}: queue diverges")
    w = 1.0 / (mu - lam)
    return MM1Metrics(W=w, L=lam * w, rho=lam / mu)


def calibrate_service_rate(target_wait_s: float, lam: float) -> float:
    """The unique mu for which an M/M/1 queue at rate ``lam`` has mean
    sojourn ``target_wait_s``: mu = 1/target + lambda."""
    if not 0 < target_wait_s <= FLOAT_MAX:
        raise NonpositiveTarget(
            f"target waiting time must be finite and positive, got {shown(target_wait_s)}"
        )
    if not 0 <= lam <= FLOAT_MAX:
        raise ValueError(f"lambda must be finite and nonnegative, got {shown(lam)}")
    return 1.0 / target_wait_s + lam


def littles_law_residual(s: QueueStats) -> float:
    """Relative disagreement between L and lambda_hat * W.

    Zero means the measured stats satisfy Little's Law exactly; the
    denominator is floored at RESIDUAL_EPS so the empty system reports 0.
    """
    l_pred = s.lambda_hat * s.mean_wait_s
    return abs(s.mean_in_system - l_pred) / max(s.mean_in_system, RESIDUAL_EPS)
