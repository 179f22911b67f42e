"""Power accounting, battery storage, microgrid mode, and the N log N
processing-time model."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import FogGridError, shown
from .topology import FLOAT_MAX, DeviceSpec, NodeId


class NegativeDuration(FogGridError):
    """Durations accrued into an energy ledger must be nonnegative."""


class NonpositiveN(FogGridError):
    """The processing-time model is defined for n >= 1 only."""


class OverCapacity(FogGridError):
    """A charge would push the battery above its capacity."""


class Underflow(FogGridError):
    """A discharge would drain the battery below zero; fall back to grid
    supply."""


@dataclass(frozen=True, slots=True)
class EnergyLedger:
    """Accumulated active/idle time and energy (millijoules) for one node."""

    node: NodeId
    active_time_s: float = 0.0
    idle_time_s: float = 0.0
    energy_mj: float = 0.0


def accrue_energy(
    ledger: EnergyLedger, spec: DeviceSpec, active_s: float, idle_s: float
) -> EnergyLedger:
    """Add ``active_s`` seconds at active power and ``idle_s`` at idle power.

    Returns a new ledger; accrual is commutative and additive over
    disjoint intervals.
    """
    if not (0 <= active_s <= FLOAT_MAX and 0 <= idle_s <= FLOAT_MAX):
        raise NegativeDuration(
            f"durations must be finite and nonnegative, got active={shown(active_s)} "
            f"idle={shown(idle_s)}"
        )
    added = active_s * spec.power_active_mw + idle_s * spec.power_idle_mw
    return EnergyLedger(
        ledger.node,
        ledger.active_time_s + active_s,
        ledger.idle_time_s + idle_s,
        ledger.energy_mj + added,
    )


@dataclass(frozen=True)
class ProcessingModel:
    """Data-processing time model T(n) = c_ms * n * log2(n)."""

    c_ms: float = 1.0


def processing_time(m: ProcessingModel, n: int) -> float:
    """Milliseconds to process a data set of size ``n``; T(1) = 0. Past
    the float range the time is ``inf``, as it already is for an ``n``
    just inside it; a nan ``n`` is rejected."""
    if not n >= 1:
        raise NonpositiveN(f"data-set size must be >= 1, got {shown(n)}")
    if n > FLOAT_MAX:  # an int ``n`` too large for a float
        return math.inf
    return m.c_ms * n * math.log2(n)


@dataclass(frozen=True)
class BessState:
    """Battery energy storage system: capacity, state of charge, and
    charging efficiency (fraction of charged energy actually stored)."""

    capacity_kwh: float
    soc_kwh: float = 0.0
    efficiency: float = 1.0


def bess_charge(b: BessState, energy_kwh: float) -> BessState:
    """Store ``energy_kwh * efficiency`` into the battery."""
    if not 0 <= energy_kwh <= FLOAT_MAX:
        raise ValueError(f"charge energy must be finite and >= 0, got {shown(energy_kwh)}")
    new_soc = b.soc_kwh + energy_kwh * b.efficiency
    if new_soc > b.capacity_kwh:
        raise OverCapacity(
            f"charging {energy_kwh} kWh would raise soc to {new_soc} kWh, "
            f"above capacity {b.capacity_kwh} kWh"
        )
    return replace(b, soc_kwh=new_soc)


def bess_charge_curtailed(b: BessState, energy_kwh: float) -> BessState:
    """Store ``energy_kwh * efficiency`` into the battery, curtailing
    whatever would exceed its capacity."""
    if not 0 <= energy_kwh <= FLOAT_MAX:
        raise ValueError(f"charge energy must be finite and >= 0, got {shown(energy_kwh)}")
    stored = min(energy_kwh * b.efficiency, b.capacity_kwh - b.soc_kwh)
    return BessState(b.capacity_kwh, b.soc_kwh + stored, b.efficiency)


def bess_discharge(b: BessState, energy_kwh: float) -> BessState:
    """Draw ``energy_kwh`` from the battery."""
    if not 0 <= energy_kwh <= FLOAT_MAX:
        raise ValueError(f"discharge energy must be finite and >= 0, got {shown(energy_kwh)}")
    new_soc = b.soc_kwh - energy_kwh
    if new_soc < 0:
        raise Underflow(
            f"discharging {energy_kwh} kWh would drain soc {b.soc_kwh} kWh "
            "below zero"
        )
    return BessState(b.capacity_kwh, new_soc, b.efficiency)


class MicrogridMode(Enum):
    GRID_CONNECTED = "grid-connected"
    AUTONOMOUS = "autonomous"


def mode_transition(mode: MicrogridMode, grid_available: bool) -> MicrogridMode:
    """Next operating mode: islanded when the main grid is unavailable,
    grid-connected when it is. Pure function of the inputs."""
    del mode  # the next mode depends only on grid availability
    return MicrogridMode.GRID_CONNECTED if grid_available else MicrogridMode.AUTONOMOUS
