"""EV roaming-charging protocol: identity resolution, charging, billing.

A vehicle plugs into an outlet it does not own. The outlet's meter sends a
private charge request through the network to the vehicle owner's home
meter; once the owner's identity round-trips back, charging proceeds and
the consumption is debited to the vehicle owner's account, never the
outlet owner's.

Sessions are immutable values: every transition returns a new session, and
only the transitions declared in TRANSITIONS exist. ChargingSession._advance
is the one place that checks them; out-of-order calls raise InvalidState.

This module also builds both protocol messages, the request
(:func:`request_message`) and the approval (:func:`approval_message`).
resolve_owner returns only the request's route, so a caller that does not
record messages never builds either; the approval travels the request
route reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import FogGridError, shown
from .messages import (
    CHARGE_REQUEST,
    IDENTITY_TOKEN,
    DataClass,
    Message,
    NoRoute,
    Payload,
    Route,
    RoutePattern,
    check_keyholders,
    resolve_route,
    seal,
)
from .topology import FLOAT_MAX, NodeId, Tier, Topology


#: Payload bytes of the outlet's charge request and the owner's approval.
REQUEST_BYTES = 128
APPROVAL_BYTES = 64


class UnknownOutlet(FogGridError):
    """The outlet meter is not a device-tier node of the topology."""


class InvalidState(FogGridError):
    """A session transition was attempted out of order."""


class NegativeEnergy(FogGridError):
    """Metered energy must be nonnegative."""


class NonpositiveTariff(FogGridError):
    """Billing requires a positive tariff."""


@dataclass(frozen=True)
class MeterIdentity:
    """A home meter and the account of the party who owns it."""

    meter: NodeId
    owner_account: str


#: vehicle_id -> home meter identity. Scenario data; the protocol only
#: reads it.
VehicleRegistry = Mapping[str, MeterIdentity]


class SessionState(Enum):
    REQUESTED = "requested"
    OWNER_RESOLVED = "owner-resolved"
    AUTHORIZED = "authorized"
    CHARGING = "charging"
    METERED = "metered"
    BILLED = "billed"
    REJECTED = "rejected"


#: The only legal forward edges of the session state machine. Any
#: pre-billed state may additionally transition to REJECTED.
TRANSITIONS: frozenset[tuple[SessionState, SessionState]] = frozenset(
    {
        (SessionState.REQUESTED, SessionState.OWNER_RESOLVED),
        (SessionState.OWNER_RESOLVED, SessionState.AUTHORIZED),
        (SessionState.AUTHORIZED, SessionState.CHARGING),
        (SessionState.CHARGING, SessionState.METERED),
        (SessionState.METERED, SessionState.BILLED),
    }
)


# Every legal edge, REJECTED ones included, by member name: a pair of
# ``_name_`` strings hashes in C, where an Enum member hashes through a
# Python-level ``__hash__`` (and ``.name`` is a property).
_LEGAL_EDGES = frozenset((a._name_, b._name_) for a, b in TRANSITIONS) | frozenset(
    (a._name_, SessionState.REJECTED._name_)
    for a in SessionState
    if a not in (SessionState.BILLED, SessionState.REJECTED)
)


def is_legal_transition(a: SessionState, b: SessionState) -> bool:
    return (a._name_, b._name_) in _LEGAL_EDGES


def _record(cls, fields: dict, changes: Optional[dict] = None):
    """An instance of the frozen dataclass ``cls`` whose fields are
    ``fields`` updated by ``changes``; ``fields`` must name every field.
    Skips the frozen ``__init__``, which sets each field through
    ``object.__setattr__``; the result is as frozen as any other."""
    obj = object.__new__(cls)
    attrs = obj.__dict__
    attrs.update(fields)
    if changes:
        attrs.update(changes)
    return obj


@dataclass(frozen=True)
class ChargingSession:
    """One roaming-charge attempt, from request to bill (or rejection)."""

    session_id: int
    vehicle_id: str
    outlet_meter: NodeId
    state: SessionState
    owner_meter: Optional[NodeId] = None
    route_pattern: Optional[RoutePattern] = None
    energy_kwh: float = 0.0
    started_at: Optional[float] = None
    ended_at: Optional[float] = None
    reject_reason: Optional[str] = None

    def _advance(self, new_state: SessionState, **changes) -> "ChargingSession":
        # is_legal_transition, inlined: this runs on every session step.
        if (self.state._name_, new_state._name_) not in _LEGAL_EDGES:
            raise InvalidState(
                f"session {shown(self.session_id, str)}: cannot go from "
                f"{self.state.value} to {new_state.value}"
            )
        changes["state"] = new_state
        return _record(ChargingSession, self.__dict__, changes)


@dataclass(frozen=True)
class BillRecord:
    """The settled bill: energy debited to the vehicle owner's account."""

    session_id: int
    debited_account: str
    energy_kwh: float
    amount: float
    tariff_per_kwh: float


def initiate_session(
    session_id: int,
    vehicle_id: str,
    outlet_meter: NodeId,
    registry: VehicleRegistry,
    t: Topology,
) -> ChargingSession:
    """Open a session in state REQUESTED at a device-tier outlet.

    If the vehicle is registered, its home meter is recorded immediately
    (for a vehicle at its own meter this already equals the outlet); the
    network confirmation is deferred to resolve_owner.
    """
    by_id = t.by_id()
    node = by_id.get(outlet_meter)
    if node is None or node.tier is not Tier.DEVICE:
        raise UnknownOutlet(
            f"outlet {shown(outlet_meter, str)} is not a device-tier node of the topology"
        )
    identity = registry.get(vehicle_id)
    return _record(
        ChargingSession,
        {
            "session_id": session_id,
            "vehicle_id": vehicle_id,
            "outlet_meter": outlet_meter,
            "state": SessionState.REQUESTED,
            "owner_meter": identity.meter if identity is not None else None,
            "route_pattern": None,
            "energy_kwh": 0.0,
            "started_at": None,
            "ended_at": None,
            "reject_reason": None,
        },
    )


def resolve_owner(
    s: ChargingSession, registry: VehicleRegistry, t: Topology
) -> tuple[ChargingSession, Optional[Route]]:
    """Resolve the vehicle's home meter through the network.

    Resolves the route of the private ChargeRequest from the outlet to the
    owner meter; :func:`request_message` builds the message itself. On
    success the session moves to OWNER_RESOLVED and records the route
    pattern used; the caller decides when the request is actually
    delivered. An unregistered vehicle or an unroutable owner rejects the
    session. A vehicle charging at its own meter resolves without any
    message (degenerate same-meter case) and with no route. A fog-tier
    owner raises FogKeyholderForbidden, as sealing the request would.
    """
    if s.state is not SessionState.REQUESTED:
        raise InvalidState(
            f"session {shown(s.session_id, str)}: resolve_owner requires state requested, "
            f"found {s.state.value}"
        )
    identity = registry.get(s.vehicle_id)
    if identity is None:
        return (
            s._advance(
                SessionState.REJECTED,
                reject_reason=f"vehicle {s.vehicle_id!r} not in registry",
            ),
            None,
        )
    owner = identity.meter
    if owner == s.outlet_meter:
        resolved = s._advance(
            SessionState.OWNER_RESOLVED,
            owner_meter=owner,
            route_pattern=RoutePattern.COM_A,
        )
        return resolved, None

    try:
        route = resolve_route(s.outlet_meter, owner, t)
    except NoRoute as exc:
        return (
            s._advance(SessionState.REJECTED, reject_reason=str(exc)),
            None,
        )
    check_keyholders((s.outlet_meter, owner), t)
    resolved = s._advance(
        SessionState.OWNER_RESOLVED,
        owner_meter=owner,
        route_pattern=route.pattern,
    )
    return resolved, route


def request_message(
    s: ChargingSession, t: Topology, message_id: int, at_s: float
) -> Message:
    """The outlet meter's private charge request to the owner meter, for a
    session resolve_owner has resolved over the network."""
    body = {"vehicle_id": s.vehicle_id, "session_id": s.session_id}
    request = Payload(kind=CHARGE_REQUEST, bytes_size=REQUEST_BYTES, body=body)
    return _sealed_message(request, s.outlet_meter, s.owner_meter, t, message_id, at_s)


def approval_message(
    s: ChargingSession, t: Topology, message_id: int, at_s: float
) -> Message:
    """The owner meter's identity confirmation, sent back to the outlet
    once the charge request arrives, along the request route reversed."""
    body = {"vehicle_id": s.vehicle_id}
    token = Payload(kind=IDENTITY_TOKEN, bytes_size=APPROVAL_BYTES, body=body)
    return _sealed_message(token, s.owner_meter, s.outlet_meter, t, message_id, at_s)


def _sealed_message(
    p: Payload, src: NodeId, dst: NodeId, t: Topology, message_id: int, at_s: float
) -> Message:
    """``p`` as a private message that only ``src`` and ``dst`` can open."""
    envelope = seal(p, {src, dst}, t)
    return Message(
        id=message_id,
        src=src,
        dst=dst,
        data_class=DataClass.PRIVATE,
        content=envelope,
        created_at=at_s,
    )


def authorize(s: ChargingSession) -> ChargingSession:
    """Advance OWNER_RESOLVED -> AUTHORIZED.

    Authorization is automatic on identity match; an explicit owner
    approval step would hook in here.
    """
    return s._advance(SessionState.AUTHORIZED)


def start_charging(s: ChargingSession, at_s: float) -> ChargingSession:
    """Advance AUTHORIZED -> CHARGING and stamp the start time."""
    return s._advance(SessionState.CHARGING, started_at=at_s)


def meter_energy(
    s: ChargingSession, delivered_kwh: float, at_s: Optional[float] = None
) -> ChargingSession:
    """Record the delivered energy and advance to METERED.

    Accepts AUTHORIZED (stepping through CHARGING) or CHARGING.
    """
    if not 0 <= delivered_kwh <= FLOAT_MAX:
        raise NegativeEnergy(f"delivered kWh must be finite and >= 0, got {shown(delivered_kwh)}")
    if s.state is SessionState.AUTHORIZED:
        s = s._advance(SessionState.CHARGING, started_at=at_s)
    return s._advance(SessionState.METERED, energy_kwh=delivered_kwh, ended_at=at_s)


def settle_bill(
    s: ChargingSession, tariff_per_kwh: float, registry: VehicleRegistry
) -> tuple[ChargingSession, BillRecord]:
    """Debit the metered energy to the vehicle owner's account."""
    if not 0 < tariff_per_kwh <= FLOAT_MAX:
        raise NonpositiveTariff(f"tariff must be finite and positive, got {shown(tariff_per_kwh)}")
    billed = s._advance(SessionState.BILLED)
    identity = registry.get(s.vehicle_id)
    if identity is None:
        raise InvalidState(
            f"session {shown(s.session_id, str)}: vehicle {s.vehicle_id!r} missing from "
            "registry at settlement"
        )
    bill = _record(
        BillRecord,
        {
            "session_id": s.session_id,
            "debited_account": identity.owner_account,
            "energy_kwh": s.energy_kwh,
            "amount": s.energy_kwh * tariff_per_kwh,
            "tariff_per_kwh": tariff_per_kwh,
        },
    )
    return billed, bill


def reject_session(s: ChargingSession, reason: str) -> ChargingSession:
    """Reject from any pre-billed state."""
    return s._advance(SessionState.REJECTED, reject_reason=reason)
