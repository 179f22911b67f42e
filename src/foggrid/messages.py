"""Payload classification, sealing, and tier-respecting route resolution.

Consumer data is split into private and public classes. Private payloads
travel inside sealed envelopes that only the designated keyholders can
open; fog gateways forward and store envelopes but are never keyholders,
so no private plaintext ever exists at the fog tier. Sealing is a model
(opaque wrapper plus keyholder set), not cryptography: the confidentiality
property is what matters, and what the tests assert.

Routes follow the tier hierarchy strictly upward then downward. Four
patterns exist in fog mode: device-to-device inside one area (ComA),
device-to-gateway (ComB), gateway-to-gateway over a fog link (ComC), and
paths that climb through the cloud (ComD). In cloud-only mode everything
relays through the cloud (CloudDirect).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

from .errors import FogGridError, shown
from .topology import Mode, Node, NodeId, Tier, Topology

# Canonical payload kinds. The classification table is open: scenarios may
# define their own kinds as long as the table covers them.
METER_READING = "MeterReading"
BILLING_RECORD = "BillingRecord"
IDENTITY_TOKEN = "IdentityToken"
GRID_TELEMETRY = "GridTelemetry"
CHARGE_REQUEST = "ChargeRequest"


class DataClass(Enum):
    PRIVATE = "private"
    PUBLIC = "public"


#: Default payload-kind classification. Consumer-identifying kinds are
#: private; grid operating data is public. Scenario configs may override.
DEFAULT_CLASSIFICATION: dict[str, DataClass] = {
    METER_READING: DataClass.PRIVATE,
    BILLING_RECORD: DataClass.PRIVATE,
    IDENTITY_TOKEN: DataClass.PRIVATE,
    CHARGE_REQUEST: DataClass.PRIVATE,
    GRID_TELEMETRY: DataClass.PUBLIC,
}


class UnknownKind(FogGridError):
    """A payload kind is missing from the classification table."""


class EmptyKeyholders(FogGridError):
    """Sealing requires at least one keyholder."""


class FogKeyholderForbidden(FogGridError):
    """A fog-tier node was named as a keyholder for private data."""


class NotKeyholder(FogGridError):
    """The opener is not in the envelope's keyholder set."""


class UnknownNode(FogGridError):
    """A route endpoint does not exist in the topology."""


class NoRoute(FogGridError):
    """No tier-respecting route exists between the endpoints."""


@dataclass(frozen=True)
class Payload:
    """Application data unit: a kind tag, its size on the wire, and an
    opaque body."""

    kind: str
    bytes_size: int
    body: object = None


@dataclass(frozen=True)
class SealedEnvelope:
    """A payload wrapped so that only ``keyholders`` may read it.

    The inner payload is reachable only through :func:`open_envelope`;
    code outside this module must not touch ``inner`` directly.
    """

    inner: Payload
    keyholders: frozenset[NodeId]
    seal_tag: str


@dataclass(frozen=True)
class Message:
    """One unit of transmitted data, as carried by the simulator."""

    id: int
    src: NodeId
    dst: NodeId
    data_class: DataClass
    content: Union[Payload, SealedEnvelope]
    created_at: float


class RoutePattern(Enum):
    COM_A = "ComA"
    COM_B = "ComB"
    COM_C = "ComC"
    COM_D = "ComD"
    CLOUD_DIRECT = "CloudDirect"


@dataclass(frozen=True)
class Route:
    pattern: RoutePattern
    hops: tuple[NodeId, ...]


def classify(p: Payload, table: Mapping[str, DataClass]) -> DataClass:
    """Look up the data class of ``p.kind`` in ``table``.

    Raises UnknownKind when the kind is absent, which signals a
    misconfigured scenario rather than a recoverable condition.
    """
    try:
        return table[p.kind]
    except KeyError:
        raise UnknownKind(
            f"payload kind {p.kind!r} is not in the classification table"
        ) from None


def seal(p: Payload, keyholders, t: Topology) -> SealedEnvelope:
    """Wrap ``p`` so only ``keyholders`` can open it.

    Fog-tier nodes must never be keyholders: confidentiality is between
    the consumer and the cloud, and the middle tier only stores and
    forwards sealed data.
    """
    holders = frozenset(keyholders)
    if not holders:
        raise EmptyKeyholders("keyholders must be nonempty")
    check_keyholders(holders, t)
    digest = hashlib.blake2b(
        f"{p.kind}|{p.bytes_size}|{sorted(holders)}".encode(), digest_size=6
    ).hexdigest()
    return SealedEnvelope(inner=p, keyholders=holders, seal_tag=digest)


def check_keyholders(holders, t: Topology) -> None:
    """Raise FogKeyholderForbidden if any of ``holders`` is a fog-tier
    node. Nodes missing from the topology are not checked here."""
    by_id = t.by_id()
    for h in sorted(holders):
        node = by_id.get(h)
        if node is not None and node.tier is Tier.FOG:
            raise FogKeyholderForbidden(
                f"fog node {shown(h, str)} may not hold keys for private data"
            )


def open_envelope(e: SealedEnvelope, opener: NodeId) -> Payload:
    """Return the inner payload iff ``opener`` is a keyholder."""
    if opener not in e.keyholders:
        raise NotKeyholder(f"node {shown(opener, str)} cannot open envelope {e.seal_tag}")
    return e.inner


def classify_route_pattern(hops, t: Topology) -> RoutePattern:
    """Pattern of a hop list, from its structure alone.

    Cloud-only mode is always CloudDirect. In fog mode: any route touching
    the cloud is ComD; two distinct gateways make ComC; one gateway makes
    ComB; all-device routes are ComA.
    """
    if t.mode is Mode.CLOUD_ONLY:
        return RoutePattern.CLOUD_DIRECT
    by_id = t.by_id()
    tiers = [by_id[h].tier for h in hops]
    if Tier.CLOUD in tiers:
        return RoutePattern.COM_D
    fog_count = tiers.count(Tier.FOG)
    if fog_count >= 2:
        return RoutePattern.COM_C
    if fog_count == 1:
        return RoutePattern.COM_B
    return RoutePattern.COM_A


def serving_node(n: Node, t: Topology) -> NodeId:
    """The node that serves ``n``'s traffic: a fog or cloud node serves
    itself; a device is served by the cloud in cloud-only mode, else by
    its area's fog gateway. Raises NoRoute for a device whose area has no
    gateway."""
    if n.tier is not Tier.DEVICE:
        return n.id
    if t.mode is Mode.CLOUD_ONLY:
        return t.cloud_id
    fog = t.fog_for_area(n.area)
    if fog is None:
        raise NoRoute(f"area {shown(n.area, str)} of device {shown(n.id, str)} has no fog node")
    return fog.id


def resolve_route(src: NodeId, dst: NodeId, t: Topology) -> Route:
    """Resolve the tier-respecting route from ``src`` to ``dst``.

    Cloud-only mode relays everything through the cloud. In fog mode,
    traffic stays as low in the hierarchy as possible: inside one area it
    never leaves the area; between linked areas it crosses the fog link;
    between unlinked areas it climbs through the cloud. The result is
    symmetric: resolve_route(b, a) is the exact reverse.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    by_id = t.by_id()
    for end in (src, dst):
        if end not in by_id:
            raise UnknownNode(f"node {shown(end, str)} is not in the topology")
    a, b = by_id[src], by_id[dst]

    if t.mode is Mode.CLOUD_ONLY:
        # The cloud is one end, or relays between the two.
        hops = (src, dst) if Tier.CLOUD in (a.tier, b.tier) else (src, t.cloud_id, dst)
        return Route(pattern=RoutePattern.CLOUD_DIRECT, hops=hops)

    # Same area, both device tier: stay local.
    if (
        a.tier is Tier.DEVICE
        and b.tier is Tier.DEVICE
        and a.area == b.area
    ):
        return Route(pattern=RoutePattern.COM_A, hops=(src, dst))

    # Climb from each endpoint to its gateway (identity for fog/cloud).
    up_a = serving_node(a, t)
    up_b = serving_node(b, t)

    middle: tuple[NodeId, ...]
    if up_a == up_b:
        # One endpoint's gateway IS the other endpoint (device <-> own fog),
        # or both devices share a gateway but differ in area (impossible:
        # same gateway implies same area, handled above).
        middle = (up_a,)
    elif Tier.CLOUD in (a.tier, b.tier):
        # Any fog gateway reaches the cloud directly.
        middle = (up_a, up_b)
    elif t.has_fog_link(up_a, up_b):
        middle = (up_a, up_b)
    else:
        middle = (up_a, t.cloud_id, up_b)

    hops_list: list[NodeId] = []
    if a.tier is Tier.DEVICE:
        hops_list.append(src)
    hops_list.extend(middle)
    if b.tier is Tier.DEVICE:
        hops_list.append(dst)

    hops = tuple(hops_list)
    return Route(pattern=classify_route_pattern(hops, t), hops=hops)
