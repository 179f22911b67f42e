"""Tiered network data model: devices, fog gateways, and the cloud.

A topology is a static description of the network the simulator runs on.
Device-tier nodes (smart meters, sensors, EV outlets) belong to fog areas;
each area is served by exactly one fog gateway when fog mode is enabled;
a single cloud node sits at the top. Values are immutable after
construction and validated by :func:`validate_topology`, which returns
one line per problem rather than raising.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cached_property
from typing import Optional

from .errors import ConfigError, shown

NodeId = int
FogAreaId = int

#: The largest finite float. Each value rule states finiteness as a range,
#: such as ``0 < x <= FLOAT_MAX``: Python compares an int with a float
#: exactly, so the range rejects nan, the infinities and every int beyond
#: the float range, and never raises.
FLOAT_MAX = sys.float_info.max


class InvalidTopology(ConfigError):
    """A topology failed validation; ``problems`` holds the lines of
    :func:`validate_topology`."""


class Tier(IntEnum):
    """Network tier. The numeric order (device < fog < cloud) is what
    route monotonicity checks rely on."""

    DEVICE = 0
    FOG = 1
    CLOUD = 2


class DeviceRole(Enum):
    CONNECTING = "connecting"
    GATEWAY = "gateway"
    SENSOR = "sensor"
    ACTUATOR = "actuator"
    COMPUTING = "computing"


class Mode(Enum):
    CLOUD_ONLY = "cloud-only"
    FOG_AUGMENTED = "fog-augmented"


# Tuples, not sets: ``in`` finds a member by identity, where a set would
# hash it through Enum.__hash__, a Python call per node.
#: Roles a fog-tier node may carry.
FOG_ROLES = (DeviceRole.GATEWAY, DeviceRole.COMPUTING)
#: Roles a device-tier node may carry.
DEVICE_ROLES = (DeviceRole.SENSOR, DeviceRole.ACTUATOR, DeviceRole.CONNECTING)


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware description of a node: CPU, memory, and power draw."""

    cpu_mhz: int
    cores: int
    memory_mb: int
    power_active_mw: float
    power_idle_mw: float = 0.0


def default_fog_spec() -> DeviceSpec:
    """Default fog-node hardware: a 500 MHz dual-core gateway board with
    1024 MB of memory, drawing 199 mW when active.

    The board also carries 4 GB of flash storage, which the simulator does
    not model. Idle power defaults to 0 mW; it is a config knob.
    """
    return DeviceSpec(
        cpu_mhz=500,
        cores=2,
        memory_mb=1024,
        power_active_mw=199.0,
        power_idle_mw=0.0,
    )


def default_cloud_spec() -> DeviceSpec:
    """Default cloud-server hardware, drawing 489 mW when active.

    Only the active power figure is meaningful to the simulator; the CPU
    and memory numbers are descriptive placeholders for a backend server.
    """
    return DeviceSpec(
        cpu_mhz=3000,
        cores=16,
        memory_mb=65536,
        power_active_mw=489.0,
        power_idle_mw=0.0,
    )


def default_device_spec() -> DeviceSpec:
    """Default device-tier hardware: a 100 MHz microcontroller-class node.

    Devices never serve traffic, so their power figures only matter when a
    scenario turns on idle power accounting.
    """
    return DeviceSpec(
        cpu_mhz=100,
        cores=1,
        memory_mb=64,
        power_active_mw=1.0,
        power_idle_mw=0.0,
    )


@dataclass(frozen=True)
class Node:
    """One network node.

    ``area`` is required on device and fog tiers, and must be absent on
    the cloud node. ``service_rate_per_s`` is the M/M/1 service rate used
    when this node queues traffic (fog and cloud tiers only, but every
    node carries a positive rate).
    """

    id: NodeId
    tier: Tier
    role: DeviceRole
    spec: DeviceSpec
    service_rate_per_s: float = 1.0
    area: Optional[FogAreaId] = None
    account: Optional[str] = None

    def owner_account(self) -> str:
        """Billing account of the party owning this node (device tier)."""
        return self.account if self.account is not None else f"meter-{shown(self.id, str)}"


@dataclass(frozen=True)
class Topology:
    """A validated-or-not snapshot of the whole network.

    ``cloud_id`` is derived from the nodes, not stored. It, the two node
    lookup indexes and the validation report for this topology's mode are
    built on first use and kept for the life of the instance (the fields
    are immutable, so they never go stale). Nothing is shared across
    instances: a copy made with ``dataclasses.replace`` builds its own.
    The dict returned by :meth:`by_id` is shared: do not mutate it.
    """

    nodes: tuple[Node, ...]
    fog_links: frozenset[frozenset[NodeId]] = field(default_factory=frozenset)
    mode: Mode = Mode.FOG_AUGMENTED

    @cached_property
    def _by_id(self) -> dict[NodeId, Node]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def cloud_id(self) -> NodeId:
        """The id of the one cloud node, or -1 unless there is exactly one
        (validate_topology reports the cardinality violation)."""
        clouds = [n.id for n in self.nodes if n.tier is Tier.CLOUD]
        return clouds[0] if len(clouds) == 1 else -1

    @cached_property
    def _fog_by_area(self) -> dict[FogAreaId, Node]:
        # The first gateway of an area serves it; validate_topology
        # reports an area with more than one.
        index: dict[FogAreaId, Node] = {}
        for n in self.nodes:
            if n.tier is Tier.FOG:
                index.setdefault(n.area, n)
        return index

    @cached_property
    def _report(self) -> tuple[str, ...]:
        return _validate(self)

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {shown(node_id, str)}") from None

    def by_id(self) -> dict[NodeId, Node]:
        return self._by_id

    def fog_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.tier is Tier.FOG]

    def fog_for_area(self, area: FogAreaId) -> Optional[Node]:
        """The fog gateway serving ``area``, or None if the area has none."""
        return self._fog_by_area.get(area)

    def has_fog_link(self, a: NodeId, b: NodeId) -> bool:
        return frozenset((a, b)) in self.fog_links


def make_topology(
    nodes,
    fog_links=(),
    mode: Mode = Topology.mode,
) -> Topology:
    """Build a Topology from any iterables of nodes and of fog-link pairs.
    Its cloud_id is derived from the nodes, as for any Topology."""
    links = frozenset(frozenset(pair) for pair in fog_links)
    return Topology(nodes=tuple(nodes), fog_links=links, mode=mode)


#: The fields of a DeviceSpec, power_idle_mw last.
SPEC_FIELDS = tuple(f.name for f in fields(DeviceSpec))


def spec_violations(spec: DeviceSpec, owner: str) -> list[str]:
    """One line per spec rule ``spec`` breaks, naming ``owner``, in the
    order of :func:`_spec_faults`."""
    return [f"{code}: {owner}: {detail}" for code, detail in _spec_faults(spec)]


def _spec_faults(spec: DeviceSpec) -> list[tuple[str, str]]:
    """The code and detail of each spec rule ``spec`` breaks, in this
    order: every field is finite; power_idle_mw is >= 0 and every other
    field positive; power_idle_mw is at most power_active_mw."""
    faults = []
    for name in SPEC_FIELDS:
        value = getattr(spec, name)
        if not -FLOAT_MAX <= value <= FLOAT_MAX:
            # An int is out of this range only beyond the float range.
            beyond = isinstance(value, int)
            detail = f"{name} is beyond the float range" if beyond else f"{name}={value!r}"
            faults.append(("spec non-finite", detail))
    for name in SPEC_FIELDS[:-1]:
        if getattr(spec, name) <= 0:
            faults.append(("spec sign", f"{name} must be positive"))
    if spec.power_idle_mw < 0:
        faults.append(("spec sign", "power_idle_mw must be >= 0"))
    if spec.power_idle_mw > spec.power_active_mw:
        detail = (
            f"power_idle_mw {shown(spec.power_idle_mw)} exceeds "
            f"power_active_mw {shown(spec.power_active_mw)}"
        )
        faults.append(("spec power order", detail))
    return faults


def validate_topology(t: Topology) -> list[str]:
    """Check every structural invariant of ``t`` in its mode.

    Returns one line per problem, ``"<rule>: <detail>"``; an empty list
    means the topology is well-formed. Pure: identical inputs yield
    identical reports. The report is built by one pass over the nodes on
    the first call and cached on ``t`` alone, never handed to another
    instance; each call returns a fresh list.
    """
    return list(t._report)


def _validate(t: Topology) -> tuple[str, ...]:
    """The report of ``t``, in this order: each node's id and area ranges,
    the cloud count, each node's role, area, service-rate and spec rules,
    the gateways per area, the orphan areas (fog-augmented mode only) and
    the fog links. A node's text is formatted only for a rule it breaks,
    and the spec rules run once per distinct spec: a node whose spec is
    the previous node's reuses its faults without hashing the spec."""
    ranges: list[str] = []
    rules: list[str] = []
    seen: set[NodeId] = set()
    clouds: list[NodeId] = []
    fog_by_area: dict[FogAreaId, list[NodeId]] = {}
    unserved: list[Node] = []  # devices seen before any gateway of their area
    faults: dict[DeviceSpec, list[tuple[str, str]]] = {}
    last_spec: object = object()  # the previous node's spec; at first, none
    fog_mode = t.mode is Mode.FOG_AUGMENTED
    for n in t.nodes:
        node_id, tier, area = n.id, n.tier, n.area
        if node_id in seen:
            ranges.append(f"duplicate id: node id {shown(node_id)} repeats")
        seen.add(node_id)
        if node_id < 0:
            ranges.append(f"negative id: node id {shown(node_id)}")
        elif node_id > FLOAT_MAX:
            ranges.append(f"id range: node id {shown(node_id)} is beyond the float range")
        if area is not None and area < 0:
            ranges.append(f"negative area: node {shown(node_id)} has area {shown(area)}")
        elif area is not None and area > FLOAT_MAX:
            detail = f"node {shown(node_id)} has area {shown(area)} beyond the float range"
            ranges.append(f"area range: {detail}")

        if tier is Tier.CLOUD:
            clouds.append(node_id)
            if area is not None:
                rules.append(f"cloud area: cloud node {shown(node_id)} must not have an area")
        else:
            if tier is Tier.FOG and n.role not in FOG_ROLES:
                expected = "gateway or computing"
            elif tier is Tier.DEVICE and n.role not in DEVICE_ROLES:
                expected = "sensor, actuator, or connecting"
            else:
                expected = None
            if expected is not None:
                rules.append(
                    f"role tier mismatch: {tier.name.lower()} node {shown(node_id)} has role "
                    f"{n.role.value}; expected {expected}"
                )
            if area is None:
                rules.append(f"missing area: {tier.name.lower()} node {shown(node_id)} has no area")
            elif tier is Tier.FOG:
                fog_by_area.setdefault(area, []).append(node_id)
            elif fog_mode and tier is Tier.DEVICE and area not in fog_by_area:
                unserved.append(n)
        if not 0 < n.service_rate_per_s <= FLOAT_MAX:
            rules.append(
                f"service rate: node {shown(node_id)}: service_rate_per_s must be positive "
                f"and finite, got {shown(n.service_rate_per_s)}"
            )
        if n.spec is not last_spec:
            last_spec = n.spec
            spec_faults = faults.get(last_spec)
            if spec_faults is None:
                spec_faults = faults[last_spec] = _spec_faults(last_spec)
        for code, detail in spec_faults:
            rules.append(f"{code}: node {shown(node_id)}: {detail}")

    report = ranges
    if len(clouds) != 1:
        detail = f"expected exactly one cloud node, found {len(clouds)} ({shown(clouds)})"
        report.append(f"cloud cardinality: {detail}")
    report += rules
    for area, ids in sorted(fog_by_area.items()):
        if len(ids) > 1:
            detail = f"area {shown(area)} has {len(ids)} fog nodes ({shown(ids)}); expected one"
            report.append(f"fog cardinality: {detail}")
    for n in unserved:
        if n.area not in fog_by_area:
            detail = f"device {shown(n.id)} is in area {shown(n.area)}, which has no fog node"
            report.append(f"orphan area: {detail}")

    by_id = t.by_id()
    for link in sorted(t.fog_links, key=sorted):
        ids = sorted(link)
        if len(ids) != 2:
            report.append(f"self link: fog link {shown(ids)} joins a node to itself")
            continue
        a, b = map(shown, ids)
        for end, shown_end in zip(ids, (a, b)):
            if end not in by_id:
                detail = f"fog link ({a}, {b}) references unknown node {shown_end}"
                report.append(f"dangling link: {detail}")
            elif by_id[end].tier is not Tier.FOG:
                report.append(
                    f"link tier: fog link ({a}, {b}) endpoint {shown_end} is "
                    f"{by_id[end].tier.name.lower()}-tier, not fog"
                )

    return tuple(report)
