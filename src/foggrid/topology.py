"""Tiered network data model: devices, fog gateways, and the cloud.

A topology is a static description of the network the simulator runs on.
Device-tier nodes (smart meters, sensors, EV outlets) belong to fog areas;
each area is served by exactly one fog gateway when fog mode is enabled;
a single cloud node sits at the top. Values are immutable after
construction and validated by :func:`validate_topology`, which reports
violations as data rather than raising.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from functools import cached_property
from typing import Optional

from .errors import FogGridError

NodeId = int
FogAreaId = int

#: The largest finite float. Each value rule states finiteness as a range,
#: such as ``0 < x <= FLOAT_MAX``: Python compares an int with a float
#: exactly, so the range rejects nan, the infinities and every int beyond
#: the float range, and never raises.
FLOAT_MAX = sys.float_info.max


class InvalidTopology(FogGridError):
    """A topology failed validation; carries the violation report."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "; ".join(str(v) for v in self.violations) or "invalid topology"
        )


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


#: Roles a fog-tier node may carry.
FOG_ROLES = frozenset({DeviceRole.GATEWAY, DeviceRole.COMPUTING})
#: Roles a device-tier node may carry.
DEVICE_ROLES = frozenset(
    {DeviceRole.SENSOR, DeviceRole.ACTUATOR, DeviceRole.CONNECTING}
)


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
        return self.account if self.account is not None else f"meter-{self.id}"


@dataclass(frozen=True)
class Topology:
    """A validated-or-not snapshot of the whole network.

    ``cloud_id`` is derived from the nodes, not stored. It and the two
    node lookup indexes are built on first use and kept for the life of
    the instance (the fields are immutable, so they never go stale), and
    so is the mode-independent part of the validation report.
    :meth:`with_mode` hands all four to the flipped topology. The dict
    returned by :meth:`by_id` is shared: do not mutate it.
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
    def _report(self) -> tuple[tuple[Violation, ...], ...]:
        return _mode_free_report(self)

    def with_mode(self, mode: Mode) -> Topology:
        """This node set in ``mode``, sharing this topology's cloud id,
        indexes and validation report (none of them depends on the mode)."""
        flipped = replace(self, mode=mode)
        flipped.__dict__.update(
            cloud_id=self.cloud_id,
            _by_id=self._by_id,
            _fog_by_area=self._fog_by_area,
            _report=self._report,
        )
        return flipped

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

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
    mode: Mode = Mode.FOG_AUGMENTED,
) -> Topology:
    """Build a Topology from any iterables of nodes and of fog-link pairs.
    Its cloud_id is derived from the nodes, as for any Topology."""
    links = frozenset(frozenset(pair) for pair in fog_links)
    return Topology(nodes=tuple(nodes), fog_links=links, mode=mode)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough identifiers to locate it."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


#: The fields of a DeviceSpec, which are also its YAML keys.
SPEC_FIELDS = ("cpu_mhz", "cores", "memory_mb", "power_active_mw", "power_idle_mw")


def spec_violations(spec: DeviceSpec, owner: str) -> list[Violation]:
    """The spec rules for ``spec``, which ``owner`` names in each
    violation, in this order: every field is finite; power_idle_mw is
    >= 0 and every other field positive; power_idle_mw is at most
    power_active_mw."""
    report = []
    for name in SPEC_FIELDS:
        value = getattr(spec, name)
        if not -FLOAT_MAX <= value <= FLOAT_MAX:
            # An int is out of this range only beyond the float range.
            beyond = isinstance(value, int)
            detail = f"{name} is beyond the float range" if beyond else f"{name}={value!r}"
            report.append(Violation("spec non-finite", f"{owner}: {detail}"))
    for name in SPEC_FIELDS[:-1]:
        if getattr(spec, name) <= 0:
            report.append(Violation("spec sign", f"{owner}: {name} must be positive"))
    if spec.power_idle_mw < 0:
        report.append(Violation("spec sign", f"{owner}: power_idle_mw must be >= 0"))
    if spec.power_idle_mw > spec.power_active_mw:
        report.append(
            Violation(
                "spec power order",
                f"{owner}: power_idle_mw {spec.power_idle_mw} exceeds "
                f"power_active_mw {spec.power_active_mw}",
            )
        )
    return report


def validate_topology(t: Topology) -> list[Violation]:
    """Check every structural invariant of ``t``.

    Returns one Violation per problem; an empty list means the topology is
    well-formed. Pure: identical inputs yield identical reports. Only the
    orphan-area rule depends on the mode, so the checks run once per node
    set and each call applies that rule to the cached report.
    """
    nodes, orphans, links = t._report
    if t.mode is Mode.FOG_AUGMENTED:
        return [*nodes, *orphans, *links]
    return [*nodes, *links]


def _mode_free_report(t: Topology) -> tuple[tuple[Violation, ...], ...]:
    """The node checks, the orphan areas (a violation in fog-augmented
    mode only) and the fog-link checks of ``t``, in report order."""
    report: list[Violation] = []

    seen: set[NodeId] = set()
    for n in t.nodes:
        if n.id in seen:
            report.append(Violation("duplicate id", f"node id {n.id} repeats"))
        seen.add(n.id)
        if n.id < 0:
            report.append(Violation("negative id", f"node id {n.id}"))
        if n.area is not None and n.area < 0:
            report.append(Violation("negative area", f"node {n.id} has area {n.area}"))

    clouds = [n for n in t.nodes if n.tier is Tier.CLOUD]
    if len(clouds) != 1:
        report.append(
            Violation(
                "cloud cardinality",
                f"expected exactly one cloud node, found {len(clouds)} "
                f"({[n.id for n in clouds]})",
            )
        )

    for n in t.nodes:
        if n.tier is Tier.FOG and n.role not in FOG_ROLES:
            report.append(
                Violation(
                    "role tier mismatch",
                    f"fog node {n.id} has role {n.role.value}; expected "
                    "gateway or computing",
                )
            )
        if n.tier is Tier.DEVICE and n.role not in DEVICE_ROLES:
            report.append(
                Violation(
                    "role tier mismatch",
                    f"device node {n.id} has role {n.role.value}; expected "
                    "sensor, actuator, or connecting",
                )
            )
        if n.tier is Tier.CLOUD and n.area is not None:
            report.append(
                Violation("cloud area", f"cloud node {n.id} must not have an area")
            )
        if n.tier is not Tier.CLOUD and n.area is None:
            report.append(
                Violation(
                    "missing area", f"{n.tier.name.lower()} node {n.id} has no area"
                )
            )
        if not 0 < n.service_rate_per_s <= FLOAT_MAX:
            report.append(
                Violation(
                    "service rate",
                    f"node {n.id}: service_rate_per_s must be positive and "
                    f"finite, got {n.service_rate_per_s!r}",
                )
            )
        report.extend(spec_violations(n.spec, f"node {n.id}"))

    fog_by_area: dict[FogAreaId, list[NodeId]] = {}
    for n in t.nodes:
        if n.tier is Tier.FOG and n.area is not None:
            fog_by_area.setdefault(n.area, []).append(n.id)
    for area, ids in sorted(fog_by_area.items()):
        if len(ids) > 1:
            report.append(
                Violation(
                    "fog cardinality",
                    f"area {area} has {len(ids)} fog nodes ({ids}); expected one",
                )
            )

    orphans = tuple(
        Violation(
            "orphan area",
            f"device {n.id} is in area {n.area}, which has no fog node",
        )
        for n in t.nodes
        if n.tier is Tier.DEVICE and n.area is not None and n.area not in fog_by_area
    )

    links: list[Violation] = []
    by_id = t.by_id()
    for link in sorted(t.fog_links, key=sorted):
        ids = sorted(link)
        if len(ids) != 2:
            links.append(Violation("self link", f"fog link {ids} joins a node to itself"))
            continue
        a, b = ids
        for end in (a, b):
            if end not in by_id:
                links.append(
                    Violation("dangling link", f"fog link ({a}, {b}) references unknown node {end}")
                )
            elif by_id[end].tier is not Tier.FOG:
                links.append(
                    Violation(
                        "link tier",
                        f"fog link ({a}, {b}) endpoint {end} is "
                        f"{by_id[end].tier.name.lower()}-tier, not fog",
                    )
                )

    return tuple(report), orphans, tuple(links)
