"""Shared builders and independent oracles for the test suite.

The route oracle here is deliberately implementation-free: it rebuilds
the communication graph from first principles (who may talk to whom) and
finds shortest paths by breadth-first search, so route tests compare the
package against an independent computation rather than against itself.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np
import yaml

from foggrid import (
    DeviceRole,
    Mode,
    Node,
    Tier,
    Topology,
    default_cloud_spec,
    default_device_spec,
    default_fog_spec,
    make_topology,
)

CLOUD_ID = 0

#: The scenario fields a non-finite number must not slip through.
FINITE_FIELDS = ("horizon_s", "warmup_s", "rate_per_s")
#: YAML spellings of the IEEE non-finite values.
NONFINITE_YAML = (".inf", "-.inf", ".nan")
#: The line of the rule that rejects each FINITE_FIELDS field.
_NONFINITE_LINES = {
    "horizon_s": "run.horizon_s: must be finite and positive, got {!r}",
    "warmup_s": "run.warmup_s: must satisfy 0 <= warmup_s < horizon_s, got {!r}",
    "rate_per_s": "workload.arrival_processes[0].rate_per_s: "
    "must be finite and nonnegative, got {!r}",
}


def nonfinite_line(field: str, value: str) -> str:
    """The one problem line of ``finite_field_scenario(field, value)``,
    for a YAML scalar ``value`` that reads as a non-finite float."""
    return _NONFINITE_LINES[field].format(float(yaml.safe_load(value)))


def finite_field_scenario(field: str = "", value: str = "") -> str:
    """A valid one-area scenario; ``field`` (one of FINITE_FIELDS), if
    given, is written as the raw YAML scalar ``value``."""
    values = {"horizon_s": "100.0", "warmup_s": "1.0", "rate_per_s": "0.5"}
    if field:
        values[field] = value
    return (
        f"run: {{horizon_s: {values['horizon_s']}, warmup_s: {values['warmup_s']}}}\n"
        "topology:\n"
        "  nodes:\n"
        "    - {id: 0, tier: cloud}\n"
        "    - {id: 1, tier: fog, area: 0}\n"
        "    - {id: 2, tier: device, area: 0}\n"
        "workload:\n"
        "  arrival_processes:\n"
        f"    - {{rate_per_s: {values['rate_per_s']}, target: 2, "
        "payload_kind: GridTelemetry, size_bytes: 64}\n"
    )


def fog_node(node_id: int, area: int, rate: float = 1.0) -> Node:
    return Node(
        id=node_id,
        tier=Tier.FOG,
        role=DeviceRole.GATEWAY,
        spec=default_fog_spec(),
        service_rate_per_s=rate,
        area=area,
    )


def cloud_node(node_id: int = CLOUD_ID, rate: float = 1.0) -> Node:
    return Node(
        id=node_id,
        tier=Tier.CLOUD,
        role=DeviceRole.COMPUTING,
        spec=default_cloud_spec(),
        service_rate_per_s=rate,
    )


def device_node(node_id: int, area: int, account: Optional[str] = None) -> Node:
    return Node(
        id=node_id,
        tier=Tier.DEVICE,
        role=DeviceRole.SENSOR,
        spec=default_device_spec(),
        area=area,
        account=account,
    )


def grid_topology(
    areas: int = 2,
    devices_per_area: int = 2,
    links: tuple[tuple[int, int], ...] = (),
    mode: Mode = Mode.FOG_AUGMENTED,
    fog_rate: float = 1.0,
    cloud_rate: float = 1.0,
) -> Topology:
    """One cloud (id 0), one fog per area (ids 1..areas), then devices.

    ``links`` pairs are area numbers; they are translated to fog node ids.
    """
    nodes = [cloud_node(rate=cloud_rate)]
    for a in range(areas):
        nodes.append(fog_node(1 + a, area=a, rate=fog_rate))
    next_id = 1 + areas
    for a in range(areas):
        for _ in range(devices_per_area):
            nodes.append(device_node(next_id, area=a))
            next_id += 1
    fog_links = tuple((1 + a, 1 + b) for a, b in links)
    return make_topology(nodes, fog_links, mode)


def random_valid_topology(rng: np.random.Generator) -> Topology:
    """A structurally valid topology of at most 20 nodes."""
    areas = int(rng.integers(1, 5))
    nodes = [cloud_node()]
    for a in range(areas):
        nodes.append(fog_node(1 + a, area=a))
    next_id = 1 + areas
    for a in range(areas):
        for _ in range(int(rng.integers(0, 5))):
            if next_id >= 20:
                break
            nodes.append(device_node(next_id, area=a))
            next_id += 1
    links = []
    for a in range(areas):
        for b in range(a + 1, areas):
            if rng.random() < 0.5:
                links.append((1 + a, 1 + b))
    mode = Mode.CLOUD_ONLY if rng.random() < 0.3 else Mode.FOG_AUGMENTED
    return make_topology(nodes, tuple(links), mode)


def comm_edges(t: Topology) -> dict[int, list[tuple[int, bool]]]:
    """Adjacency of the communication graph, from first principles.

    Cloud-only: every node talks to the cloud and nothing else. Fog mode:
    devices talk inside their area and to their gateway; gateways talk
    over their links and to the cloud. The bool marks fog-fog edges,
    which a single route may use at most once (relaying across the fog
    plane is not a communication pattern).
    """
    adj: dict[int, list[tuple[int, bool]]] = {n.id: [] for n in t.nodes}

    def connect(a: int, b: int, fog_edge: bool = False) -> None:
        adj[a].append((b, fog_edge))
        adj[b].append((a, fog_edge))

    if t.mode is Mode.CLOUD_ONLY:
        for n in t.nodes:
            if n.tier is not Tier.CLOUD:
                connect(n.id, t.cloud_id)
        return adj

    by_area: dict[int, list] = {}
    for n in t.nodes:
        if n.tier is Tier.DEVICE:
            by_area.setdefault(n.area, []).append(n)
    for n in t.nodes:
        if n.tier is Tier.FOG:
            connect(n.id, t.cloud_id)
            for d in by_area.get(n.area, []):
                connect(n.id, d.id)
    for link in t.fog_links:
        a, b = sorted(link)
        connect(a, b, fog_edge=True)
    for devices in by_area.values():
        for i, a in enumerate(devices):
            for b in devices[i + 1 :]:
                connect(a.id, b.id)
    return adj


def shortest_route_oracle(
    src: int, dst: int, t: Topology
) -> Optional[tuple[int, str]]:
    """(hop count, pattern) of a shortest valid path, or None if none exists.

    BFS over (node, fog-edge-used) states; the pattern is classified from
    the found path's structure, independently of the package.
    """
    adj = comm_edges(t)
    start = (src, False)
    prev: dict[tuple[int, bool], tuple[int, bool]] = {start: start}
    queue = deque([start])
    goal = None
    while queue:
        state = queue.popleft()
        node, used = state
        if node == dst:
            goal = state
            break
        for nxt, is_fog_edge in adj[node]:
            if is_fog_edge and used:
                continue
            nxt_state = (nxt, used or is_fog_edge)
            if nxt_state not in prev:
                prev[nxt_state] = state
                queue.append(nxt_state)
    if goal is None:
        return None
    path = [goal[0]]
    state = goal
    while prev[state] != state:
        state = prev[state]
        path.append(state[0])
    path.reverse()

    by_id = t.by_id()
    tiers = [by_id[h].tier for h in path]
    if t.mode is Mode.CLOUD_ONLY:
        pattern = "CloudDirect"
    elif Tier.CLOUD in tiers:
        pattern = "ComD"
    elif sum(tier is Tier.FOG for tier in tiers) >= 2:
        pattern = "ComC"
    elif Tier.FOG in tiers:
        pattern = "ComB"
    else:
        pattern = "ComA"
    return len(path), pattern


def assert_route_invariants(route, t: Topology) -> None:
    """Endpoint, repetition, and up-then-down checks on a resolved route."""
    hops = route.hops
    assert len(hops) == len(set(hops)), f"repeated node in {hops}"
    by_id = t.by_id()
    tiers = [int(by_id[h].tier) for h in hops]
    peak = tiers.index(max(tiers))
    up, down = tiers[: peak + 1], tiers[peak:]
    assert up == sorted(up) and down == sorted(down, reverse=True), (
        f"tier sequence {tiers} is not up-then-down for hops {hops}"
    )
