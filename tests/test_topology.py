"""Topology model and structural validation."""

import dataclasses

import numpy as np
import pytest
from conftest import cloud_node, device_node, fog_node, grid_topology, random_valid_topology

from foggrid import (
    DeviceRole,
    DeviceSpec,
    Mode,
    Node,
    Tier,
    Topology,
    default_cloud_spec,
    default_device_spec,
    default_fog_spec,
    make_topology,
    validate_topology,
)


def codes(topology):
    return {v.code for v in validate_topology(topology)}


class TestTierOrder:
    def test_total_order(self):
        assert Tier.DEVICE < Tier.FOG < Tier.CLOUD

    def test_three_values(self):
        assert len(Tier) == 3


class TestDefaultSpecs:
    def test_fog_spec(self):
        spec = default_fog_spec()
        assert spec.cpu_mhz == 500
        assert spec.cores == 2
        assert spec.memory_mb == 1024
        assert spec.power_active_mw == 199.0
        assert spec.power_idle_mw == 0.0

    def test_cloud_spec_power(self):
        assert default_cloud_spec().power_active_mw == 489.0

    def test_device_spec_positive(self):
        spec = default_device_spec()
        assert spec.cpu_mhz > 0 and spec.power_active_mw > 0


class TestValidation:
    def test_minimal_well_formed(self):
        t = make_topology(
            [
                cloud_node(),
                fog_node(1, area=1),
                device_node(2, area=1),
                device_node(3, area=1),
                device_node(4, area=1),
            ]
        )
        assert validate_topology(t) == []

    def test_orphan_area(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=1), device_node(2, area=2)]
        )
        assert "orphan area" in codes(t)

    def test_two_clouds(self):
        t = make_topology([cloud_node(0), cloud_node(1)])
        assert "cloud cardinality" in codes(t)

    def test_no_cloud(self):
        t = make_topology([fog_node(1, area=0)])
        assert "cloud cardinality" in codes(t)

    def test_cloud_only_mode_allows_empty_fog_tier(self):
        t = make_topology(
            [cloud_node(), device_node(1, area=0)], mode=Mode.CLOUD_ONLY
        )
        assert validate_topology(t) == []

    def test_fog_augmented_requires_fog_per_device_area(self):
        t = make_topology(
            [cloud_node(), device_node(1, area=0)], mode=Mode.FOG_AUGMENTED
        )
        assert "orphan area" in codes(t)

    def test_duplicate_id(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=0), fog_node(1, area=1)]
        )
        assert "duplicate id" in codes(t)

    def test_two_fogs_one_area(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=0), fog_node(2, area=0)]
        )
        assert "fog cardinality" in codes(t)

    def test_role_tier_mismatch(self):
        bad_fog = dataclasses.replace(fog_node(1, area=0), role=DeviceRole.SENSOR)
        t = make_topology([cloud_node(), bad_fog])
        assert "role tier mismatch" in codes(t)

    def test_cloud_with_area(self):
        bad_cloud = dataclasses.replace(cloud_node(), area=0)
        t = make_topology([bad_cloud])
        assert "cloud area" in codes(t)

    def test_missing_area(self):
        bad_fog = dataclasses.replace(fog_node(1, area=0), area=None)
        t = make_topology([cloud_node(), bad_fog])
        assert "missing area" in codes(t)

    @pytest.mark.parametrize("make", [device_node, fog_node], ids=["device", "fog"])
    def test_negative_area(self, make):
        t = make_topology([cloud_node(), make(2, area=-1)], mode=Mode.CLOUD_ONLY)
        assert [str(v) for v in validate_topology(t)] == ["negative area: node 2 has area -1"]

    def test_nonpositive_service_rate(self):
        bad = dataclasses.replace(fog_node(1, area=0), service_rate_per_s=0.0)
        t = make_topology([cloud_node(), bad])
        assert "service rate" in codes(t)

    def test_idle_above_active_power(self):
        spec = DeviceSpec(
            cpu_mhz=500, cores=2, memory_mb=1024,
            power_active_mw=100.0, power_idle_mw=200.0,
        )
        bad = dataclasses.replace(fog_node(1, area=0), spec=spec)
        t = make_topology([cloud_node(), bad])
        assert "spec power order" in codes(t)

    def test_integer_spec_beyond_float_range(self):
        spec = dataclasses.replace(fog_node(1, area=0).spec, cpu_mhz=10**400)
        bad = dataclasses.replace(fog_node(1, area=0), spec=spec)
        t = make_topology([cloud_node(), bad])
        assert "spec non-finite" in codes(t)

    def test_self_link(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=0)], fog_links=((1, 1),)
        )
        assert "self link" in codes(t)

    def test_dangling_link(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=0)], fog_links=((1, 9),)
        )
        assert "dangling link" in codes(t)

    def test_link_between_non_fog_tiers(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=0), device_node(2, area=0)],
            fog_links=((1, 2),),
        )
        assert "link tier" in codes(t)

    def test_validation_is_pure(self):
        t = make_topology(
            [cloud_node(), fog_node(1, area=1), device_node(2, area=2)]
        )
        assert validate_topology(t) == validate_topology(t)

    def test_random_constructed_topologies_validate(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert validate_topology(random_valid_topology(rng)) == []


class TestMakeTopology:
    def test_infers_cloud_id(self):
        t = make_topology([fog_node(1, area=0), cloud_node(9)])
        assert t.cloud_id == 9

    def test_cloud_id_minus_one_without_unique_cloud(self):
        assert make_topology([fog_node(1, area=0)]).cloud_id == -1
        assert make_topology([cloud_node(0), cloud_node(1)]).cloud_id == -1

    def test_direct_construction_derives_cloud_id(self):
        t = Topology(nodes=(cloud_node(9), fog_node(1, area=0), device_node(2, area=0)))
        assert validate_topology(t) == []
        assert t.cloud_id == 9

    def test_replaced_nodes_give_their_cloud_id(self):
        t = make_topology([cloud_node(9), fog_node(1, area=0)])
        assert t.cloud_id == 9
        moved = dataclasses.replace(t, nodes=(fog_node(1, area=0), cloud_node(4)))
        assert moved.cloud_id == 4
        assert validate_topology(moved) == []

    def test_links_are_unordered(self):
        t = grid_topology(areas=2, links=((0, 1),))
        assert t.has_fog_link(1, 2)
        assert t.has_fog_link(2, 1)


class TestNode:
    def test_owner_account_default(self):
        assert device_node(7, area=0).owner_account() == "meter-7"

    def test_owner_account_explicit(self):
        node = device_node(7, area=0, account="acct-a")
        assert node.owner_account() == "acct-a"

    def test_fog_for_area(self):
        t = grid_topology(areas=2)
        assert t.fog_for_area(1).id == 2
        assert t.fog_for_area(5) is None

    def test_node_lookup_missing(self):
        t = grid_topology()
        with pytest.raises(KeyError):
            t.node(99)


def _linear_fog_for_area(t, area):
    """The scan fog_for_area replaced: first fog node of the area."""
    for n in t.nodes:
        if n.tier is Tier.FOG and n.area == area:
            return n
    return None


class TestIndexes:
    def test_by_id_is_built_once(self):
        t = grid_topology(areas=3)
        assert t.by_id() is t.by_id()
        assert t.by_id() == {n.id: n for n in t.nodes}

    def test_node_reads_the_index(self):
        t = grid_topology(areas=3, devices_per_area=3)
        for n in t.nodes:
            assert t.node(n.id) is n

    def test_fog_for_area_matches_linear_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            t = random_valid_topology(rng)
            # Add a device in an area no fog node serves.
            t = make_topology(
                t.nodes + (device_node(50, area=9),),
                [tuple(link) for link in t.fog_links],
                Mode.CLOUD_ONLY,
            )
            areas = {n.area for n in t.nodes} | {9, 99, None}
            for area in areas:
                assert t.fog_for_area(area) is _linear_fog_for_area(t, area)
            assert t.fog_for_area(9) is None

    def test_replace_builds_fresh_indexes(self):
        t = grid_topology(areas=2)
        t.by_id()
        flipped = dataclasses.replace(t, nodes=t.nodes[:-1])
        assert len(flipped.by_id()) == len(t.nodes) - 1
        assert flipped == make_topology(t.nodes[:-1], (), t.mode)


def _broken_topology(mode):
    """Spec, fog-cardinality, orphan-area and link violations at once."""
    bad_spec = fog_node(3, area=1)
    bad_spec = dataclasses.replace(
        bad_spec,
        spec=dataclasses.replace(bad_spec.spec, cpu_mhz=0, power_idle_mw=500.0),
    )
    nodes = [
        cloud_node(),
        fog_node(2, area=0),
        fog_node(1, area=0),
        bad_spec,
        device_node(7, area=6),
        device_node(4, area=5),
        device_node(6, area=0),
        device_node(5, area=6),
    ]
    return make_topology(nodes, ((1, 4), (3, 99), (2, 2), (3, 1)), mode)


# Pinned from the validator that rebuilt the whole report on every call.
_NODE_LINES = [
    "spec sign: node 3: cpu_mhz must be positive",
    "spec power order: node 3: power_idle_mw 500.0 exceeds power_active_mw 199.0",
    "fog cardinality: area 0 has 2 fog nodes ([2, 1]); expected one",
]
_ORPHAN_LINES = [
    "orphan area: device 7 is in area 6, which has no fog node",
    "orphan area: device 4 is in area 5, which has no fog node",
    "orphan area: device 5 is in area 6, which has no fog node",
]
_LINK_LINES = [
    "link tier: fog link (1, 4) endpoint 4 is device-tier, not fog",
    "self link: fog link [2] joins a node to itself",
    "dangling link: fog link (3, 99) references unknown node 99",
]
PINNED_LINES = {
    Mode.CLOUD_ONLY: _NODE_LINES + _LINK_LINES,
    Mode.FOG_AUGMENTED: _NODE_LINES + _ORPHAN_LINES + _LINK_LINES,
}


class TestReportOnce:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_pinned_lines_in_order(self, mode):
        t = _broken_topology(mode)
        assert [str(v) for v in validate_topology(t)] == PINNED_LINES[mode]
        # A second call reads the cached report and gives the same lines.
        assert [str(v) for v in validate_topology(t)] == PINNED_LINES[mode]

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_with_mode_applies_the_orphan_rule_for_its_mode(self, mode):
        for source_mode in Mode:
            source = _broken_topology(source_mode)
            validate_topology(source)
            flipped = source.with_mode(mode)
            assert flipped == _broken_topology(mode)
            assert [str(v) for v in validate_topology(flipped)] == PINNED_LINES[mode]

    def test_with_mode_shares_the_indexes(self):
        t = grid_topology(areas=3)
        flipped = t.with_mode(Mode.CLOUD_ONLY)
        assert flipped.mode is Mode.CLOUD_ONLY and t.mode is Mode.FOG_AUGMENTED
        assert flipped.by_id() is t.by_id()
        assert flipped.fog_for_area(1) is t.fog_for_area(1)
        assert flipped.__dict__["cloud_id"] == t.cloud_id == 0
        assert validate_topology(flipped) == validate_topology(t) == []

    def test_report_is_a_fresh_list(self):
        t = _broken_topology(Mode.FOG_AUGMENTED)
        validate_topology(t).clear()
        assert len(validate_topology(t)) == len(PINNED_LINES[Mode.FOG_AUGMENTED])
