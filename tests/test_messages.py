"""Payload classification, envelope confidentiality, and route resolution.

Route tests compare resolve_route against the BFS oracle in conftest,
which rebuilds the communication graph independently.
"""

import itertools

import numpy as np
import pytest
from conftest import (
    assert_route_invariants,
    device_node,
    cloud_node,
    grid_topology,
    make_topology,
    random_valid_topology,
    shortest_route_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from foggrid import (
    BILLING_RECORD,
    CHARGE_REQUEST,
    DEFAULT_CLASSIFICATION,
    GRID_TELEMETRY,
    IDENTITY_TOKEN,
    METER_READING,
    DataClass,
    EmptyKeyholders,
    FogKeyholderForbidden,
    Mode,
    NoRoute,
    NotKeyholder,
    Payload,
    RoutePattern,
    Tier,
    UnknownKind,
    UnknownNode,
    classify,
    classify_route_pattern,
    open_envelope,
    resolve_route,
    seal,
)
from foggrid.messages import serving_node


class TestClassification:
    def test_default_table(self):
        assert DEFAULT_CLASSIFICATION == {
            METER_READING: DataClass.PRIVATE,
            BILLING_RECORD: DataClass.PRIVATE,
            IDENTITY_TOKEN: DataClass.PRIVATE,
            CHARGE_REQUEST: DataClass.PRIVATE,
            GRID_TELEMETRY: DataClass.PUBLIC,
        }

    def test_classify_lookup(self):
        p = Payload(kind=METER_READING, bytes_size=64)
        assert classify(p, DEFAULT_CLASSIFICATION) is DataClass.PRIVATE
        q = Payload(kind=GRID_TELEMETRY, bytes_size=64)
        assert classify(q, DEFAULT_CLASSIFICATION) is DataClass.PUBLIC

    def test_unknown_kind(self):
        p = Payload(kind="Nonexistent", bytes_size=8)
        with pytest.raises(UnknownKind, match="Nonexistent"):
            classify(p, DEFAULT_CLASSIFICATION)

    def test_scenario_override_wins(self):
        table = dict(DEFAULT_CLASSIFICATION)
        table[GRID_TELEMETRY] = DataClass.PRIVATE
        p = Payload(kind=GRID_TELEMETRY, bytes_size=64)
        assert classify(p, table) is DataClass.PRIVATE


class TestSealing:
    def setup_method(self):
        self.t = grid_topology(areas=1, devices_per_area=2)
        self.device_a, self.device_b = 2, 3
        self.fog, self.cloud = 1, 0
        self.payload = Payload(kind=METER_READING, bytes_size=64, body="r=17")

    def test_keyholders_can_open(self):
        env = seal(self.payload, {self.device_a, self.cloud}, self.t)
        assert open_envelope(env, self.device_a) == self.payload
        assert open_envelope(env, self.cloud) == self.payload

    def test_open_is_repeatable(self):
        env = seal(self.payload, {self.cloud}, self.t)
        assert open_envelope(env, self.cloud) == open_envelope(env, self.cloud)

    def test_fog_cannot_open(self):
        env = seal(self.payload, {self.device_a, self.cloud}, self.t)
        with pytest.raises(NotKeyholder):
            open_envelope(env, self.fog)

    def test_unlisted_device_cannot_open(self):
        env = seal(self.payload, {self.device_a, self.cloud}, self.t)
        with pytest.raises(NotKeyholder):
            open_envelope(env, self.device_b)

    def test_fog_may_not_hold_keys(self):
        with pytest.raises(FogKeyholderForbidden):
            seal(self.payload, {self.device_a, self.fog}, self.t)

    def test_empty_keyholders(self):
        with pytest.raises(EmptyKeyholders):
            seal(self.payload, set(), self.t)

    def test_seal_is_deterministic(self):
        e1 = seal(self.payload, {self.cloud}, self.t)
        e2 = seal(self.payload, {self.cloud}, self.t)
        assert e1.seal_tag == e2.seal_tag

    def test_seal_tag_depends_on_holders(self):
        e1 = seal(self.payload, {self.cloud}, self.t)
        e2 = seal(self.payload, {self.cloud, self.device_a}, self.t)
        assert e1.seal_tag != e2.seal_tag


class TestFogModeRoutes:
    """Hand-checked routes on a two-area grid: cloud 0, fogs 1 and 2,
    devices 3,4 in area 0 and 5,6 in area 1."""

    def setup_method(self):
        self.plain = grid_topology(areas=2, devices_per_area=2)
        self.linked = grid_topology(areas=2, devices_per_area=2, links=((0, 1),))

    def test_same_area_devices_stay_local(self):
        r = resolve_route(3, 4, self.plain)
        assert r.hops == (3, 4)
        assert r.pattern is RoutePattern.COM_A

    def test_device_to_own_gateway(self):
        r = resolve_route(3, 1, self.plain)
        assert r.hops == (3, 1)
        assert r.pattern is RoutePattern.COM_B

    def test_gateway_to_own_device(self):
        r = resolve_route(1, 4, self.plain)
        assert r.hops == (1, 4)
        assert r.pattern is RoutePattern.COM_B

    def test_linked_areas_cross_the_fog_link(self):
        r = resolve_route(3, 5, self.linked)
        assert r.hops == (3, 1, 2, 5)
        assert r.pattern is RoutePattern.COM_C

    def test_linked_gateways_talk_directly(self):
        r = resolve_route(1, 2, self.linked)
        assert r.hops == (1, 2)
        assert r.pattern is RoutePattern.COM_C

    def test_unlinked_areas_climb_through_cloud(self):
        r = resolve_route(3, 5, self.plain)
        assert r.hops == (3, 1, 0, 2, 5)
        assert r.pattern is RoutePattern.COM_D

    def test_unlinked_gateways_relay_via_cloud(self):
        r = resolve_route(1, 2, self.plain)
        assert r.hops == (1, 0, 2)
        assert r.pattern is RoutePattern.COM_D

    def test_device_to_cloud_passes_its_gateway(self):
        r = resolve_route(3, 0, self.plain)
        assert r.hops == (3, 1, 0)
        assert r.pattern is RoutePattern.COM_D

    def test_gateway_to_cloud(self):
        r = resolve_route(1, 0, self.plain)
        assert r.hops == (1, 0)
        assert r.pattern is RoutePattern.COM_D

    def test_local_patterns_never_touch_cloud(self):
        for src, dst in [(3, 4), (3, 1), (5, 6), (6, 2)]:
            r = resolve_route(src, dst, self.linked)
            assert r.pattern in (RoutePattern.COM_A, RoutePattern.COM_B)
            assert 0 not in r.hops


class TestCloudOnlyRoutes:
    def setup_method(self):
        self.t = grid_topology(
            areas=2, devices_per_area=1, links=((0, 1),), mode=Mode.CLOUD_ONLY
        )

    def test_everything_relays_through_cloud(self):
        r = resolve_route(3, 4, self.t)
        assert r.hops == (3, 0, 4)
        assert r.pattern is RoutePattern.CLOUD_DIRECT

    def test_fog_link_is_ignored(self):
        r = resolve_route(1, 2, self.t)
        assert r.hops == (1, 0, 2)

    def test_cloud_endpoint_needs_no_relay(self):
        assert resolve_route(3, 0, self.t).hops == (3, 0)
        assert resolve_route(0, 3, self.t).hops == (0, 3)


class TestRouteErrors:
    def test_src_equals_dst(self):
        t = grid_topology()
        with pytest.raises(ValueError):
            resolve_route(3, 3, t)

    def test_unknown_endpoint(self):
        t = grid_topology()
        with pytest.raises(UnknownNode):
            resolve_route(3, 99, t)
        with pytest.raises(UnknownNode):
            resolve_route(99, 3, t)

    def test_no_route_for_orphan_area(self):
        # Constructible but invalid: a fog-mode device whose area has no
        # gateway. resolve_route must refuse rather than invent a path.
        t = make_topology([cloud_node(), device_node(1, area=0)])
        with pytest.raises(NoRoute):
            resolve_route(1, 0, t)


class TestServingNode:
    def test_device_in_cloud_only_mode_is_served_by_the_cloud(self):
        t = grid_topology(mode=Mode.CLOUD_ONLY)
        assert serving_node(t.node(3), t) == 0

    def test_device_in_fog_mode_is_served_by_its_gateway(self):
        t = grid_topology()
        assert serving_node(t.node(3), t) == 1
        assert serving_node(t.node(5), t) == 2

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fog_and_cloud_nodes_serve_themselves(self, mode):
        t = grid_topology(mode=mode)
        for node_id in (0, 1, 2):
            assert serving_node(t.node(node_id), t) == node_id

    def test_orphan_area_has_no_route(self):
        t = make_topology([cloud_node(), device_node(1, area=0)])
        with pytest.raises(NoRoute, match="area 0 of device 1 has no fog node"):
            serving_node(t.node(1), t)


class TestRouteProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_oracle_and_invariants(self, seed):
        t = random_valid_topology(np.random.default_rng(seed))
        ids = [n.id for n in t.nodes]
        for src, dst in itertools.permutations(ids, 2):
            route = resolve_route(src, dst, t)
            assert route.hops[0] == src and route.hops[-1] == dst
            assert_route_invariants(route, t)
            expected = shortest_route_oracle(src, dst, t)
            assert expected is not None
            assert (len(route.hops), route.pattern.value) == expected

    def test_pattern_follows_from_the_hops(self):
        # The pattern resolve_route states is the one its hops imply, for
        # every ordered pair of two grids in both modes; together they
        # reach all five patterns.
        seen = set()
        for links, mode in itertools.product(((), ((0, 1),)), Mode):
            t = grid_topology(areas=3, devices_per_area=2, links=links, mode=mode)
            for a, b in itertools.permutations([n.id for n in t.nodes], 2):
                r = resolve_route(a, b, t)
                assert classify_route_pattern(r.hops, t) is r.pattern, (links, mode, a, b)
                seen.add(r.pattern)
        assert seen == set(RoutePattern)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        t = random_valid_topology(np.random.default_rng(seed))
        ids = [n.id for n in t.nodes]
        for src, dst in itertools.combinations(ids, 2):
            fwd = resolve_route(src, dst, t)
            rev = resolve_route(dst, src, t)
            assert rev.hops == tuple(reversed(fwd.hops))
            assert rev.pattern is fwd.pattern

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fog_tier_never_holds_private_keys(self, seed):
        t = random_valid_topology(np.random.default_rng(seed))
        fog_ids = [n.id for n in t.nodes if n.tier is Tier.FOG]
        devices = [n.id for n in t.nodes if n.tier is Tier.DEVICE]
        if not devices:
            return
        p = Payload(kind=METER_READING, bytes_size=64)
        env = seal(p, {devices[0], t.cloud_id}, t)
        for fog_id in fog_ids:
            with pytest.raises(NotKeyholder):
                open_envelope(env, fog_id)
