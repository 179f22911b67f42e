"""Roaming-charge session state machine and settlement."""

import pytest
from conftest import device_node, grid_topology, make_topology

from foggrid import (
    CHARGE_REQUEST,
    IDENTITY_TOKEN,
    ChargingSession,
    DataClass,
    FogKeyholderForbidden,
    InvalidState,
    MeterIdentity,
    NegativeEnergy,
    NonpositiveTariff,
    NotKeyholder,
    RoutePattern,
    SessionState,
    UnknownOutlet,
    authorize,
    initiate_session,
    is_legal_transition,
    meter_energy,
    open_envelope,
    reject_session,
    resolve_owner,
    settle_bill,
    start_charging,
)
from foggrid.billing import (
    APPROVAL_BYTES,
    REQUEST_BYTES,
    approval_message,
    request_message,
)

# Two areas, no fog link: cloud 0, fogs 1-2, devices 3,4 (area 0) and
# 5,6 (area 1). Vehicle "ev-1" lives at meter 5 and roams to outlet 3.
TOPOLOGY = grid_topology(areas=2, devices_per_area=2)
REGISTRY = {
    "ev-1": MeterIdentity(meter=5, owner_account="acct-alpha"),
    "ev-2": MeterIdentity(meter=3, owner_account="acct-beta"),
}


def roaming_session(session_id=1):
    return initiate_session(session_id, "ev-1", 3, REGISTRY, TOPOLOGY)


class TestLifecycle:
    def test_full_roaming_flow(self):
        s = roaming_session()
        assert s.state is SessionState.REQUESTED
        assert s.owner_meter == 5

        s, route = resolve_owner(s, REGISTRY, TOPOLOGY)
        assert s.state is SessionState.OWNER_RESOLVED
        assert s.route_pattern is RoutePattern.COM_D
        assert route.hops == (3, 1, 0, 2, 5)

        s = authorize(s)
        s = start_charging(s, at_s=100.0)
        assert s.started_at == 100.0

        s = meter_energy(s, 7.5, at_s=400.0)
        assert s.state is SessionState.METERED
        assert s.energy_kwh == 7.5 and s.ended_at == 400.0

        s, bill = settle_bill(s, 0.2, REGISTRY)
        assert s.state is SessionState.BILLED
        assert bill.debited_account == "acct-alpha"
        assert bill.amount == 7.5 * 0.2
        assert bill.session_id == s.session_id

    def test_meter_energy_directly_from_authorized(self):
        s, _ = resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)
        s = authorize(s)
        s = meter_energy(s, 2.0, at_s=50.0)
        assert s.state is SessionState.METERED
        assert s.started_at == 50.0

    def test_zero_energy_session_bills_zero(self):
        s, _ = resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)
        s = meter_energy(authorize(s), 0.0)
        _, bill = settle_bill(s, 0.2, REGISTRY)
        assert bill.amount == 0.0


class TestRequestMessage:
    def test_charge_request_sealed_to_outlet_and_owner(self):
        s, _ = resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)
        message = request_message(s, TOPOLOGY, message_id=4, at_s=3.25)
        assert (message.id, message.src, message.dst) == (4, 3, 5)
        assert message.data_class is DataClass.PRIVATE
        assert message.created_at == 3.25
        env = message.content
        assert env.keyholders == frozenset({3, 5})
        for holder in (3, 5):
            request = open_envelope(env, holder)
            assert request.kind == CHARGE_REQUEST
            assert request.bytes_size == REQUEST_BYTES == 128
            assert request.body == {"vehicle_id": "ev-1", "session_id": 1}
        # Outlet 3 sits behind fog 1, owner 5 behind fog 2.
        for fog in (1, 2):
            with pytest.raises(NotKeyholder):
                open_envelope(env, fog)


class TestApprovalMessage:
    def test_identity_token_sealed_to_owner_and_outlet(self):
        s, _ = resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)
        message = approval_message(s, TOPOLOGY, message_id=7, at_s=12.5)
        assert (message.id, message.src, message.dst) == (7, 5, 3)
        assert message.data_class is DataClass.PRIVATE
        assert message.created_at == 12.5
        env = message.content
        assert env.keyholders == frozenset({3, 5})
        for holder in (3, 5):
            token = open_envelope(env, holder)
            assert token.kind == IDENTITY_TOKEN
            assert token.bytes_size == APPROVAL_BYTES
        # Outlet 3 sits behind fog 1, owner 5 behind fog 2.
        for fog in (1, 2):
            with pytest.raises(NotKeyholder):
                open_envelope(env, fog)


class TestResolveOwner:
    def test_unregistered_vehicle_is_rejected(self):
        s = initiate_session(1, "ghost", 3, REGISTRY, TOPOLOGY)
        s, route = resolve_owner(s, REGISTRY, TOPOLOGY)
        assert s.state is SessionState.REJECTED
        assert route is None
        assert "ghost" in s.reject_reason

    def test_owner_in_an_area_without_a_gateway_is_rejected(self):
        # Meter 9 sits in area 5, which no fog gateway serves.
        topology = make_topology([*TOPOLOGY.nodes, device_node(9, area=5)])
        registry = {"ev-9": MeterIdentity(meter=9, owner_account="acct-9")}
        s = initiate_session(1, "ev-9", 3, registry, topology)
        s, route = resolve_owner(s, registry, topology)
        assert s.state is SessionState.REJECTED
        assert route is None
        assert "area 5" in s.reject_reason

    def test_vehicle_at_its_own_meter_needs_no_message(self):
        s = initiate_session(1, "ev-2", 3, REGISTRY, TOPOLOGY)
        s, route = resolve_owner(s, REGISTRY, TOPOLOGY)
        assert s.state is SessionState.OWNER_RESOLVED
        assert route is None
        assert s.route_pattern is RoutePattern.COM_A
        assert s.owner_meter == 3

    def test_same_area_roaming_stays_local(self):
        registry = {"ev-3": MeterIdentity(meter=4, owner_account="acct-c")}
        s = initiate_session(1, "ev-3", 3, registry, TOPOLOGY)
        s, route = resolve_owner(s, registry, TOPOLOGY)
        assert s.route_pattern is RoutePattern.COM_A
        assert route.hops == (3, 4)
        message = request_message(s, TOPOLOGY, message_id=0, at_s=0.0)
        assert (message.src, message.dst) == (3, 4)

    def test_fog_tier_owner_is_forbidden(self):
        # The request would be sealed to the owner: a fog gateway may not
        # hold keys, so resolving fails before any message exists.
        registry = {"ev-fog": MeterIdentity(meter=2, owner_account="acct-f")}
        s = initiate_session(1, "ev-fog", 3, registry, TOPOLOGY)
        with pytest.raises(FogKeyholderForbidden):
            resolve_owner(s, registry, TOPOLOGY)

    def test_requires_requested_state(self):
        s, _ = resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)
        with pytest.raises(InvalidState):
            resolve_owner(s, REGISTRY, TOPOLOGY)


class TestGuards:
    def test_unknown_outlet(self):
        with pytest.raises(UnknownOutlet):
            initiate_session(1, "ev-1", 99, REGISTRY, TOPOLOGY)

    def test_fog_node_is_not_an_outlet(self):
        with pytest.raises(UnknownOutlet):
            initiate_session(1, "ev-1", 1, REGISTRY, TOPOLOGY)

    def test_negative_energy(self):
        s = authorize(resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)[0])
        with pytest.raises(NegativeEnergy):
            meter_energy(s, -0.1)

    def test_nonpositive_tariff(self):
        s = meter_energy(
            authorize(resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)[0]), 1.0
        )
        with pytest.raises(NonpositiveTariff):
            settle_bill(s, 0.0, REGISTRY)
        with pytest.raises(NonpositiveTariff):
            settle_bill(s, -1.0, REGISTRY)

    def test_out_of_order_transitions(self):
        s = roaming_session()
        with pytest.raises(InvalidState):
            authorize(s)
        with pytest.raises(InvalidState):
            start_charging(s, 0.0)
        with pytest.raises(InvalidState):
            meter_energy(s, 1.0)
        with pytest.raises(InvalidState):
            settle_bill(s, 0.2, REGISTRY)

    def test_double_settlement(self):
        s = meter_energy(
            authorize(resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)[0]), 1.0
        )
        s, _ = settle_bill(s, 0.2, REGISTRY)
        with pytest.raises(InvalidState):
            settle_bill(s, 0.2, REGISTRY)


#: Each step function, the states it may be called from, and the state
#: it leaves the session in.
STEPS = {
    "authorize": (authorize, {SessionState.OWNER_RESOLVED}, SessionState.AUTHORIZED),
    "start_charging": (
        lambda s: start_charging(s, 0.0),
        {SessionState.AUTHORIZED},
        SessionState.CHARGING,
    ),
    "meter_energy": (
        lambda s: meter_energy(s, 1.0),
        {SessionState.AUTHORIZED, SessionState.CHARGING},
        SessionState.METERED,
    ),
    "settle_bill": (
        lambda s: settle_bill(s, 0.2, REGISTRY)[0],
        {SessionState.METERED},
        SessionState.BILLED,
    ),
}


class TestStateTable:
    @pytest.mark.parametrize("state", list(SessionState), ids=lambda s: s.value)
    @pytest.mark.parametrize("step", sorted(STEPS))
    def test_step_runs_only_from_its_edge(self, step, state):
        call, sources, target = STEPS[step]
        s = ChargingSession(1, "ev-1", 3, state, owner_meter=5)
        if state in sources:
            assert call(s).state is target
        else:
            with pytest.raises(InvalidState):
                call(s)


class TestRejection:
    def test_rejectable_from_every_pre_billed_state(self):
        s0 = roaming_session()
        s1, _ = resolve_owner(s0, REGISTRY, TOPOLOGY)
        s2 = authorize(s1)
        s3 = start_charging(s2, 0.0)
        s4 = meter_energy(s3, 1.0)
        for s in (s0, s1, s2, s3, s4):
            rejected = reject_session(s, "operator abort")
            assert rejected.state is SessionState.REJECTED
            assert rejected.reject_reason == "operator abort"

    def test_billed_cannot_be_rejected(self):
        s = meter_energy(
            authorize(resolve_owner(roaming_session(), REGISTRY, TOPOLOGY)[0]), 1.0
        )
        s, _ = settle_bill(s, 0.2, REGISTRY)
        with pytest.raises(InvalidState):
            reject_session(s, "too late")

    def test_double_rejection(self):
        s = reject_session(roaming_session(), "first")
        with pytest.raises(InvalidState):
            reject_session(s, "second")


class TestTransitionTable:
    def test_forward_edges_only(self):
        assert is_legal_transition(
            SessionState.REQUESTED, SessionState.OWNER_RESOLVED
        )
        assert not is_legal_transition(
            SessionState.OWNER_RESOLVED, SessionState.REQUESTED
        )
        assert not is_legal_transition(
            SessionState.REQUESTED, SessionState.CHARGING
        )

    def test_rejected_is_terminal(self):
        for state in SessionState:
            assert not is_legal_transition(SessionState.REJECTED, state)
