"""Recorded and unrecorded runs are the same run.

A ``record_events`` run builds a ``SimEvent`` per event and a ``Message``
per message, the session protocol's request and approval included; an
unrecorded run builds none of them and takes other branches to skip
them. This differential test runs random small session scenarios both
ways and requires every result the two share to be equal.
"""

import dataclasses

from conftest import grid_topology
from hypothesis import given, settings
from hypothesis import strategies as st

import foggrid
from foggrid import (
    GRID_TELEMETRY,
    METER_READING,
    ArrivalProcess,
    BessChargeEntry,
    BessState,
    MeterIdentity,
    Mode,
    RunConfig,
    SessionPlan,
    Tier,
)

#: Session start times on a coarse grid, so that sessions, top-ups and
#: deliveries share instants.
_STARTS = st.sampled_from([0.0, 5.0, 10.0, 20.0, 40.0])


@st.composite
def session_configs(draw):
    areas = draw(st.integers(2, 3))
    # A fog link between the first two areas makes ComC routes; unlinked
    # areas climb through the cloud (ComD).
    links = ((0, 1),) if draw(st.booleans()) else ()
    topo = grid_topology(
        areas=areas,
        devices_per_area=draw(st.integers(1, 3)),
        links=links,
        mode=draw(st.sampled_from(Mode)),
        fog_rate=draw(st.sampled_from([0.5, 2.0])),
    )
    devices = [n.id for n in topo.nodes if n.tier is Tier.DEVICE]
    meters = st.sampled_from(devices)
    homes = draw(st.lists(meters, min_size=1, max_size=4))
    registry = {
        f"ev-{i}": MeterIdentity(meter=m, owner_account=f"acct-{i}")
        for i, m in enumerate(homes)
    }
    # "ev-ghost" is not registered; an outlet equal to the home meter is a
    # self-charge, one in the same area a ComA session.
    vehicles = st.sampled_from([*registry, "ev-ghost"])
    sessions = draw(
        st.lists(
            st.builds(
                SessionPlan,
                vehicle_id=vehicles,
                outlet_meter=meters,
                start_s=_STARTS,
                energy_kwh=st.sampled_from([0.0, 1.5, 4.0]),
                duration_s=st.sampled_from([0.0, 5.0, 30.0]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    bess, schedule = None, ()
    if draw(st.booleans()):
        soc = draw(st.sampled_from([0.0, 3.0]))
        bess = BessState(capacity_kwh=6.0, soc_kwh=soc, efficiency=0.9)
        schedule = tuple(
            BessChargeEntry(at_s=at, energy_kwh=2.5)
            for at in draw(st.lists(_STARTS, max_size=3))
        )
    kinds = st.sampled_from([GRID_TELEMETRY, METER_READING])
    processes = tuple(
        ArrivalProcess(rate_per_s=0.2, target=target, payload_kind=kind, size_bytes=64)
        for target, kind in draw(st.lists(st.tuples(meters, kinds), max_size=2))
    )
    return RunConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        horizon_s=120.0,
        warmup_s=draw(st.sampled_from([0.0, 10.0])),
        topology=topo,
        arrival_processes=processes,
        sessions=tuple(sessions),
        vehicle_registry=registry,
        bess=bess,
        bess_charge_schedule=schedule,
        grid_available=draw(st.booleans()),
        hop_delay_s=draw(st.sampled_from([0.0, 0.05])),
    )


@settings(max_examples=60, deadline=None)
@given(session_configs())
def test_recorded_run_equals_unrecorded_run(cfg):
    plain = foggrid.run(cfg)
    recorded = foggrid.run(dataclasses.replace(cfg, record_events=True))
    assert recorded.trace.digest == plain.trace.digest
    assert recorded.trace.event_count == plain.trace.event_count == len(recorded.trace.events)
    assert recorded.sessions == plain.sessions
    assert recorded.bills == plain.bills
    assert recorded.session_sources == plain.session_sources
    assert recorded.queue_stats == plain.queue_stats
    assert recorded.energy == plain.energy
    assert recorded.bess_final == plain.bess_final
    assert (
        recorded.messages_generated,
        recorded.messages_delivered,
        recorded.bytes_generated,
    ) == (plain.messages_generated, plain.messages_delivered, plain.bytes_generated)
    assert plain.messages is None and plain.trace.events is None
