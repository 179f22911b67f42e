"""Deterministic discrete-event engine: determinism, queue statistics,
trace structure, session protocol, and energy sourcing."""

import dataclasses
import gc
import itertools
import pickle
import weakref

import numpy as np
import pytest
from conftest import BENCH_TINY, cloud_node, device_node, fog_node, grid_topology, make_topology

import foggrid
from foggrid import engine, messages
from foggrid.errors import shown
from foggrid import (
    GRID_TELEMETRY,
    METER_READING,
    ArrivalProcess,
    BessChargeEntry,
    BessState,
    EnergyLedger,
    EventKind,
    FogGridError,
    InvalidRunConfig,
    InvalidTopology,
    MeterIdentity,
    MicrogridMode,
    QueueStats,
    RoutePattern,
    RunConfig,
    SealedEnvelope,
    SessionPlan,
    SessionState,
    Tier,
    littles_law_residual,
    mm1_analytic,
    parse_config,
    resolve_route,
)
from foggrid.topology import FLOAT_MAX

LAM = 1 / 60
MU_FOG = 1 / 35


def one_area_config(**overrides):
    """Cloud 0, fog 1 (mu = 1/35), device 2 sending one message a minute."""
    topo = grid_topology(areas=1, devices_per_area=1, fog_rate=MU_FOG)
    base = dict(
        seed=0,
        horizon_s=200_000.0,
        warmup_s=10_000.0,
        topology=topo,
        arrival_processes=(
            ArrivalProcess(
                rate_per_s=LAM, target=2, payload_kind=GRID_TELEMETRY, size_bytes=64
            ),
        ),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDeterminism:
    def test_identical_configs_identical_runs(self):
        cfg = one_area_config()
        a, b = foggrid.run(cfg), foggrid.run(cfg)
        assert a.trace.digest == b.trace.digest
        assert a.trace.event_count == b.trace.event_count
        assert a.queue_stats == b.queue_stats
        assert a.energy == b.energy

    def test_seed_changes_the_trace(self):
        a = foggrid.run(one_area_config(seed=1))
        b = foggrid.run(one_area_config(seed=2))
        assert a.trace.digest != b.trace.digest

    def test_recording_does_not_change_the_digest(self):
        plain = foggrid.run(one_area_config())
        recorded = foggrid.run(one_area_config(record_events=True))
        assert plain.trace.digest == recorded.trace.digest
        assert plain.trace.events is None
        assert len(recorded.trace.events) == recorded.trace.event_count

    @pytest.mark.parametrize("purpose, key", [(0, (1,)), (1, (2, 0)), (1, (7, 3))])
    def test_draw_blocks_match_one_block(self, purpose, key):
        # 2,000 draws span seven growing blocks (16, 32, ..., 512, 512).
        # Another stream draws through the same generator in between, its
        # blocks falling due at other draws.
        n = 2000
        state, other_state = engine._pcg64_states(5, [(purpose, *key), (0, 99)])
        rng = np.random.Generator(np.random.PCG64(0))
        draws = engine._exp_draws(rng, state, 0.4)
        other = engine._exp_draws(rng, other_state, 3.0)
        got = []
        for value in itertools.islice(draws, n):
            got.append(value)
            next(other)
            next(other)
        ss = np.random.SeedSequence(entropy=5, spawn_key=(purpose, *key))
        canonical = np.random.Generator(np.random.PCG64(ss))
        assert got == canonical.exponential(2.5, size=n).tolist()
        assert all(type(v) is float for v in got)

    def test_added_area_leaves_existing_streams_untouched(self):
        # Random streams are keyed by node id and purpose, so growing the
        # topology must not perturb statistics at unrelated nodes.
        base_nodes = [
            cloud_node(),
            fog_node(1, area=0, rate=MU_FOG),
            device_node(10, area=0),
        ]
        extra_nodes = base_nodes + [
            fog_node(2, area=1, rate=MU_FOG),
            device_node(20, area=1),
        ]
        proc = ArrivalProcess(
            rate_per_s=LAM, target=10, payload_kind=GRID_TELEMETRY, size_bytes=64
        )
        extra_proc = ArrivalProcess(
            rate_per_s=1 / 50, target=20, payload_kind=GRID_TELEMETRY, size_bytes=64
        )
        common = dict(seed=7, horizon_s=100_000.0, warmup_s=1_000.0)
        small = foggrid.run(
            RunConfig(
                topology=make_topology(base_nodes),
                arrival_processes=(proc,),
                **common,
            )
        )
        grown = foggrid.run(
            RunConfig(
                topology=make_topology(extra_nodes),
                arrival_processes=(proc, extra_proc),
                **common,
            )
        )
        assert small.queue_stats[1] == grown.queue_stats[1]
        assert small.energy[1] == grown.energy[1]
        assert small.queue_stats[10] == grown.queue_stats[10]

    def test_appended_process_at_same_target_leaves_earlier_stream_untouched(self):
        # An arrival stream is keyed by (target, k), k counting the earlier
        # processes at that target, so appending one keeps every earlier k.
        proc = ArrivalProcess(
            rate_per_s=LAM, target=2, payload_kind=GRID_TELEMETRY, size_bytes=64
        )
        extra = ArrivalProcess(
            rate_per_s=1 / 50, target=2, payload_kind="Extra", size_bytes=64
        )
        classification = {**foggrid.DEFAULT_CLASSIFICATION, "Extra": foggrid.DataClass.PUBLIC}

        def created_at(processes):
            cfg = one_area_config(
                arrival_processes=processes,
                classification=classification,
                record_events=True,
                horizon_s=20_000.0,
                warmup_s=0.0,
            )
            messages = foggrid.run(cfg).messages.values()
            return [m.created_at for m in messages if m.content.kind == GRID_TELEMETRY]

        alone = created_at((proc,))
        assert len(alone) > 100
        assert created_at((proc, extra)) == alone


class TestZeroWorkload:
    def test_empty_run(self):
        cfg = one_area_config(arrival_processes=())
        res = foggrid.run(cfg)
        assert res.trace.event_count == 0
        assert res.messages_generated == 0
        assert res.messages_delivered == 0
        assert res.bytes_generated == 0
        for stats in res.queue_stats.values():
            assert stats.samples == 0
            assert stats.utilization == 0.0
        for ledger in res.energy.values():
            assert ledger.active_time_s == 0.0
            assert ledger.idle_time_s == cfg.horizon_s

    def test_zero_rate_process_generates_nothing(self):
        cfg = one_area_config(
            arrival_processes=(
                ArrivalProcess(
                    rate_per_s=0.0,
                    target=2,
                    payload_kind=GRID_TELEMETRY,
                    size_bytes=64,
                ),
            )
        )
        assert foggrid.run(cfg).messages_generated == 0


def test_result_rows_are_slotted_and_frozen():
    result = foggrid.run(one_area_config(horizon_s=20_000.0))
    assert {type(row) for row in result.queue_stats.values()} == {QueueStats}
    assert {type(row) for row in result.energy.values()} == {EnergyLedger}
    rows = [*result.queue_stats.values(), *result.energy.values()]
    assert len(rows) == 6
    for row in rows:
        assert not hasattr(row, "__dict__")
        values = {f.name: getattr(row, f.name) for f in dataclasses.fields(row)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.node = 7
        # _finalize builds its rows through engine._slot_builder.
        by_keyword = type(row)(**values)
        for twin in (row, pickle.loads(pickle.dumps(row))):
            assert type(twin) is type(by_keyword) and twin == by_keyword
            assert (repr(twin), hash(twin)) == (repr(by_keyword), hash(by_keyword))
        assert dataclasses.replace(row, node=7) == dataclasses.replace(by_keyword, node=7)
        assert dataclasses.replace(row, node=7) != row
    # Like the dataclass, the builder sets the fields in order, and takes
    # every field and no more.
    for cls in (QueueStats, EnergyLedger):
        names = [f.name for f in dataclasses.fields(cls)]
        by_keyword = cls(**{name: i for i, name in enumerate(names)})
        assert repr(engine._slot_builder(cls)(*range(len(names)))) == repr(by_keyword)
    for values in ((1, 0.5, 1.0, 2.0, 0.3), (1, 0.5, 1.0, 2.0, 0.3, 4, 5)):
        with pytest.raises(TypeError):
            QueueStats(*values)
        with pytest.raises(TypeError):
            engine._slot_builder(QueueStats)(*values)


@pytest.fixture(scope="module")
def long_run():
    return foggrid.run(one_area_config(horizon_s=1e6, warmup_s=1e4))


class TestQueueStatistics:
    @pytest.fixture
    def result(self, long_run):
        return long_run

    def test_mean_wait_near_analytic(self, result):
        w = result.queue_stats[1].mean_wait_s
        assert abs(w - 84.0) / 84.0 < 0.10

    def test_utilization_near_rho(self, result):
        rho = mm1_analytic(LAM, MU_FOG).rho
        assert result.queue_stats[1].utilization == pytest.approx(rho, rel=0.10)

    def test_littles_law_holds(self, result):
        assert littles_law_residual(result.queue_stats[1]) < 0.05

    def test_device_counts_originated_messages(self, result):
        assert result.queue_stats[2].lambda_hat == pytest.approx(LAM, rel=0.10)
        assert result.queue_stats[2].mean_wait_s == 0.0
        assert result.queue_stats[2].samples == 0

    def test_message_accounting(self, result):
        assert 0 < result.messages_delivered <= result.messages_generated
        assert result.bytes_generated == 64 * result.messages_generated

    def test_busy_time_plus_idle_time_is_horizon(self, result):
        for ledger in result.energy.values():
            total = ledger.active_time_s + ledger.idle_time_s
            assert total == pytest.approx(1e6, rel=1e-9)

    def test_fog_energy_matches_busy_time(self, result):
        ledger = result.energy[1]
        assert ledger.energy_mj == pytest.approx(
            ledger.active_time_s * 199.0, rel=1e-12
        )

    def test_busy_period_open_at_the_horizon_counts(self):
        # The gateway is still serving its first message at the horizon,
        # so it is busy from that message's service start to the horizon.
        topo = grid_topology(areas=1, devices_per_area=1, fog_rate=1e-12)
        cfg = one_area_config(
            topology=topo, horizon_s=1000.0, warmup_s=0.0, record_events=True
        )
        result = foggrid.run(cfg)
        kinds = [e.kind for e in result.trace.events]
        assert EventKind.SERVICE_END not in kinds
        start = result.trace.events[kinds.index(EventKind.SERVICE_START)].time
        assert result.energy[1].active_time_s == 1000.0 - start
        assert result.queue_stats[1].utilization == (1000.0 - start) / 1000.0
        # Every message that reaches the gateway is there until the horizon.
        at_gateway = [
            e.time for e in result.trace.events if e.kind is EventKind.ARRIVAL and e.node == 1
        ]
        assert result.queue_stats[1].mean_in_system == pytest.approx(
            sum(1000.0 - a for a in at_gateway) / 1000.0, rel=1e-12
        )


def scan_trace(result, topology):
    """Structural invariants of a recorded event trace."""
    events = result.trace.events
    assert events is not None and result.messages is not None

    keys = [(e.time, e.seq) for e in events]
    assert keys == sorted(keys), "events must replay in (time, seq) order"
    assert len({e.seq for e in events}) == len(events), "seq values repeat"
    assert all(e.time >= 0.0 for e in events)

    server_ids = {n.id for n in topology.nodes if n.tier is not Tier.DEVICE}
    arrivals: dict[int, int] = {}
    per_msg_nodes: dict[int, list[int]] = {}
    in_service: dict[int, bool] = {nid: False for nid in server_ids}
    completions: dict[int, int] = {}

    for e in events:
        if e.kind is EventKind.ARRIVAL:
            arrivals[e.node] = arrivals.get(e.node, 0) + 1
            per_msg_nodes.setdefault(e.subject, []).append(e.node)
        elif e.kind is EventKind.SERVICE_START:
            assert not in_service[e.node], f"node {e.node} started twice"
            in_service[e.node] = True
        elif e.kind is EventKind.SERVICE_END:
            assert in_service[e.node], f"node {e.node} ended while idle"
            in_service[e.node] = False
            completions[e.node] = completions.get(e.node, 0) + 1

    for nid in server_ids:
        assert completions.get(nid, 0) <= arrivals.get(nid, 0)

    # Every message walks a prefix of its resolved route, in order.
    for mid, nodes in per_msg_nodes.items():
        msg = result.messages[mid]
        if msg.src == msg.dst:
            expected = (msg.src,)
        else:
            expected = resolve_route(msg.src, msg.dst, topology).hops
        assert tuple(nodes) == expected[: len(nodes)], (
            f"message {mid} visited {nodes}, route is {expected}"
        )

    assert result.messages_generated == len(result.messages)


class TestTraceStructure:
    def test_single_area_trace(self):
        cfg = one_area_config(horizon_s=50_000.0, warmup_s=0.0, record_events=True)
        res = foggrid.run(cfg)
        scan_trace(res, cfg.topology)
        assert all(e.time <= cfg.horizon_s for e in res.trace.events)

    def test_cross_area_trace_with_sessions(self):
        topo = grid_topology(areas=2, devices_per_area=2, fog_rate=0.5, cloud_rate=1.0)
        cfg = RunConfig(
            seed=3,
            horizon_s=20_000.0,
            warmup_s=0.0,
            topology=topo,
            arrival_processes=(
                ArrivalProcess(
                    rate_per_s=0.01,
                    target=3,
                    payload_kind=METER_READING,
                    size_bytes=256,
                ),
                ArrivalProcess(
                    rate_per_s=0.02,
                    target=5,
                    payload_kind=GRID_TELEMETRY,
                    size_bytes=64,
                ),
            ),
            sessions=(
                SessionPlan(
                    vehicle_id="ev-1",
                    outlet_meter=3,
                    start_s=100.0,
                    energy_kwh=5.0,
                    duration_s=600.0,
                ),
            ),
            vehicle_registry={
                "ev-1": MeterIdentity(meter=5, owner_account="acct-a")
            },
            record_events=True,
        )
        res = foggrid.run(cfg)
        scan_trace(res, topo)
        assert res.sessions[0].state is SessionState.BILLED

    def test_cloud_only_trace(self):
        topo = grid_topology(
            areas=2, devices_per_area=1, mode=foggrid.Mode.CLOUD_ONLY, cloud_rate=0.5
        )
        cfg = RunConfig(
            seed=5,
            horizon_s=20_000.0,
            warmup_s=0.0,
            topology=topo,
            arrival_processes=(
                ArrivalProcess(
                    rate_per_s=0.01,
                    target=3,
                    payload_kind=GRID_TELEMETRY,
                    size_bytes=64,
                ),
            ),
            record_events=True,
        )
        res = foggrid.run(cfg)
        scan_trace(res, topo)
        # In cloud-only mode the device's traffic queues at the cloud.
        assert res.queue_stats[0].samples > 0
        assert res.queue_stats[1].samples == 0


class TestSessions:
    def registry(self):
        return {
            "home": MeterIdentity(meter=3, owner_account="acct-home"),
            "roam": MeterIdentity(meter=5, owner_account="acct-roam"),
        }

    def two_area_config(self, **overrides):
        topo = grid_topology(areas=2, devices_per_area=2)
        base = dict(
            seed=11,
            horizon_s=10_000.0,
            warmup_s=0.0,
            topology=topo,
            vehicle_registry=self.registry(),
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_self_charge_starts_instantly(self):
        cfg = self.two_area_config(
            sessions=(
                SessionPlan(
                    vehicle_id="home",
                    outlet_meter=3,
                    start_s=500.0,
                    energy_kwh=2.0,
                    duration_s=100.0,
                ),
            )
        )
        res = foggrid.run(cfg)
        s = res.sessions[0]
        assert s.state is SessionState.BILLED
        assert s.route_pattern is RoutePattern.COM_A
        assert s.started_at == 500.0
        assert s.ended_at == 600.0
        assert res.bills[0].debited_account == "acct-home"
        assert res.session_sources[s.session_id] == (0.0, 2.0)

    def test_roaming_round_trip_delayed_by_hops(self):
        plan = SessionPlan(
            vehicle_id="roam",
            outlet_meter=3,
            start_s=0.0,
            energy_kwh=1.0,
            duration_s=0.0,
        )
        instant = foggrid.run(self.two_area_config(sessions=(plan,)))
        slowed = foggrid.run(
            self.two_area_config(sessions=(plan,), hop_delay_s=1.0)
        )
        a, b = instant.sessions[0], slowed.sessions[0]
        assert a.state is SessionState.BILLED
        assert b.state is SessionState.BILLED
        assert a.route_pattern is RoutePattern.COM_D
        # Request and approval each cross four links of the 5-hop route.
        assert b.started_at == pytest.approx(a.started_at + 8.0)
        assert instant.trace.digest != slowed.trace.digest

    def test_roaming_request_is_sealed_from_fog(self):
        plan = SessionPlan(
            vehicle_id="roam", outlet_meter=3, start_s=0.0, energy_kwh=1.0
        )
        res = foggrid.run(
            self.two_area_config(sessions=(plan,), record_events=True)
        )
        request = [
            m
            for m in res.messages.values()
            if isinstance(m.content, SealedEnvelope)
            and m.content.inner.kind == "ChargeRequest"
        ]
        assert len(request) == 1
        assert request[0].content.keyholders == frozenset({3, 5})

    def test_unknown_vehicle_is_rejected(self):
        cfg = self.two_area_config(
            sessions=(
                SessionPlan(
                    vehicle_id="ghost", outlet_meter=3, start_s=1.0, energy_kwh=1.0
                ),
            )
        )
        res = foggrid.run(cfg)
        assert res.sessions[0].state is SessionState.REJECTED
        assert res.bills == ()
        assert res.session_sources == {}

    def test_session_after_horizon_never_starts(self):
        cfg = self.two_area_config(
            sessions=(
                SessionPlan(
                    vehicle_id="home",
                    outlet_meter=3,
                    start_s=99_999.0,
                    energy_kwh=1.0,
                ),
            )
        )
        assert foggrid.run(cfg).sessions == ()

    def test_steps_at_the_horizon_are_handled(self):
        """The horizon is inclusive: a self-charge that starts at it, with
        no charge duration, is billed at it."""
        plan = SessionPlan(vehicle_id="home", outlet_meter=3, start_s=10_000.0, energy_kwh=1.0)
        res = foggrid.run(self.two_area_config(sessions=(plan,), record_events=True))
        assert [(e.time, e.seq, e.kind.value, e.node) for e in res.trace.events] == [
            (10_000.0, 0, "SessionStep", 3),
            (10_000.0, 1, "SessionStep", 3),
        ]
        assert res.sessions[0].state is SessionState.BILLED
        assert res.sessions[0].ended_at == 10_000.0

    def test_charge_still_pending_at_horizon(self):
        cfg = self.two_area_config(
            sessions=(
                SessionPlan(
                    vehicle_id="home",
                    outlet_meter=3,
                    start_s=9_000.0,
                    energy_kwh=1.0,
                    duration_s=5_000.0,
                ),
            )
        )
        res = foggrid.run(cfg)
        assert res.sessions[0].state is SessionState.CHARGING
        assert res.bills == ()

    def crossing_sessions(self, **overrides):
        """Each outlet charges the other area's vehicle, both at t = 10 s
        with no hop delay, so both requests reach their idle gateways (1
        and 2) at the same instant: gateway 1's ServiceStart is queued
        while gateway 2's arrival is still pending, and is handled after
        it."""
        sessions = tuple(
            SessionPlan(vehicle_id=v, outlet_meter=m, start_s=10.0, energy_kwh=1.0)
            for v, m in (("roam", 3), ("home", 5))
        )
        return self.two_area_config(sessions=sessions, record_events=True, **overrides)

    def test_same_instant_services_draw_their_own_streams(self):
        cfg = self.crossing_sessions()
        res = foggrid.run(cfg)
        scan_trace(res, cfg.topology)
        assert [s.state for s in res.sessions] == [SessionState.BILLED] * 2
        started: dict[int, float] = {}
        served: dict[int, list[float]] = {}
        for e in res.trace.events:
            if e.kind is EventKind.SERVICE_START:
                started[e.node] = e.time
            elif e.kind is EventKind.SERVICE_END:
                served.setdefault(e.node, []).append(e.time - started.pop(e.node))
        # Every ComD request and approval is served once at each server.
        assert sorted(served) == [0, 1, 2]
        for node, times in served.items():
            key = (engine._PURPOSE_SERVICE, node)
            stream = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=key))
            )
            assert len(times) == 4
            # Every server serves at 1/s.
            assert times == pytest.approx(stream.exponential(1.0, 4).tolist(), rel=1e-9)

    def test_hop_delay_that_rounds_away_orders_by_seq(self):
        """A forward lands hop_delay_s after the event that sends it, and
        10 + 5e-324 rounds to 10: every forward here lands at its sender's
        instant, so only seq orders it against the same-instant events
        queued before and after it. Pinned from the single-heap engine."""
        cfg = self.crossing_sessions(hop_delay_s=5e-324)
        assert 10.0 + cfg.hop_delay_s == 10.0
        res = foggrid.run(cfg)
        assert [(e.time, e.seq, e.kind.value, e.node) for e in res.trace.events] == [
            (10.0, 0, "SessionStep", 3),
            (10.0, 1, "SessionStep", 5),
            (10.0, 2, "Arrival", 3),
            (10.0, 3, "Arrival", 5),
            (10.0, 4, "Arrival", 1),
            (10.0, 5, "Arrival", 2),
            (10.0, 6, "ServiceStart", 1),
            (10.0, 7, "ServiceStart", 2),
            (10.219388041693206, 9, "ServiceEnd", 2),
            (10.219388041693206, 10, "Arrival", 0),
            (10.219388041693206, 11, "ServiceStart", 0),
            (10.718862781696288, 12, "ServiceEnd", 0),
            (10.718862781696288, 13, "Arrival", 1),
            (10.741071311303582, 8, "ServiceEnd", 1),
            (10.741071311303582, 14, "ServiceStart", 1),
            (10.741071311303582, 15, "Arrival", 0),
            (10.741071311303582, 17, "ServiceStart", 0),
            (11.465081536510366, 16, "ServiceEnd", 1),
            (11.465081536510366, 19, "Arrival", 3),
            (11.465081536510366, 20, "SessionStep", 3),
            (11.465081536510366, 21, "Arrival", 3),
            (11.465081536510366, 22, "Arrival", 1),
            (11.465081536510366, 23, "ServiceStart", 1),
            (11.48294360230154, 24, "ServiceEnd", 1),
            (11.48294360230154, 25, "Arrival", 0),
            (12.275986864759489, 18, "ServiceEnd", 0),
            (12.275986864759489, 26, "ServiceStart", 0),
            (12.275986864759489, 27, "Arrival", 2),
            (12.275986864759489, 29, "ServiceStart", 2),
            (12.570134832083117, 30, "ServiceEnd", 2),
            (12.570134832083117, 31, "Arrival", 5),
            (12.570134832083117, 32, "SessionStep", 5),
            (12.570134832083117, 33, "Arrival", 5),
            (12.570134832083117, 34, "Arrival", 2),
            (12.570134832083117, 35, "ServiceStart", 2),
            (12.694575376781408, 36, "ServiceEnd", 2),
            (12.694575376781408, 37, "Arrival", 0),
            (13.757178973900023, 28, "ServiceEnd", 0),
            (13.757178973900023, 38, "ServiceStart", 0),
            (13.757178973900023, 39, "Arrival", 2),
            (13.757178973900023, 41, "ServiceStart", 2),
            (13.988652221089096, 42, "ServiceEnd", 2),
            (13.988652221089096, 43, "Arrival", 5),
            (13.988652221089096, 44, "SessionStep", 5),
            (13.988652221089096, 45, "SessionStep", 5),
            (14.473642146596587, 40, "ServiceEnd", 0),
            (14.473642146596587, 46, "Arrival", 1),
            (14.473642146596587, 47, "ServiceStart", 1),
            (14.782311949815668, 48, "ServiceEnd", 1),
            (14.782311949815668, 49, "Arrival", 3),
            (14.782311949815668, 50, "SessionStep", 3),
            (14.782311949815668, 51, "SessionStep", 3),
        ]
        assert res.trace.digest == "41ce325b113ec858"
        # A delay that rounds away is no delay.
        assert foggrid.run(self.crossing_sessions()).trace.digest == res.trace.digest

    def test_times_overflowing_to_infinity_end_the_run(self):
        """Every time that overflows lands at +inf, past any horizon: here
        a forward (1.7e308 + FLOAT_MAX) and a charge completion (1e308 +
        FLOAT_MAX), tied at inf with the heap's end-of-run entry. Pinned
        from the engine whose loop stopped on an empty heap."""
        cfg = RunConfig(
            seed=3,
            horizon_s=FLOAT_MAX,
            warmup_s=0.0,
            topology=grid_topology(areas=1, devices_per_area=2),
            vehicle_registry={"ev": MeterIdentity(meter=3, owner_account="acct-ev")},
            sessions=(
                SessionPlan(vehicle_id="ev", outlet_meter=2, start_s=1.7e308, energy_kwh=1.0),
                SessionPlan(
                    vehicle_id="ev",
                    outlet_meter=3,
                    start_s=1e308,
                    energy_kwh=1.0,
                    duration_s=FLOAT_MAX,
                ),
            ),
            hop_delay_s=FLOAT_MAX,
            record_events=True,
        )
        res = foggrid.run(cfg)
        assert [(e.time, e.seq, e.kind.value, e.node) for e in res.trace.events] == [
            (1e308, 1, "SessionStep", 3),
            (1.7e308, 0, "SessionStep", 2),
            (1.7e308, 3, "Arrival", 2),
        ]
        assert res.trace.digest == "e6bf2ec59d60da0b"
        assert [s.state for s in res.sessions] == [
            SessionState.OWNER_RESOLVED,
            SessionState.CHARGING,
        ]

    def test_arrivals_at_the_warmup_instant_count(self):
        cfg = self.crossing_sessions(warmup_s=10.0)
        res = foggrid.run(cfg)
        window = cfg.horizon_s - cfg.warmup_s
        # Both requests leave their outlets, and reach gateways 1 and 2,
        # at the warmup instant; each node handles four messages.
        for node in (0, 1, 2, 3, 5):
            assert round(res.queue_stats[node].lambda_hat * window) == 4
        assert [res.queue_stats[node].samples for node in (0, 1, 2)] == [4, 4, 4]


def test_a_finished_run_leaves_no_cycle_through_the_engine(monkeypatch):
    """Pending entries hold plain functions, never bound methods, so no
    reference cycle runs through the engine: reference counting frees it
    when run returns, and a compare's first run is gone before its second
    starts, even with the collector off."""
    refs = []

    class Recorded(engine._Engine):
        def __init__(self, cfg):
            super().__init__(cfg)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(engine, "_Engine", Recorded)
    cfg = parse_config(BENCH_TINY["roaming-island"]).run_config
    enabled = gc.isenabled()
    gc.disable()
    try:
        res = foggrid.run(cfg)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        if enabled:
            gc.enable()
    assert res.bills


class TestEnergySourcing:
    def plans(self, *energies, start=100.0, spacing=100.0):
        return tuple(
            SessionPlan(
                vehicle_id="home",
                outlet_meter=3,
                start_s=start + i * spacing,
                energy_kwh=e,
            )
            for i, e in enumerate(energies)
        )

    def registry(self):
        # grid_topology(areas=1, devices_per_area=1): device 2 is the meter.
        return {"home": MeterIdentity(meter=2, owner_account="acct-home")}

    def config(self, **overrides):
        base = dict(
            seed=1,
            horizon_s=10_000.0,
            warmup_s=0.0,
            topology=grid_topology(areas=1, devices_per_area=1),
            vehicle_registry=self.registry(),
        )
        base.update(overrides)
        return RunConfig(**base)

    def test_battery_first_then_grid(self):
        # grid_topology(areas=1): cloud 0, fog 1, device 2.
        registry = {"home": MeterIdentity(meter=2, owner_account="a")}
        plans = tuple(
            SessionPlan(
                vehicle_id="home", outlet_meter=2, start_s=10.0 + i, energy_kwh=3.0
            )
            for i in range(2)
        )
        res = foggrid.run(
            self.config(
                vehicle_registry=registry,
                sessions=plans,
                bess=BessState(capacity_kwh=10.0, soc_kwh=5.0),
            )
        )
        assert res.session_sources[0] == (3.0, 0.0)  # battery had 5 kWh
        assert res.session_sources[1] == (0.0, 3.0)  # 2 kWh left: grid covers
        assert res.bess_final.soc_kwh == 2.0
        assert [s.state for s in res.sessions] == [SessionState.BILLED] * 2

    def test_islanded_with_depleted_battery_rejects(self):
        registry = {"home": MeterIdentity(meter=2, owner_account="a")}
        plans = tuple(
            SessionPlan(
                vehicle_id="home", outlet_meter=2, start_s=10.0 + i, energy_kwh=3.0
            )
            for i in range(2)
        )
        res = foggrid.run(
            self.config(
                vehicle_registry=registry,
                sessions=plans,
                bess=BessState(capacity_kwh=10.0, soc_kwh=4.0),
                grid_available=False,
            )
        )
        assert res.microgrid_mode is MicrogridMode.AUTONOMOUS
        assert res.sessions[0].state is SessionState.BILLED
        assert res.sessions[1].state is SessionState.REJECTED
        assert "autonomous" in res.sessions[1].reject_reason

    def test_scheduled_charge_tops_up_with_curtailment(self):
        res = foggrid.run(
            self.config(
                bess=BessState(capacity_kwh=10.0, soc_kwh=9.0, efficiency=1.0),
                bess_charge_schedule=(BessChargeEntry(at_s=50.0, energy_kwh=5.0),),
            )
        )
        assert res.bess_final.soc_kwh == 10.0  # 4 of the 5 kWh were curtailed

    def test_charge_efficiency_applies(self):
        res = foggrid.run(
            self.config(
                bess=BessState(capacity_kwh=10.0, soc_kwh=0.0, efficiency=0.8),
                bess_charge_schedule=(BessChargeEntry(at_s=50.0, energy_kwh=5.0),),
            )
        )
        assert res.bess_final.soc_kwh == 4.0

    def test_schedule_feeds_battery_before_session_draws(self):
        registry = {"home": MeterIdentity(meter=2, owner_account="a")}
        res = foggrid.run(
            self.config(
                vehicle_registry=registry,
                sessions=(
                    SessionPlan(
                        vehicle_id="home",
                        outlet_meter=2,
                        start_s=100.0,
                        energy_kwh=3.0,
                    ),
                ),
                bess=BessState(capacity_kwh=10.0, soc_kwh=0.0),
                bess_charge_schedule=(BessChargeEntry(at_s=50.0, energy_kwh=5.0),),
                grid_available=False,
            )
        )
        assert res.sessions[0].state is SessionState.BILLED
        assert res.session_sources[0] == (3.0, 0.0)
        assert res.bess_final.soc_kwh == 2.0


@pytest.fixture
def no_engine(monkeypatch):
    """Fail any test that gets as far as building an engine."""

    def refuse(cfg):
        raise AssertionError("the engine was built for a rejected config")

    monkeypatch.setattr(engine, "_Engine", refuse)


class TestConfigValidation:
    def test_invalid_topology_rejected(self):
        topo = make_topology([fog_node(1, area=0), device_node(2, area=0)])
        cfg = RunConfig(seed=0, horizon_s=10.0, warmup_s=0.0, topology=topo)
        with pytest.raises(InvalidTopology):
            foggrid.run(cfg)

    def test_warmup_must_precede_horizon(self):
        with pytest.raises(ValueError):
            foggrid.run(one_area_config(warmup_s=200_000.0))
        with pytest.raises(ValueError):
            foggrid.run(one_area_config(warmup_s=-1.0))

    def test_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            foggrid.run(one_area_config(horizon_s=0.0))

    def test_negative_hop_delay(self):
        with pytest.raises(ValueError):
            foggrid.run(one_area_config(hop_delay_s=-0.5))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(horizon_s=0.0),
            dict(horizon_s=float("inf"), warmup_s=0.0),
            dict(horizon_s=float("nan")),
            dict(warmup_s=-1.0),
            dict(warmup_s=float("nan")),
            dict(hop_delay_s=-0.5),
            dict(hop_delay_s=float("nan")),
            dict(hop_delay_s=float("inf")),
            dict(sessions=(SessionPlan("ev", 2, 10.0, 1.0, duration_s=-500.0),)),
            dict(sessions=(SessionPlan("ev", 2, 10.0, 1.0, duration_s=float("nan")),)),
            dict(sessions=(SessionPlan("ev", 2, 10.0, 1.0, duration_s=float("inf")),)),
            dict(sessions=(SessionPlan("ev", 2, -50.0, 1.0),)),
            dict(sessions=(SessionPlan("ev", 2, float("nan"), 1.0),)),
            dict(sessions=(SessionPlan("ev", 2, float("-inf"), 1.0),)),
            dict(bess_charge_schedule=(BessChargeEntry(float("nan"), 1.0), BessChargeEntry(5.0, 1.0))),
            dict(bess_charge_schedule=(BessChargeEntry(-1.0, 1.0),)),
            dict(bess_charge_schedule=(BessChargeEntry(5.0, -2.0),)),
            dict(bess_charge_schedule=(BessChargeEntry(5.0, float("inf")),)),
            dict(sessions=(SessionPlan("ev", 2, 10.0, float("nan")),)),
            dict(sessions=(SessionPlan("ev", 2, 10.0, float("inf")),)),
            dict(tariff_per_kwh=float("nan")),
            dict(tariff_per_kwh=float("inf")),
            dict(tariff_per_kwh=0.0),
            dict(tariff_per_kwh=-1.0),
            dict(seed=-1),
            dict(seed=1.5),
            dict(seed=True),
            dict(bess=BessState(capacity_kwh=10.0, soc_kwh=20.0)),
            dict(bess=BessState(capacity_kwh=-5.0, soc_kwh=0.0)),
            dict(bess=BessState(capacity_kwh=float("nan"), soc_kwh=0.0)),
            dict(bess=BessState(capacity_kwh=10.0, soc_kwh=5.0, efficiency=2.0)),
            dict(bess=BessState(capacity_kwh=10.0, soc_kwh=5.0, efficiency=-1.0)),
            dict(bess=BessState(capacity_kwh=10.0, soc_kwh=-3.0)),
            # Private data sealed for fog node 1, which may hold no keys.
            dict(
                arrival_processes=(
                    ArrivalProcess(
                        rate_per_s=1.0, target=1, payload_kind=METER_READING, size_bytes=64
                    ),
                )
            ),
            # Registry meters that are not device-tier nodes: fog 1, cloud 0,
            # and an id the topology does not define.
            *(
                dict(
                    vehicle_registry={"ev": MeterIdentity(meter, "acct")},
                    sessions=(SessionPlan("ev", 2, 10.0, 1.0),),
                )
                for meter in (1, 0, 99999)
            ),
        ],
        ids=repr,
    )
    def test_preconditions_raise_typed_error(self, overrides, no_engine):
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(one_area_config(**overrides))
        assert isinstance(exc.value, FogGridError)
        assert isinstance(exc.value, ValueError)

    def test_every_problem_is_listed_before_the_engine_is_built(self, no_engine):
        cfg = one_area_config(
            seed=-1,
            tariff_per_kwh=0.0,
            sessions=(SessionPlan("ev", 1, 10.0, 1.0),),
        )
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(cfg)
        assert exc.value.problems == [
            "seed: must be an integer in [0, 2**64), got -1",
            "tariff_per_kwh: must be finite and positive, got 0.0",
            "sessions[0].outlet_meter: node 1 is not a device-tier meter",
        ]
        assert engine.check_run_config(cfg) == exc.value.problems
        assert engine.check_run_config(one_area_config()) == []

    def test_registry_meter_error_names_the_vehicle(self):
        registry = {"ev-a": MeterIdentity(2, "a"), "ev-b": MeterIdentity(1, "b")}
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(one_area_config(vehicle_registry=registry))
        assert str(exc.value) == (
            "vehicle_registry.ev-b.meter: node 1 is not a device-tier meter"
        )

    @pytest.mark.parametrize(
        "rate, size",
        [(-1.0, 64), (float("inf"), 64), (float("nan"), 64), (1.0, 0)],
    )
    def test_bad_arrival_process_raises_typed_error(self, rate, size):
        proc = ArrivalProcess(
            rate_per_s=rate, target=2, payload_kind=GRID_TELEMETRY, size_bytes=size
        )
        with pytest.raises(InvalidRunConfig):
            foggrid.run(one_area_config(arrival_processes=(proc,)))

    def test_unknown_arrival_target(self):
        cfg = one_area_config(
            arrival_processes=(
                ArrivalProcess(
                    rate_per_s=1.0,
                    target=99,
                    payload_kind=GRID_TELEMETRY,
                    size_bytes=64,
                ),
            )
        )
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(cfg)
        assert exc.value.problems == ["arrival_processes[0].target: node 99 is not defined"]

    def test_unclassified_payload_kind(self):
        cfg = one_area_config(
            arrival_processes=(
                ArrivalProcess(
                    rate_per_s=1.0, target=2, payload_kind="Mystery", size_bytes=64
                ),
            )
        )
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(cfg)
        assert exc.value.problems == [
            "arrival_processes[0].payload_kind: 'Mystery' has no classification entry"
        ]

    def test_fog_outlet_rejected(self):
        cfg = one_area_config(
            sessions=(
                SessionPlan(
                    vehicle_id="v", outlet_meter=1, start_s=0.0, energy_kwh=1.0
                ),
            )
        )
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(cfg)
        assert exc.value.problems == [
            "sessions[0].outlet_meter: node 1 is not a device-tier meter"
        ]

    def test_negative_session_energy(self):
        cfg = one_area_config(
            sessions=(
                SessionPlan(
                    vehicle_id="v", outlet_meter=2, start_s=0.0, energy_kwh=-1.0
                ),
            )
        )
        with pytest.raises(InvalidRunConfig) as exc:
            foggrid.run(cfg)
        assert exc.value.problems == [
            "sessions[0].energy_kwh: must be finite and nonnegative, got -1.0"
        ]


#: Numbers no value rule admits: nan, the infinities, and ints beyond the
#: float range (an int is compared exactly, never converted).
BEYOND_FLOATS = [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]

#: (record, field, path) of every float field of a run config, with the
#: path its line starts with; node fields are owned by validate_topology.
FLOAT_FIELDS = [
    ("RunConfig", "horizon_s", "horizon_s"),
    ("RunConfig", "warmup_s", "warmup_s"),
    ("RunConfig", "tariff_per_kwh", "tariff_per_kwh"),
    ("RunConfig", "hop_delay_s", "hop_delay_s"),
    ("ArrivalProcess", "rate_per_s", "arrival_processes[0].rate_per_s"),
    ("SessionPlan", "start_s", "sessions[0].start_s"),
    ("SessionPlan", "energy_kwh", "sessions[0].energy_kwh"),
    ("SessionPlan", "duration_s", "sessions[0].duration_s"),
    ("BessState", "capacity_kwh", "bess.capacity_kwh"),
    ("BessState", "soc_kwh", "bess.soc_kwh"),
    ("BessState", "efficiency", "bess.efficiency"),
    ("BessChargeEntry", "at_s", "bess_charge_schedule[0].at_s"),
    ("BessChargeEntry", "energy_kwh", "bess_charge_schedule[0].energy_kwh"),
    ("Node", "service_rate_per_s", "service rate: node 1"),
    ("DeviceSpec", "power_active_mw", "spec non-finite: node 1"),
    ("DeviceSpec", "power_idle_mw", "spec non-finite: node 1"),
]

#: (record, field) of every integer of a run config that is not a node
#: reference; a node id nothing defines is a reference line instead.
INT_FIELDS = [
    ("RunConfig", "seed"),
    ("ArrivalProcess", "size_bytes"),
    ("Node", "id"),
    ("Node", "area"),
]


#: More digits than Python converts to text (sys.get_int_max_str_digits).
HUGE = 10**5000
_HUGE_TEXT = "an integer of 16,610 bits"

#: (record, field, value, first line) of each integer of ``config_with``
#: that holds HUGE, the registry meter among them.
HUGE_CASES = [
    ("Node", "id", HUGE, f"id range: node id {_HUGE_TEXT} is beyond the float range"),
    (
        "Node",
        "area",
        HUGE,
        f"area range: node 1 has area {_HUGE_TEXT} beyond the float range",
    ),
    (
        "ArrivalProcess",
        "size_bytes",
        HUGE,
        "arrival_processes[0].size_bytes: "
        f"must be positive and within the float range, got {_HUGE_TEXT}",
    ),
    ("RunConfig", "seed", HUGE, f"seed: must be an integer in [0, 2**64), got {_HUGE_TEXT}"),
    (
        "ArrivalProcess",
        "target",
        HUGE,
        f"arrival_processes[0].target: node {_HUGE_TEXT} is not defined",
    ),
    (
        "SessionPlan",
        "outlet_meter",
        HUGE,
        f"sessions[0].outlet_meter: node {_HUGE_TEXT} is not defined",
    ),
    (
        "RunConfig",
        "vehicle_registry",
        {"ev": MeterIdentity(meter=HUGE, owner_account="ev-owner")},
        f"vehicle_registry.ev.meter: node {_HUGE_TEXT} is not defined",
    ),
]


def int_line(name: str, value: int) -> str:
    """The first line of ``config_with`` holding ``value`` in the INT_FIELDS
    field ``name``: its owner's, check_run_values or validate_topology."""
    return {
        "seed": f"seed: must be an integer in [0, 2**64), got {value!r}",
        "size_bytes": "arrival_processes[0].size_bytes: "
        f"must be positive and within the float range, got {value!r}",
        "id": f"negative id: node id {value}"
        if value < 0
        else f"id range: node id {value} is beyond the float range",
        "area": f"negative area: node 1 has area {value}"
        if value < 0
        else f"area range: node 1 has area {value} beyond the float range",
    }[name]


def config_with(record: str = "", name: str = "", value=None) -> RunConfig:
    """A valid config with a battery, a top-up and a session; the one
    ``record`` of that class name, if given, holds ``value`` in ``name``."""

    def put(obj):
        return dataclasses.replace(obj, **{name: value}) if type(obj).__name__ == record else obj

    fog = put(fog_node(1, area=0))
    fog = dataclasses.replace(fog, spec=put(fog.spec))
    proc = ArrivalProcess(rate_per_s=0.1, target=2, payload_kind=GRID_TELEMETRY, size_bytes=64)
    return put(
        RunConfig(
            seed=0,
            horizon_s=1000.0,
            warmup_s=10.0,
            topology=make_topology([cloud_node(), fog, device_node(2, area=0)]),
            arrival_processes=(put(proc),),
            sessions=(put(SessionPlan("ev", 2, 10.0, 1.0, 60.0)),),
            bess=put(BessState(capacity_kwh=10.0, soc_kwh=5.0, efficiency=0.9)),
            bess_charge_schedule=(put(BessChargeEntry(at_s=10.0, energy_kwh=1.0)),),
        )
    )


class TestNumbersOfAnySize:
    def test_the_base_config_is_valid(self):
        cfg = config_with()
        assert foggrid.validate_topology(cfg.topology) == []
        assert engine.check_run_config(cfg) == []

    @pytest.mark.parametrize("value", BEYOND_FLOATS, ids=["nan", "inf", "-inf", "1e400", "-1e400"])
    @pytest.mark.parametrize("record, name, path", FLOAT_FIELDS, ids=lambda v: v)
    def test_typed_error_names_the_field(self, record, name, path, value, no_engine):
        with pytest.raises((InvalidRunConfig, InvalidTopology)) as exc:
            foggrid.run(config_with(record, name, value))
        if record == "Node":
            assert exc.value.problems == [
                f"{path}: {name} must be positive and finite, got {value!r}"
            ]
        elif record == "DeviceSpec":
            beyond = isinstance(value, int)
            detail = f"{name} is beyond the float range" if beyond else f"{name}={value!r}"
            assert exc.value.problems[0] == f"{path}: {detail}"
        else:
            [line] = exc.value.problems
            assert line.startswith(f"{path}: ") and line.endswith(f", got {value!r}")

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize("record, name", INT_FIELDS, ids=lambda v: v)
    def test_integer_rejected_by_its_owner(self, record, name, value, no_engine):
        # An integer has no float-range rule of its own: the rule that
        # owns the value states its range.
        with pytest.raises((InvalidRunConfig, InvalidTopology)) as exc:
            foggrid.run(config_with(record, name, value))
        lines = exc.value.problems
        assert lines[0] == int_line(name, value)

    @pytest.mark.parametrize(
        "record, name, value, line", HUGE_CASES, ids=[f"{r}.{n}" for r, n, *_ in HUGE_CASES]
    )
    def test_integer_too_long_to_print(self, record, name, value, line, no_engine):
        # Python converts at most sys.get_int_max_str_digits() digits to
        # text; a longer integer is shown by its size, never raised as a
        # bare ValueError while the line is built.
        with pytest.raises((InvalidRunConfig, InvalidTopology)) as exc:
            foggrid.run(config_with(record, name, value))
        lines = exc.value.problems
        assert lines[0] == line
        assert str(exc.value)


def test_shown():
    assert shown(10**400) == repr(10**400)
    assert shown(1.5) == "1.5" and shown("ev") == "'ev'" and shown("ev", str) == "ev"
    assert shown(HUGE) == "an integer of 16,610 bits"
    assert shown(-HUGE) == "a negative integer of 16,610 bits"
    assert shown([1, HUGE]) == "a list holding an integer too long to print"


_REGISTRY = {"ev": MeterIdentity(meter=2, owner_account="acct")}


def _session(session_id=1):
    """Session ``session_id`` of vehicle ev, requested at its own meter 2."""
    return foggrid.initiate_session(session_id, "ev", 2, _REGISTRY, grid_topology(1, 1))


def _metered(session_id):
    """``_session(session_id)`` metered with 1 kWh."""
    s, _ = foggrid.resolve_owner(_session(session_id), _REGISTRY, grid_topology(1, 1))
    return foggrid.meter_energy(foggrid.authorize(s), 1.0)


def _envelope():
    return foggrid.seal(foggrid.Payload(METER_READING, 1), {0}, grid_topology(1, 1))


#: (typed error, call) of every helper whose error text shows a number it
#: is given: cloud 0, fog 1 and device 2 in one area, and HUGE or -HUGE.
HUGE_CALLS = {
    "Topology.node": (KeyError, lambda: grid_topology(1, 1).node(HUGE)),
    "resolve_route": (foggrid.UnknownNode, lambda: resolve_route(2, HUGE, grid_topology(1, 1))),
    "serving_node": (
        foggrid.NoRoute,
        lambda: messages.serving_node(device_node(HUGE, area=HUGE), grid_topology(1, 1)),
    ),
    "open_envelope": (foggrid.NotKeyholder, lambda: foggrid.open_envelope(_envelope(), HUGE)),
    "check_keyholders": (
        foggrid.FogKeyholderForbidden,
        lambda: messages.check_keyholders(
            {HUGE}, make_topology([cloud_node(), fog_node(HUGE, area=0)])
        ),
    ),
    "initiate_session": (
        foggrid.UnknownOutlet,
        lambda: foggrid.initiate_session(1, "ev", HUGE, {}, grid_topology(1, 1)),
    ),
    "meter_energy": (foggrid.NegativeEnergy, lambda: foggrid.meter_energy(_session(), -HUGE)),
    "settle_bill": (foggrid.NonpositiveTariff, lambda: foggrid.settle_bill(_session(), -HUGE, {})),
    "InvalidState-step": (foggrid.InvalidState, lambda: foggrid.authorize(_session(HUGE))),
    "InvalidState-resolve_owner": (
        foggrid.InvalidState,
        lambda: foggrid.resolve_owner(
            foggrid.reject_session(_session(HUGE), "test"), {}, grid_topology(1, 1)
        ),
    ),
    "InvalidState-settle_bill": (
        foggrid.InvalidState,
        lambda: foggrid.settle_bill(_metered(HUGE), 0.2, {}),
    ),
    "accrue_energy": (
        foggrid.NegativeDuration,
        lambda: foggrid.accrue_energy(
            foggrid.EnergyLedger(1), foggrid.default_fog_spec(), -HUGE, 0.0
        ),
    ),
    "processing_time": (
        foggrid.NonpositiveN,
        lambda: foggrid.processing_time(foggrid.ProcessingModel(), -HUGE),
    ),
    "mm1_analytic": (foggrid.Unstable, lambda: mm1_analytic(HUGE, 1.0)),
    "calibrate_service_rate": (
        foggrid.NonpositiveTarget,
        lambda: foggrid.calibrate_service_rate(-HUGE, 0.1),
    ),
}


@pytest.mark.parametrize("name", HUGE_CALLS)
def test_typed_error_shows_an_integer_too_long_to_print(name):
    error, call = HUGE_CALLS[name]
    with pytest.raises(error) as exc:
        call()
    assert "integer of 16,610 bits" in str(exc.value)


def _bess():
    return BessState(capacity_kwh=10.0, soc_kwh=5.0)


def _accrue(active_s, idle_s):
    ledger, spec = foggrid.EnergyLedger(1), foggrid.default_fog_spec()
    return foggrid.accrue_energy(ledger, spec, active_s, idle_s)


#: (typed error, call of one number) of each helper argument whose rule is
#: a finite range. Beyond the float range mm1_analytic's lam is Unstable
#: (lam >= mu, a HUGE_CALLS case) and processing_time is inf, so those two
#: take nan only.
RANGE_CALLS = {
    "bess_charge": (ValueError, lambda x: foggrid.bess_charge(_bess(), x)),
    "bess_charge_curtailed": (ValueError, lambda x: foggrid.bess_charge_curtailed(_bess(), x)),
    "bess_discharge": (ValueError, lambda x: foggrid.bess_discharge(_bess(), x)),
    "accrue_energy-active": (foggrid.NegativeDuration, lambda x: _accrue(x, 0.0)),
    "accrue_energy-idle": (foggrid.NegativeDuration, lambda x: _accrue(0.0, x)),
    "meter_energy": (foggrid.NegativeEnergy, lambda x: foggrid.meter_energy(_session(), x)),
    "settle_bill": (
        foggrid.NonpositiveTariff,
        lambda x: foggrid.settle_bill(_metered(1), x, _REGISTRY),
    ),
    "mm1_analytic-mu": (ValueError, lambda x: mm1_analytic(1.0, x)),
    "mm1_analytic-lam": (ValueError, lambda x: mm1_analytic(x, 1.0)),
    "calibrate_service_rate-target": (
        foggrid.NonpositiveTarget,
        lambda x: foggrid.calibrate_service_rate(x, 0.1),
    ),
    "calibrate_service_rate-lam": (ValueError, lambda x: foggrid.calibrate_service_rate(1.0, x)),
    "processing_time": (
        foggrid.NonpositiveN,
        lambda x: foggrid.processing_time(foggrid.ProcessingModel(), x),
    ),
}
_NAN_ONLY = ("mm1_analytic-lam", "processing_time")


@pytest.mark.parametrize(
    "name, value",
    [
        pytest.param(name, value, id=f"{name}-{label}")
        for name in RANGE_CALLS
        for label, value in (("nan", float("nan")), ("inf", float("inf")), ("huge", HUGE))
        if label == "nan" or name not in _NAN_ONLY
    ],
)
def test_argument_beyond_its_finite_range_raises_the_typed_error(name, value):
    error, call = RANGE_CALLS[name]
    with pytest.raises(error):
        call(value)
