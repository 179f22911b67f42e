"""Deterministic discrete-event engine: determinism, queue statistics,
trace structure, session protocol, and energy sourcing."""

import dataclasses
import itertools

import numpy as np
import pytest
from conftest import cloud_node, device_node, fog_node, grid_topology, make_topology

import foggrid
from foggrid import engine
from foggrid import (
    GRID_TELEMETRY,
    METER_READING,
    ArrivalProcess,
    BessChargeEntry,
    BessState,
    EventKind,
    FogGridError,
    InvalidRunConfig,
    InvalidTopology,
    MeterIdentity,
    MicrogridMode,
    RoutePattern,
    RunConfig,
    SealedEnvelope,
    SessionPlan,
    SessionState,
    Tier,
    littles_law_residual,
    mm1_analytic,
    resolve_route,
)

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
            assert [str(v) for v in exc.value.violations] == [
                f"{path}: {name} must be positive and finite, got {value!r}"
            ]
        elif record == "DeviceSpec":
            beyond = isinstance(value, int)
            detail = f"{name} is beyond the float range" if beyond else f"{name}={value!r}"
            assert str(exc.value.violations[0]) == f"{path}: {detail}"
        else:
            [line] = exc.value.problems
            assert line.startswith(f"{path}: ") and line.endswith(f", got {value!r}")
