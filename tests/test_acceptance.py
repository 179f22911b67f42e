"""Acceptance suite: the nine headline properties of the simulator.

Each test prints one ``criterion N: PASS/FAIL - detail`` line (run pytest
with ``-s`` to see the lines as they pass). Criterion 3 simulates fifty
million-second horizons and takes on the order of a minute; everything
else is fast.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
from conftest import cloud_node, grid_topology, make_topology, random_valid_topology, shortest_route_oracle

import foggrid
from foggrid import (
    GRID_TELEMETRY,
    ArrivalProcess,
    BessState,
    DataClass,
    EnergyLedger,
    MeterIdentity,
    Mode,
    NotKeyholder,
    ProcessingModel,
    RoutePattern,
    RunConfig,
    SealedEnvelope,
    SessionPlan,
    SessionState,
    accrue_energy,
    calibrate_service_rate,
    compare_frameworks,
    default_cloud_spec,
    default_fog_spec,
    littles_law_residual,
    mm1_analytic,
    open_envelope,
    parse_config,
    processing_time,
    resolve_route,
    with_overrides,
)
from foggrid.cli import main as cli_main

LAM = 1 / 60
MU_FOG = calibrate_service_rate(84.0, LAM)
MU_CLOUD = calibrate_service_rate(188.0, LAM)

CALIBRATED_SCENARIO = (
    "run: {horizon_s: 1000000.0, warmup_s: 10000.0}\n"
    "topology:\n"
    "  nodes:\n"
    f"    - {{id: 0, tier: cloud, service_rate_per_s: {MU_CLOUD!r}}}\n"
    f"    - {{id: 1, tier: fog, area: 0, service_rate_per_s: {MU_FOG!r}}}\n"
    "    - {id: 2, tier: device, area: 0}\n"
    "workload:\n"
    "  arrival_processes:\n"
    f"    - {{rate_per_s: {LAM!r}, target: 2, payload_kind: GridTelemetry, size_bytes: 64}}\n"
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_waiting_times():
    """Mean sojourn within 10% of 84 s (fog) and 188 s (cloud) for at
    least 18 of 20 seeds."""
    sc = parse_config(CALIBRATED_SCENARIO)
    assert sc.run_config.topology.node(1).service_rate_per_s == MU_FOG
    assert sc.run_config.topology.node(0).service_rate_per_s == MU_CLOUD

    hits = 0
    worst_fog = 0.0
    worst_cloud = 0.0
    for seed in range(20):
        comp = compare_frameworks(with_overrides(sc, seed=seed))
        fog_err = abs(comp.fog.mean_wait_s - 84.0) / 84.0
        cloud_err = abs(comp.cloud.mean_wait_s - 188.0) / 188.0
        worst_fog = max(worst_fog, fog_err)
        worst_cloud = max(worst_cloud, cloud_err)
        if fog_err <= 0.10 and cloud_err <= 0.10:
            hits += 1
    _verdict(
        1,
        hits >= 18,
        f"{hits}/20 seeds within 10% (worst fog err {worst_fog:.3f}, "
        f"worst cloud err {worst_cloud:.3f})",
    )


def test_criterion_2_power_ratio():
    """Equal active durations give a fog/cloud energy ratio of exactly
    199/489."""
    hours = 3600.0
    fog = accrue_energy(EnergyLedger(node=1), default_fog_spec(), hours, 0.0)
    cloud = accrue_energy(EnergyLedger(node=0), default_cloud_spec(), hours, 0.0)
    ratio = fog.energy_mj / cloud.energy_mj
    ok = ratio == 199.0 / 489.0
    _verdict(
        2,
        ok,
        f"fog {fog.energy_mj} mJ / cloud {cloud.energy_mj} mJ "
        f"= {ratio!r} (exact 199/489)",
    )


def test_criterion_3_littles_law_suite():
    """50 random stable single-server configs: measured W within 5% of
    analytic and Little's Law residual at most 0.05, horizon 1e6 s.

    The sample budget per config grows as (1 - rho)^-2.5, matching the
    empirical growth of the sojourn autocorrelation time, so every rho
    gets the same relative standard error (about 1.5%).
    """
    rng = np.random.default_rng(20260819)
    rhos = rng.uniform(0.1, 0.9, 50)
    budget = 6400.0

    worst_w = 0.0
    worst_resid = 0.0
    for i, rho in enumerate(rhos):
        lam = budget / ((1.0 - rho) ** 2.5 * 1e6)
        mu = lam / rho
        topo = make_topology([cloud_node(rate=mu)], mode=Mode.CLOUD_ONLY)
        cfg = RunConfig(
            seed=1000 + i,
            horizon_s=1e6,
            warmup_s=1e4,
            topology=topo,
            arrival_processes=(
                ArrivalProcess(
                    rate_per_s=lam,
                    target=0,
                    payload_kind=GRID_TELEMETRY,
                    size_bytes=64,
                ),
            ),
        )
        stats = foggrid.run(cfg).queue_stats[0]
        w_ref = mm1_analytic(lam, mu).W
        worst_w = max(worst_w, abs(stats.mean_wait_s - w_ref) / w_ref)
        worst_resid = max(worst_resid, littles_law_residual(stats))
    ok = worst_w <= 0.05 and worst_resid <= 0.05
    _verdict(
        3,
        ok,
        f"50 configs, rho in [{rhos.min():.3f}, {rhos.max():.3f}]: "
        f"worst W error {worst_w:.4f}, worst residual {worst_resid:.6f}",
    )


def test_criterion_4_analytic_round_trip():
    """calibrate_service_rate and mm1_analytic invert each other to
    relative error 1e-12 on 1000 random valid inputs, both directions.

    Valid here also means representable: recovering W after the rounded
    sum mu = lam + 1/W loses about (1 + lam*W) ulps, so doubles can only
    honour a 1e-12 bound while lam*W stays below roughly 4.5e3. Draws
    keep the product under 1e3. The reverse direction has no such limit;
    its error stays proportional to mu - lam.
    """
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform(0.0, 10.0))
        target = float(rng.uniform(1e-3, 100.0))
        w = mm1_analytic(lam, calibrate_service_rate(target, lam)).W
        worst = max(worst, abs(w - target) / target)

        mu = float(rng.uniform(0.0, 100.0))
        mu = mu + float(rng.uniform(1e-3, 1e3))
        lam2 = float(rng.uniform(0.0, 1.0)) * mu
        back = calibrate_service_rate(mm1_analytic(lam2, mu).W, lam2)
        worst = max(worst, abs(back - mu) / mu)
    _verdict(4, worst <= 1e-12, f"2000 round trips, worst relative error {worst:.2e}")


def test_criterion_5_routing_oracle():
    """resolve_route matches an independent BFS shortest-path oracle
    (length and pattern) on every pair of 100 random topologies."""
    rng = np.random.default_rng(5)
    pairs = 0
    mismatches = []
    for _ in range(100):
        t = random_valid_topology(rng)
        ids = [n.id for n in t.nodes]
        for src, dst in itertools.permutations(ids, 2):
            route = resolve_route(src, dst, t)
            expected = shortest_route_oracle(src, dst, t)
            got = (len(route.hops), route.pattern.value)
            if expected != got:
                mismatches.append((src, dst, got, expected))
            pairs += 1
    _verdict(
        5,
        not mismatches,
        f"{pairs} routed pairs agree with the oracle"
        + (f"; first mismatch {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_6_privacy():
    """No fog node can open any private envelope across a 10^4-message
    fuzz run, and local route patterns never touch the cloud."""
    topo = grid_topology(
        areas=3, devices_per_area=2, links=((0, 1),), fog_rate=5.0, cloud_rate=5.0
    )
    # Devices 4,5 (area 0), 6,7 (area 1), 8,9 (area 2); fogs 1,2,3.
    processes = tuple(
        ArrivalProcess(rate_per_s=0.05, target=dev, payload_kind=kind, size_bytes=128)
        for dev, kind in [
            (4, "MeterReading"),
            (6, "MeterReading"),
            (8, "BillingRecord"),
            (5, "GridTelemetry"),
            (7, "GridTelemetry"),
            (9, "GridTelemetry"),
        ]
    )
    registry = {
        "ev-far": MeterIdentity(meter=8, owner_account="acct-far"),
        "ev-near": MeterIdentity(meter=6, owner_account="acct-near"),
    }
    sessions = tuple(
        SessionPlan(
            vehicle_id=vid, outlet_meter=4, start_s=1000.0 * (i + 1), energy_kwh=1.0
        )
        for i, vid in enumerate(["ev-far", "ev-near"] * 5)
    )
    cfg = RunConfig(
        seed=6,
        horizon_s=40_000.0,
        warmup_s=0.0,
        topology=topo,
        arrival_processes=processes,
        sessions=sessions,
        vehicle_registry=registry,
        record_events=True,
    )
    result = foggrid.run(cfg)

    fog_ids = [n.id for n in topo.fog_nodes()]
    private = 0
    sealed_misses = []
    opened = 0
    attempts = 0
    for msg in result.messages.values():
        if msg.data_class is not DataClass.PRIVATE:
            continue
        private += 1
        if not isinstance(msg.content, SealedEnvelope):
            sealed_misses.append(msg.id)
            continue
        for fog_id in fog_ids:
            attempts += 1
            try:
                open_envelope(msg.content, fog_id)
                opened += 1
            except NotKeyholder:
                pass

    rng = np.random.default_rng(6)
    local_routes = 0
    cloud_leaks = 0
    for _ in range(50):
        t = random_valid_topology(rng)
        ids = [n.id for n in t.nodes]
        for src, dst in itertools.permutations(ids, 2):
            r = resolve_route(src, dst, t)
            if r.pattern in (RoutePattern.COM_A, RoutePattern.COM_B):
                local_routes += 1
                if t.cloud_id in r.hops:
                    cloud_leaks += 1

    ok = (
        result.messages_generated >= 10_000
        and private > 0
        and not sealed_misses
        and opened == 0
        and cloud_leaks == 0
    )
    _verdict(
        6,
        ok,
        f"{result.messages_generated} messages ({private} private), "
        f"{attempts} fog open attempts all refused, "
        f"{local_routes} local routes cloud-free",
    )


def test_criterion_7_billing_conservation():
    """Across 120 roaming sessions (with rejections of both kinds),
    delivered, metered, and billed energy agree exactly, and every debit
    lands on the vehicle owner's account."""
    topo = grid_topology(areas=2, devices_per_area=2)
    meters = [3, 4, 5, 6]
    registry = {
        f"ev-{i}": MeterIdentity(meter=meters[i % 4], owner_account=f"acct-{i}")
        for i in range(60)
    }
    sessions = tuple(
        SessionPlan(
            vehicle_id=f"ev-{i % 80}",  # i % 80 >= 60 is unregistered
            outlet_meter=meters[(i + 1) % 4],
            start_s=100.0 + 400.0 * i,
            energy_kwh=0.5 + (i % 7) * 0.25,
            duration_s=30.0,
        )
        for i in range(120)
    )
    cfg = RunConfig(
        seed=7,
        horizon_s=60_000.0,
        warmup_s=0.0,
        topology=topo,
        sessions=sessions,
        vehicle_registry=registry,
        bess=BessState(capacity_kwh=40.0, soc_kwh=40.0),
        grid_available=False,
    )
    result = foggrid.run(cfg)

    by_state: dict[str, int] = {}
    for s in result.sessions:
        by_state[s.state.value] = by_state.get(s.state.value, 0) + 1
    rejected_unknown = sum(
        1
        for s in result.sessions
        if s.state is SessionState.REJECTED and "registry" in s.reject_reason
    )
    rejected_dry = sum(
        1
        for s in result.sessions
        if s.state is SessionState.REJECTED and "autonomous" in s.reject_reason
    )

    delivered = math.fsum(
        part for pair in result.session_sources.values() for part in pair
    )
    metered = math.fsum(
        s.energy_kwh for s in result.sessions if s.state is SessionState.BILLED
    )
    billed = math.fsum(b.energy_kwh for b in result.bills)

    vehicle_of = {s.session_id: s.vehicle_id for s in result.sessions}
    misdirected = [
        b.session_id
        for b in result.bills
        if b.debited_account != registry[vehicle_of[b.session_id]].owner_account
    ]

    ok = (
        len(result.sessions) == 120
        and by_state.get("billed", 0) >= 1
        and rejected_unknown >= 1
        and rejected_dry >= 1
        and delivered == metered == billed
        and not misdirected
    )
    _verdict(
        7,
        ok,
        f"120 sessions ({by_state.get('billed', 0)} billed, "
        f"{rejected_unknown} unknown-vehicle and {rejected_dry} no-source "
        f"rejections); delivered = metered = billed = {billed} kWh; "
        "all debits on owner accounts",
    )


def test_criterion_8_compare_determinism(tmp_path, monkeypatch, capsys):
    """Two compare invocations with the same config and seed produce
    byte-identical output trees."""
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(CALIBRATED_SCENARIO, encoding="utf-8")

    for out in ("first", "second"):
        code = cli_main(
            [
                "compare",
                str(scenario),
                "--seed",
                "3",
                "--horizon",
                "50000",
                "--out",
                str(tmp_path / out),
            ]
        )
        assert code == 0
    capsys.readouterr()

    def tree(root):
        found = {}
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                found[os.path.relpath(full, root)] = Path(full).read_bytes()
        return found

    first = tree(tmp_path / "first")
    second = tree(tmp_path / "second")
    identical = first == second
    _verdict(
        8,
        identical and len(first) == 7,
        f"{len(first)} files byte-identical across repeated compare runs",
    )


def test_criterion_9_nlogn_model():
    """T(2048)/T(1024) equals 2.2 exactly and T(1) is zero."""
    model = ProcessingModel(c_ms=1.0)
    ratio = processing_time(model, 2048) / processing_time(model, 1024)
    ok = ratio == 2.2 and processing_time(model, 1) == 0.0
    _verdict(9, ok, f"T(2048)/T(1024) = {ratio!r}, T(1) = 0")
