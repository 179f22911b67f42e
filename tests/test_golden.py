"""Golden outputs: pinned trace digests, summary.txt and nodes.csv bytes,
and the events and messages a ``record_events`` run returns.

Each scenario below is small enough to run in well under a second. The
digests and summaries were produced by the code as it stood before the
topology index and the native YAML loader went in; the recorded events,
messages and nodes.csv bytes by the code as it stood before the event loop
stopped building messages and event records it does not need; every pin of
the same-instant scenario by the code as it stood before events scheduled
at the current instant got a queue of their own beside the heap. A change
that alters any of them changes simulation results and needs a documented
reason, not a new pin. Together the scenarios cover the route patterns
ComA, ComB, ComC, ComD and CloudDirect, both modes, a nonzero hop delay,
sealed MeterReading traffic, billed and rejected sessions, a battery
top-up that is curtailed at capacity, and events that share their time.
"""

import collections
import dataclasses
import hashlib
import textwrap

import pytest

from foggrid import Mode, RoutePattern, billing, engine, messages, parse_config, run
from foggrid.cli import EXIT_OK, main
from foggrid.messages import SealedEnvelope

_TOPOLOGY = """
topology:
  mode: {mode}
  nodes:
    - {{id: 0, tier: cloud, service_rate_per_s: 0.5}}
    - {{id: 1, tier: fog, area: 0, service_rate_per_s: 0.8}}
    - {{id: 2, tier: fog, area: 1, service_rate_per_s: 0.8}}
    - {{id: 3, tier: fog, area: 2, service_rate_per_s: 0.8}}
    - {{id: 4, tier: device, area: 0}}
    - {{id: 5, tier: device, area: 0, account: alice}}
    - {{id: 6, tier: device, area: 1}}
    - {{id: 7, tier: device, area: 1}}
    - {{id: 8, tier: device, area: 2}}
  fog_links:
    - [1, 2]
"""

# Outlet 4 reaches meter 5 in its own area (ComA), meter 6 over the fog
# link (ComC) and meter 8 through the cloud (ComD); ev-home charges at its
# own meter and ev-ghost is not registered. Telemetry from meter 4 climbs
# to its gateway (ComB).
_ROAMING = """
workload:
  arrival_processes:
    - {rate_per_s: 0.05, target: 4, payload_kind: GridTelemetry, size_bytes: 64}
    - {rate_per_s: 0.04, target: 6, payload_kind: MeterReading, size_bytes: 128}
    - {rate_per_s: 0.03, target: 8, payload_kind: MeterReading, size_bytes: 96}
    - {rate_per_s: 0.02, target: 0, payload_kind: GridTelemetry, size_bytes: 32}
  vehicle_registry:
    ev-local: {meter: 5}
    ev-linked: {meter: 6, account: bob}
    ev-far: {meter: 8}
    ev-home: {meter: 4}
  sessions:
    - {vehicle_id: ev-local, outlet_meter: 4, start_s: 100.0, energy_kwh: 3.5, duration_s: 60.0}
    - {vehicle_id: ev-linked, outlet_meter: 4, start_s: 250.0, energy_kwh: 7.25, duration_s: 120.0}
    - {vehicle_id: ev-far, outlet_meter: 4, start_s: 400.0, energy_kwh: 12.0, duration_s: 90.0}
    - {vehicle_id: ev-home, outlet_meter: 4, start_s: 550.0, energy_kwh: 2.0, duration_s: 30.0}
    - {vehicle_id: ev-ghost, outlet_meter: 5, start_s: 700.0, energy_kwh: 5.0, duration_s: 30.0}
    - {vehicle_id: ev-far, outlet_meter: 7, start_s: 900.0, energy_kwh: 4.5, duration_s: 45.0}
"""

SCENARIOS = {
    "fog-roaming": "run: {seed: 11, horizon_s: 2000.0, warmup_s: 50.0}\n"
    + _TOPOLOGY.format(mode="fog-augmented")
    + _ROAMING
    + "models:\n  hop_delay_s: 0.25\n  tariff_per_kwh: 0.31\n",
    "cloud-roaming": "run: {seed: 11, horizon_s: 2000.0}\n"
    + _TOPOLOGY.format(mode="cloud-only")
    + _ROAMING
    + "models:\n  hop_delay_s: 0.25\n",
    # Islanded: the 50 s top-up stores 4.5 kWh into 1 kWh of headroom, so
    # after ev-a takes 6 kWh the battery holds 4 kWh and ev-b (7 kWh) is
    # rejected. Without the curtailment ev-b would be billed.
    "island-bess": textwrap.dedent(
        """
        run: {seed: 3, horizon_s: 1500.0}
        topology:
          nodes:
            - {id: 0, tier: cloud, service_rate_per_s: 0.4}
            - {id: 1, tier: fog, area: 0, service_rate_per_s: 0.9}
            - {id: 2, tier: device, area: 0}
            - {id: 3, tier: device, area: 0}
            - {id: 4, tier: device, area: 0}
        workload:
          arrival_processes:
            - {rate_per_s: 0.1, target: 2, payload_kind: MeterReading, size_bytes: 200}
            - {rate_per_s: 0.05, target: 3, payload_kind: GridTelemetry, size_bytes: 64}
          vehicle_registry:
            ev-a: {meter: 3}
            ev-b: {meter: 4}
          sessions:
            - {vehicle_id: ev-a, outlet_meter: 2, start_s: 100.0, energy_kwh: 6.0, duration_s: 40.0}
            - {vehicle_id: ev-b, outlet_meter: 2, start_s: 300.0, energy_kwh: 7.0, duration_s: 40.0}
            - {vehicle_id: ev-a, outlet_meter: 4, start_s: 500.0, energy_kwh: 3.0, duration_s: 20.0}
        models:
          grid_available: false
          bess: {capacity_kwh: 10.0, soc_kwh: 9.0, efficiency: 0.9}
          bess_charge_schedule:
            - {at_s: 50.0, energy_kwh: 5.0}
            - {at_s: 800.0, energy_kwh: 1.0}
          tariff_per_kwh: 0.25
        """
    ),
    # One M/M/1 gateway at rho about 0.58; no sessions, no hop delay.
    "single-queue": textwrap.dedent(
        """
        run: {seed: 5, horizon_s: 5000.0}
        topology:
          nodes:
            - {id: 0, tier: cloud, service_rate_per_s: 0.02198581560283688}
            - {id: 1, tier: fog, area: 0, service_rate_per_s: 0.02857142857142857}
            - {id: 2, tier: device, area: 0}
        workload:
          arrival_processes:
            - {rate_per_s: 0.016666666666666666, target: 2, payload_kind: GridTelemetry, size_bytes: 64}
        """
    ),
    # Same-instant ordering: with no hop delay, zero-duration sessions,
    # sessions sharing a start time (one listed out of start order), a
    # self-charge and a battery top-up at the same instant, and a process
    # feeding fog node 1 directly, many events share their time and only
    # seq orders them.
    "same-instant": textwrap.dedent(
        """
        run: {seed: 23, horizon_s: 900.0, warmup_s: 30.0}
        topology:
          nodes:
            - {id: 0, tier: cloud, service_rate_per_s: 0.7}
            - {id: 1, tier: fog, area: 0, service_rate_per_s: 1.1}
            - {id: 2, tier: fog, area: 1, service_rate_per_s: 0.9}
            - {id: 3, tier: device, area: 0}
            - {id: 4, tier: device, area: 0}
            - {id: 5, tier: device, area: 1}
            - {id: 6, tier: device, area: 1, account: carol}
          fog_links:
            - [1, 2]
        workload:
          arrival_processes:
            - {rate_per_s: 0.35, target: 3, payload_kind: MeterReading, size_bytes: 120}
            - {rate_per_s: 0.25, target: 1, payload_kind: GridTelemetry, size_bytes: 48}
            - {rate_per_s: 0.2, target: 5, payload_kind: GridTelemetry, size_bytes: 64}
          vehicle_registry:
            ev-a: {meter: 4}
            ev-b: {meter: 6}
            ev-c: {meter: 3}
          sessions:
            - {vehicle_id: ev-a, outlet_meter: 3, start_s: 300.0, energy_kwh: 2.0}
            - {vehicle_id: ev-b, outlet_meter: 3, start_s: 120.0, energy_kwh: 1.5}
            - {vehicle_id: ev-c, outlet_meter: 5, start_s: 120.0, energy_kwh: 1.0, duration_s: 25.0}
            - {vehicle_id: ev-c, outlet_meter: 3, start_s: 120.0, energy_kwh: 3.0}
            - {vehicle_id: ev-a, outlet_meter: 5, start_s: 300.0, energy_kwh: 2.5}
            - {vehicle_id: ev-b, outlet_meter: 4, start_s: 60.0, energy_kwh: 0.5, duration_s: 10.0}
        models:
          hop_delay_s: 0
          grid_available: false
          bess: {capacity_kwh: 8.0, soc_kwh: 2.0, efficiency: 0.8}
          bess_charge_schedule:
            - {at_s: 120.0, energy_kwh: 4.0}
            - {at_s: 300.0, energy_kwh: 3.0}
          tariff_per_kwh: 0.3
        """
    ),
}

GOLDEN_SUMMARY = {
    "fog-roaming": """\
mode: fog-augmented
seed: 11
horizon_s: 2000
warmup_s: 50
nodes: 9
messages_generated: 291
messages_delivered: 291
mean_wait_s: 1.45469
total_energy_mj: 101393
total_message_bytes: 25408
nlogn_processing_ms: 371795
sessions_total: 6
sessions_billed: 5
energy_delivered_kwh: 29.25
amount_billed: 9.0675
trace_digest: d7bc002b5504dab8
events: 1181
""",
    "cloud-roaming": """\
mode: cloud-only
seed: 11
horizon_s: 2000
warmup_s: 20
nodes: 9
messages_generated: 291
messages_delivered: 291
mean_wait_s: 2.80504
total_energy_mj: 288264
total_message_bytes: 25408
nlogn_processing_ms: 371795
sessions_total: 6
sessions_billed: 5
energy_delivered_kwh: 29.25
amount_billed: 5.85
trace_digest: 099610840cd897f3
events: 1157
""",
    "island-bess": """\
mode: fog-augmented
seed: 3
horizon_s: 1500
warmup_s: 15
nodes: 5
messages_generated: 249
messages_delivered: 249
mean_wait_s: 1.4613
total_energy_mj: 56616.4
total_message_bytes: 38976
nlogn_processing_ms: 594396
sessions_total: 3
sessions_billed: 2
energy_delivered_kwh: 9
amount_billed: 2.25
trace_digest: 94b9fb86ff04a3f4
events: 996
""",
    "single-queue": """\
mode: fog-augmented
seed: 5
horizon_s: 5000
warmup_s: 50
nodes: 3
messages_generated: 91
messages_delivered: 91
mean_wait_s: 53.7725
total_energy_mj: 599433
total_message_bytes: 5824
nlogn_processing_ms: 72845.4
sessions_total: 0
sessions_billed: 0
energy_delivered_kwh: 0
amount_billed: 0
trace_digest: a93fbce729e3286a
events: 364
""",
    "same-instant": """\
mode: fog-augmented
seed: 23
horizon_s: 900
warmup_s: 30
nodes: 7
messages_generated: 716
messages_delivered: 716
mean_wait_s: 1.77514
total_energy_mj: 138094
total_message_bytes: 59072
nlogn_processing_ms: 936302
sessions_total: 6
sessions_billed: 4
energy_delivered_kwh: 7
amount_billed: 2.1
trace_digest: 70ea90ed481e12da
events: 2693
""",
}

GOLDEN_DIGEST = {
    "fog-roaming": "d7bc002b5504dab8",
    "cloud-roaming": "099610840cd897f3",
    "island-bess": "94b9fb86ff04a3f4",
    "single-queue": "a93fbce729e3286a",
    "same-instant": "70ea90ed481e12da",
}

_NODES_HEADER = (
    "node_id,tier,lambda_hat,mean_wait_s,mean_in_system,utilization,"
    "active_time_s,idle_time_s,energy_mj\n"
)

GOLDEN_NODES_CSV = {
    "fog-roaming": _NODES_HEADER
    + """\
0,cloud,0.0194872,2.07052,0.0403485,0.0372126,72.5646,1927.44,35484.1
1,fog,0.0548718,1.4191,0.0778688,0.072303,144.396,1855.6,28734.8
2,fog,0.0502564,1.44379,0.0725595,0.0713654,139.96,1860.04,27852
3,fog,0.0235897,1.05199,0.0248162,0.0236655,46.8455,1953.15,9322.26
4,device,0.0558974,0,0,0,0,2000,0
5,device,0.00102564,0,0,0,0,2000,0
6,device,0.0492308,0,0,0,0,2000,0
7,device,0.00102564,0,0,0,0,2000,0
8,device,0.0235897,0,0,0,0,2000,0
""",
    "cloud-roaming": _NODES_HEADER
    + """\
0,cloud,0.145455,2.80504,0.408191,0.294361,589.497,1410.5,288264
1,fog,0,0,0,0,0,2000,0
2,fog,0,0,0,0,0,2000,0
3,fog,0,0,0,0,0,2000,0
4,device,0.0565657,0,0,0,0,2000,0
5,device,0.0010101,0,0,0,0,2000,0
6,device,0.0494949,0,0,0,0,2000,0
7,device,0.0010101,0,0,0,0,2000,0
8,device,0.0242424,0,0,0,0,2000,0
""",
    "island-bess": _NODES_HEADER
    + """\
0,cloud,0,0,0,0,0,1500,0
1,fog,0.16229,1.4613,0.237153,0.189483,284.504,1215.5,56616.4
2,device,0.115825,0,0,0,0,1500,0
3,device,0.0518519,0,0,0,0,1500,0
4,device,0.0026936,0,0,0,0,1500,0
""",
    "single-queue": _NODES_HEADER
    + """\
0,cloud,0,0,0,0,0,5000,0
1,fog,0.0183838,53.7725,0.988546,0.608531,3012.23,1987.77,599433
2,device,0.0183838,0,0,0,0,5000,0
""",
    "same-instant": _NODES_HEADER
    + """\
0,cloud,0,0,0,0,0,900,0
1,fog,0.578161,1.85713,1.07376,0.513723,461.769,438.231,91892.1
2,fog,0.22069,1.56034,0.344351,0.256491,232.169,667.831,46201.7
3,device,0.329885,0,0,0,0,900,0
4,device,0.00689655,0,0,0,0,900,0
5,device,0.216092,0,0,0,0,900,0
6,device,0.0045977,0,0,0,0,900,0
""",
}

#: (event count, BLAKE2b-64 of one "time,seq,kind,node,subject" line per
#: recorded event) of a record_events run.
GOLDEN_EVENTS = {
    "fog-roaming": (1181, "9f8d0789374791be"),
    "cloud-roaming": (1157, "32d756a71946324c"),
    "island-bess": (996, "0bc4ccc8c46db21d"),
    "single-queue": (364, "fa79d32e83a0cd04"),
    "same-instant": (2693, "2489c4aba8fa813d"),
}

#: (message count, BLAKE2b-64 of one line per message, in mapping order)
#: of fog-roaming's record_events run.
GOLDEN_MESSAGES = (291, "7626464dae58d2d0")


def _blake64(lines) -> str:
    h = hashlib.blake2b(digest_size=8)
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


def _recorded(name):
    rc = parse_config(SCENARIOS[name]).run_config
    return run(dataclasses.replace(rc, record_events=True))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_digest(name):
    result = run(parse_config(SCENARIOS[name]).run_config)
    assert result.trace.digest == GOLDEN_DIGEST[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_summary_bytes(name, tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(SCENARIOS[name], encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == EXIT_OK
    assert f"trace_digest: {GOLDEN_DIGEST[name]}" in capsys.readouterr().out
    assert (out / "summary.txt").read_bytes() == GOLDEN_SUMMARY[name].encode()
    assert (out / "nodes.csv").read_bytes() == GOLDEN_NODES_CSV[name].encode()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recorded_events(name):
    result = _recorded(name)
    events = result.trace.events
    assert result.trace.digest == GOLDEN_DIGEST[name]
    assert (len(events), result.trace.event_count) == (GOLDEN_EVENTS[name][0],) * 2
    lines = (f"{e.time!r},{e.seq},{e.kind.value},{e.node},{e.subject}\n" for e in events)
    assert _blake64(lines) == GOLDEN_EVENTS[name][1]


def test_recorded_messages():
    messages = _recorded("fog-roaming").messages
    assert all(key == msg.id for key, msg in messages.items())

    def line(m):
        c = m.content
        tag = c.seal_tag if isinstance(c, SealedEnvelope) else c.kind
        return (
            f"{m.id},{m.src},{m.dst},{m.data_class.value},{m.created_at!r},"
            f"{type(c).__name__},{tag}\n"
        )

    assert (len(messages), _blake64(map(line, messages.values()))) == GOLDEN_MESSAGES


def test_scenarios_cover_every_session_route():
    patterns = set()
    for name in ("fog-roaming", "cloud-roaming"):
        for session in run(parse_config(SCENARIOS[name]).run_config).sessions:
            patterns.add(session.route_pattern)
    assert {
        RoutePattern.COM_A,
        RoutePattern.COM_C,
        RoutePattern.COM_D,
        RoutePattern.CLOUD_DIRECT,
    } <= patterns
    modes = {parse_config(s).run_config.topology.mode for s in SCENARIOS.values()}
    assert modes == {Mode.CLOUD_ONLY, Mode.FOG_AUGMENTED}


def test_unrecorded_run_builds_no_messages_or_events(monkeypatch):
    # The digest alone needs neither: both are built for record_events only,
    # the session protocol's request and approval included.
    def built(*args, **kwargs):
        raise AssertionError("built without record_events")

    monkeypatch.setattr(engine, "Message", built)
    monkeypatch.setattr(engine, "SimEvent", built)
    monkeypatch.setattr(billing, "_sealed_message", built)
    result = run(parse_config(SCENARIOS["fog-roaming"]).run_config)
    assert result.trace.digest == GOLDEN_DIGEST["fog-roaming"]
    assert (result.messages, result.trace.events) == (None, None)


def test_process_payloads_sealed_only_when_recorded(monkeypatch):
    # A process payload is classified, and sealed if private, at the first
    # recorded message of the process, and its later messages share it.
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__, name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (engine, billing, messages):
        for name in ("classify", "seal"):
            if hasattr(module, name):
                count(module, name)
    rc = parse_config(SCENARIOS["fog-roaming"]).run_config
    assert run(rc).trace.digest == GOLDEN_DIGEST["fog-roaming"]
    assert not calls
    recorded = run(dataclasses.replace(rc, record_events=True))
    # Four processes, two of them private: MeterReading from meters 6 and 8.
    assert (calls["foggrid.engine", "classify"], calls["foggrid.engine", "seal"]) == (4, 2)
    for meter in (6, 8):
        envelopes = [
            m.content
            for m in recorded.messages.values()
            if m.src == meter
            and isinstance(m.content, SealedEnvelope)
            and m.content.inner.kind == "MeterReading"
        ]
        assert len(envelopes) > 1
        assert all(e is envelopes[0] for e in envelopes)
