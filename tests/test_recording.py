"""Recorded and unrecorded runs are the same run.

A ``record_events`` run builds a ``SimEvent`` per event and a ``Message``
per message, the session protocol's request and approval included; an
unrecorded run builds none of them and takes other branches to skip
them. This differential test runs random small session scenarios both
ways and requires every result the two share to be equal. A second test
rebuilds each node's queue statistics and busy time from the recorded
events alone.
"""

import dataclasses
import math

from conftest import session_configs
from hypothesis import given, settings

import foggrid
from foggrid import EventKind, Tier


@settings(max_examples=60, deadline=None)
@given(session_configs())
def test_recorded_run_equals_unrecorded_run(cfg):
    plain = foggrid.run(cfg)
    recorded = foggrid.run(dataclasses.replace(cfg, record_events=True))
    assert recorded.trace.digest == plain.trace.digest
    assert recorded.trace.event_count == plain.trace.event_count == len(recorded.trace.events)
    # Both runs share the loop, so only this checks its order.
    keys = [(e.time, e.seq) for e in recorded.trace.events]
    assert all(a < b for a, b in zip(keys, keys[1:]))
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


@settings(max_examples=60, deadline=None)
@given(session_configs())
def test_accounting_matches_the_recorded_events(cfg):
    """Each node's QueueStats, and each server's active and idle time,
    rebuilt from the recorded events alone. A server is FIFO: its k-th
    ServiceEnd completes its k-th Arrival and closes its k-th ServiceStart,
    and a message or service still open closes at the horizon. This checks
    the accounting given the engine's event times, not the event times
    themselves, which need an independent reference engine."""
    result = foggrid.run(dataclasses.replace(cfg, record_events=True))
    h, w = cfg.horizon_s, cfg.warmup_s
    by_id = cfg.topology.by_id()
    times = {node: {kind: [] for kind in EventKind} for node in by_id}
    for e in result.trace.events:
        times[e.node][e.kind].append(e.time)

    def window_part(lo, hi):
        return max(0.0, hi - max(lo, w))

    for node, node_times in times.items():
        arrivals = node_times[EventKind.ARRIVAL]
        starts = node_times[EventKind.SERVICE_START]
        ends = node_times[EventKind.SERVICE_END]
        got, ledger = result.queue_stats[node], result.energy[node]
        assert got.lambda_hat == sum(a >= w for a in arrivals) / (h - w)
        if by_id[node].tier is Tier.DEVICE:
            assert (got.samples, got.mean_wait_s, got.mean_in_system) == (0, 0.0, 0.0)
            assert got.utilization == 0.0
            assert (ledger.active_time_s, ledger.idle_time_s) == (0.0, h)
            continue
        sojourns = [end - a for a, end in zip(arrivals, ends) if a >= w]
        assert got.samples == len(sojourns)
        mean_wait = sum(sojourns) / len(sojourns) if sojourns else 0.0
        assert math.isclose(got.mean_wait_s, mean_wait, rel_tol=1e-12)
        departures = ends + [h] * (len(arrivals) - len(ends))
        closes = ends + [h] * (len(starts) - len(ends))
        busy = sum(end - start for start, end in zip(starts, closes))
        for value, want in (
            (got.mean_in_system, sum(map(window_part, arrivals, departures)) / (h - w)),
            (got.utilization, sum(map(window_part, starts, closes)) / (h - w)),
            (ledger.active_time_s, busy),
            (ledger.idle_time_s, h - busy),
        ):
            assert math.isclose(value, want, rel_tol=1e-9), node
