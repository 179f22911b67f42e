"""Lindley oracle for the queueing layer.

In a session-free run with a constant hop delay, every fog or cloud node
is a FIFO single server fed by merged Poisson streams, so its departures
follow Lindley's recursion D_n = max(A_n, D_{n-1}) + S_n. The oracle
rebuilds each node's arrival times A_n and service times S_n from the
engine's random streams (same master seed, purpose and key), runs the
recursion, and checks the per-node statistics of ``foggrid.run`` against
it. It builds each stream with numpy's own SeedSequence and PCG64, and
shares no code with the event loop or the engine's bulk stream
derivation, so a later change to either cannot defeat it.
"""

import math

import numpy as np
from conftest import grid_topology
from hypothesis import given, settings
from hypothesis import strategies as st

import foggrid
from foggrid import GRID_TELEMETRY, ArrivalProcess, Mode, RunConfig, Tier
from foggrid.engine import _PURPOSE_ARRIVAL, _PURPOSE_SERVICE


def _draws(seed, purpose, key, rate):
    """Exponential draws of one engine stream, 256 at a time."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(purpose, *key))
    rng = np.random.Generator(np.random.PCG64(ss))
    while True:
        yield from rng.exponential(1.0 / rate, 256).tolist()


def _overlap(lo, hi, w, h):
    return max(0.0, min(hi, h) - max(lo, w))


def lindley_stats(cfg):
    """Per serving node: samples, lambda_hat, mean_wait_s, mean_in_system
    and utilization, from the arrival times and Lindley's recursion."""
    topo, h, w = cfg.topology, cfg.horizon_s, cfg.warmup_s
    by_id = topo.by_id()
    arrivals = {n.id: [] for n in topo.nodes if n.tier is not Tier.DEVICE}
    per_target = {}
    for proc in cfg.arrival_processes:
        k = per_target.get(proc.target, 0)
        per_target[proc.target] = k + 1
        node = by_id[proc.target]
        if node.tier is not Tier.DEVICE:
            server, delay = node.id, None
        elif topo.mode is Mode.CLOUD_ONLY:
            server, delay = topo.cloud_id, cfg.hop_delay_s
        else:
            server, delay = topo.fog_for_area(node.area).id, cfg.hop_delay_s
        t = None
        for x in _draws(cfg.seed, _PURPOSE_ARRIVAL, (proc.target, k), proc.rate_per_s):
            t = x if t is None else t + x
            if t > h:
                break
            a = t if delay is None else t + delay
            if a <= h:
                arrivals[server].append(a)

    window = h - w
    stats = {}
    for server, times in arrivals.items():
        times.sort()
        service = _draws(cfg.seed, _PURPOSE_SERVICE, (server,), by_id[server].service_rate_per_s)
        done = 0.0
        samples, sojourn, area, busy = 0, 0.0, 0.0, 0.0
        for a in times:
            start = max(a, done)
            done = start + next(service)
            if a >= w and done <= h:
                samples += 1
                sojourn += done - a
            area += _overlap(a, done, w, h)
            busy += _overlap(start, done, w, h)
        stats[server] = dict(
            samples=samples,
            lambda_hat=sum(a >= w for a in times) / window,
            mean_wait_s=sojourn / samples if samples else 0.0,
            mean_in_system=area / window,
            utilization=busy / window,
        )
    return stats


@st.composite
def session_free_configs(draw):
    topo = grid_topology(
        areas=draw(st.integers(1, 3)),
        devices_per_area=draw(st.integers(1, 3)),
        mode=draw(st.sampled_from(Mode)),
        fog_rate=draw(st.floats(0.2, 3.0)),
        cloud_rate=draw(st.floats(0.2, 3.0)),
    )
    targets = st.sampled_from([n.id for n in topo.nodes])
    procs = draw(st.lists(st.tuples(targets, st.floats(0.05, 2.0)), min_size=1, max_size=4))
    horizon = draw(st.floats(20.0, 400.0))
    return RunConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        horizon_s=horizon,
        warmup_s=horizon * draw(st.floats(0.0, 0.5)),
        topology=topo,
        arrival_processes=tuple(
            ArrivalProcess(rate_per_s=rate, target=t, payload_kind=GRID_TELEMETRY, size_bytes=64)
            for t, rate in procs
        ),
        hop_delay_s=draw(st.sampled_from([0.0, 0.05, 1.5])),
    )


@settings(max_examples=30, deadline=None)
@given(session_free_configs())
def test_queue_stats_match_lindley_recursion(cfg):
    result = foggrid.run(cfg)
    for node, want in lindley_stats(cfg).items():
        got = result.queue_stats[node]
        assert got.samples == want["samples"], node
        for name, rel in (
            ("lambda_hat", 1e-12),
            ("mean_wait_s", 1e-12),
            ("mean_in_system", 1e-9),
            ("utilization", 1e-9),
        ):
            assert math.isclose(getattr(got, name), want[name], rel_tol=rel), (node, name)
