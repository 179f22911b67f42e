"""Deterministic discrete-event engine.

Messages are generated by Poisson arrival processes at device meters (or
directly at a fog/cloud node), traverse their tier-respecting route, and
queue at every fog/cloud hop, each modeled as an M/M/1 FIFO server.
Device hops forward instantly. Charging sessions ride the same network:
their request/approval messages queue like any other traffic, so protocol
latency reflects queue state.

Determinism contract: a run is a pure function of its RunConfig. Every
random draw comes from a stream derived from the master seed and a stable
purpose key: a service stream is keyed by its node's id, an arrival stream
by ``(target, k)``, where ``k`` counts the earlier processes at the same
target. Adding a node, or appending a process, never perturbs the streams
of existing ones; inserting a process before another at the same target
shifts that one's ``k``, and so its draws. A stream is exactly numpy's
``PCG64(SeedSequence(entropy=seed, spawn_key=(purpose, *key)))``;
_pcg64_states computes the states of all streams of a run in one bulk
pass, and tests/test_streams.py and the Lindley oracle check it against
numpy's own construction. Each stream draws its exponentials in blocks of
16 values, doubling up to 512 and held as packed doubles, through one
generator per run; numpy fills a block element by element from the bit
generator, so the values drawn do not depend on the block size, which
lets _exp_draws read no state back after a stream's first block.

Events are processed in strict (time, seq) order, seq assigned at
scheduling time. Pending events sit in a heap or in one of two FIFOs: the
same-instant FIFO (now_queue) holds those scheduled at the current instant
(a ServiceStart, the first hop of a session message, the session step its
delivery triggers) and drains before time advances; the hop FIFO holds the
forwarded hops, each hop_delay_s ahead of its sender. Both are always in
(time, seq) order, the hop FIFO because the clock never goes back, seq only
grows and float addition is monotone. The loop takes whichever of the
three heads comes first, so the heap holds only drawn and scheduled times.
A hop_delay_s of 0, or one that rounds away (t + hop_delay_s == t), needs
no special case: its forwards land at the current instant, where seq alone
orders them against the same-instant FIFO. Session starts enter the heap
one at a time, each when the one before it is handled, and an entry at
+inf follows the last, so the heap is never empty. The loop handles queue
events inline, and a service event carries its server's state; a session
step carries its handler, a plain function (a bound method would make each
engine cyclic garbage).

Trace digest: each processed event is rendered as the text line
``repr(time),seq,kind,node`` + newline, where ``kind`` is the EventKind
value (Arrival, ServiceStart, ServiceEnd, SessionStep) and ``repr`` is
Python's shortest round-trip float form; the digest is the 8-byte BLAKE2b
hash of the concatenated lines, in hex, which the loop feeds it 512 lines
at a time (the hash does not depend on the chunks). (BLAKE2b-64 plays the
role of the 64-bit trace hash; it is pinned so determinism is testable.)
The digest needs no recording: ``Message`` and ``SimEvent`` objects are
built only when ``record_events`` is set; the digest is the same either way.
That includes both session-protocol messages: billing.resolve_owner gives
the request's route, billing.request_message and billing.approval_message
are called only when recording, and the approval travels the request
route reversed, so a session resolves one route.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import billing
from .billing import (
    BillRecord,
    ChargingSession,
    MeterIdentity,
    SessionState,
)
from .energy import (
    BessState,
    EnergyLedger,
    MicrogridMode,
    accrue_energy,
    bess_charge_curtailed,
    bess_discharge,
    mode_transition,
)
from .errors import _ProblemsError, shown
from .messages import (
    DEFAULT_CLASSIFICATION,
    DataClass,
    Message,
    Payload,
    SealedEnvelope,
    classify,
    seal,
    serving_node,
)
from .queueing import QueueStats
from .topology import FLOAT_MAX, InvalidTopology, NodeId, Tier, Topology
from .topology import validate_topology

# Purpose codes for deriving per-(node, purpose) random streams.
_PURPOSE_SERVICE = 0
_PURPOSE_ARRIVAL = 1

_DIGEST_FLUSH = 512


class InvalidRunConfig(_ProblemsError, ValueError):
    """A RunConfig breaks rules of :func:`check_run_config`; ``problems``
    holds every line it returned."""


class EventKind(Enum):
    ARRIVAL = "Arrival"
    SERVICE_START = "ServiceStart"
    SERVICE_END = "ServiceEnd"
    SESSION_STEP = "SessionStep"


# Heap entries carry the kind as an index into this tuple.
_KINDS = tuple(EventKind)
_ARRIVAL, _SERVICE_START, _SERVICE_END, _SESSION_STEP = range(len(_KINDS))


@dataclass(frozen=True)
class SimEvent:
    """One processed event, as recorded when event capture is on."""

    time: float
    seq: int
    kind: EventKind
    node: NodeId
    subject: Optional[int] = None


@dataclass(frozen=True)
class ArrivalProcess:
    """Poisson stream of payloads originating at ``target``.

    If ``target`` is a device meter, each message travels up to the node
    serving it (its fog gateway, or the cloud in cloud-only mode). If
    ``target`` is itself a fog or cloud node, messages enter its queue
    directly.
    """

    rate_per_s: float
    target: NodeId
    payload_kind: str
    size_bytes: int = 256


@dataclass(frozen=True)
class SessionPlan:
    """A scheduled roaming-charge attempt."""

    vehicle_id: str
    outlet_meter: NodeId
    start_s: float
    energy_kwh: float
    duration_s: float = 0.0


@dataclass(frozen=True)
class BessChargeEntry:
    """Exogenous energy (e.g. solar) fed into the battery at a set time."""

    at_s: float
    energy_kwh: float


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on. Identical configs give identical runs."""

    seed: int
    horizon_s: float
    warmup_s: float
    topology: Topology
    arrival_processes: tuple[ArrivalProcess, ...] = ()
    sessions: tuple[SessionPlan, ...] = ()
    vehicle_registry: Mapping[str, MeterIdentity] = field(default_factory=dict)
    classification: Mapping[str, DataClass] = field(
        default_factory=lambda: dict(DEFAULT_CLASSIFICATION)
    )
    tariff_per_kwh: float = 0.2
    bess: Optional[BessState] = None
    bess_charge_schedule: tuple[BessChargeEntry, ...] = ()
    grid_available: bool = True
    hop_delay_s: float = 0.0
    record_events: bool = False


@dataclass(frozen=True)
class SimTrace:
    """Digest (and optionally the full list) of the processed events."""

    digest: str
    event_count: int
    events: Optional[tuple[SimEvent, ...]] = None


@dataclass(frozen=True)
class SimResult:
    trace: SimTrace
    queue_stats: dict[NodeId, QueueStats]
    energy: dict[NodeId, EnergyLedger]
    sessions: tuple[ChargingSession, ...]
    bills: tuple[BillRecord, ...]
    #: per completed session: (from_bess_kwh, from_grid_kwh), keyed by session_id
    session_sources: dict[int, tuple[float, float]]
    messages_generated: int
    messages_delivered: int
    bytes_generated: int
    microgrid_mode: MicrogridMode
    bess_final: Optional[BessState]
    #: populated only when record_events is set
    messages: Optional[dict[int, Message]] = None


class _Transit:
    """A message in flight: its route and current position. A session
    message carries ``step``, the (session index, handler, hops) of the
    SessionStep its delivery triggers; ``msg`` is set only for session
    messages, and only when events are recorded."""

    __slots__ = ("msg_id", "hops", "hop_idx", "node_arrival", "process_idx", "step", "msg")

    def __init__(self, msg_id, hops, process_idx=None, step=None, msg=None):
        self.msg_id = msg_id
        self.hops = hops
        self.hop_idx = 0
        self.node_arrival = 0.0
        self.process_idx = process_idx
        self.step = step
        self.msg = msg


class _NodeState:
    """Queue and statistics accumulators for one fog/cloud server. The
    queue holds every message at the server, the one in service first, so
    its length is the population and the server is busy while it is
    nonempty."""

    __slots__ = (
        "service",
        "queue",
        "busy_since",
        "last_t",
        "area_window",
        "busy_total",
        "busy_window",
        "arrivals_window",
        "sojourn_sum",
        "samples",
    )

    def __init__(self, service):
        self.service = service
        self.queue = deque()
        self.busy_since = 0.0
        self.last_t = 0.0
        self.area_window = 0.0
        self.busy_total = 0.0
        self.busy_window = 0.0
        self.arrivals_window = 0
        self.sojourn_sum = 0.0
        self.samples = 0


def _slot_builder(cls: type) -> Callable:
    """The positional constructor of the frozen, slotted dataclass ``cls``,
    generated as dataclasses generate ``__init__``, but setting each field
    through its slot's descriptor, not ``object.__setattr__``: half the time."""
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    scope.update(_new=object.__new__, _cls=cls)
    sets = "".join(f"\n    _set_{name}(row, {name})" for name in names)
    exec(f"def build({', '.join(names)}):\n    row = _new(_cls){sets}\n    return row", scope)
    return scope["build"]


_queue_row = _slot_builder(QueueStats)
_energy_row = _slot_builder(EnergyLedger)


# The key-word half of numpy's SeedSequence hash
# (numpy/random/bit_generator.pyx) and PCG64 seeding (pcg64.h), restated so
# that _pcg64_states runs them over every key of a run at once.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiplier) pairs of SeedSequence's first ``n`` hash
    steps, shape (n, 2): the constant starts at ``init``, and each step
    xors the word with it, multiplies it by ``mult`` and multiplies the
    word by the result. They depend on a step's position, not on data."""
    pairs = []
    for _ in range(n):
        nxt = init * mult & _MASK32
        pairs.append((init, nxt))
        init = nxt
    return np.array(pairs, dtype=np.uint32)


# Entropy steps: four fill the pool from the seed and twelve mix it, then
# four for each later word.
_POOL_STEPS = _POOL_SIZE * _POOL_SIZE
# Output steps: SeedSequence.generate_state(4, np.uint64) reads the pool
# twice round for its eight words.
_OUT_XOR, _OUT_MULT = _hash_constants(_INIT_B, _MULT_B, 8).T[:, :, None]


def _hashmix(value, xor, mult):
    """One SeedSequence hash step, on uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of hashed word ``y`` into pool word ``x``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an integer: 32-bit words, least
    significant first."""
    if n < 0:
        raise ValueError(f"stream keys are nonnegative integers, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(seed: int, keys: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The ``(state, inc)`` of ``PCG64(SeedSequence(entropy=seed,
    spawn_key=key))`` for each of ``keys`` (nonempty tuples of nonnegative
    integers), in order, bit for bit, computed for all keys at once.

    SeedSequence hashes the words of the seed into its pool of four words,
    and then the words of the key, one after another into the pool. The
    seed's words come first, so the pool they leave is numpy's own
    ``SeedSequence(seed).pool``, and the key words hash on from the step
    after the seed's last. A key word's hash does not depend on the pool,
    and its constants depend on its position only, so the keys are hashed
    as uint32 columns, word by word; a key whose words have run out keeps
    its pool. PCG64 then seeds itself from the pool's eight output words
    (pcg64_set_seed, srandom), in Python ints.
    """
    if not keys:
        return []
    # A part below 2**32 is its own word; _words splits the rest.
    rows = [
        [w for part in key for w in ((part,) if 0 <= part <= _MASK32 else _words(part))]
        for key in keys
    ]
    lengths = [len(row) for row in rows]
    longest = max(lengths)
    first = _POOL_STEPS + _POOL_SIZE * max(len(_words(seed)) - _POOL_SIZE, 0)
    n_steps = first + _POOL_SIZE * longest
    # (xor, mult) of word j into pool word d, each of shape (words, 4, 1).
    later = _hash_constants(_INIT_A, _MULT_A, n_steps)[first:].reshape(longest, _POOL_SIZE, 2)
    xor, mult = later.transpose(2, 0, 1)[..., None]
    words = np.array([row + [0] * (longest - len(row)) for row in rows], dtype=np.uint32)
    mixer = np.random.SeedSequence(seed).pool[:, None]
    for j, hashed in enumerate(_hashmix(words.T[:, None], xor, mult)):
        # A key whose words have run out keeps its pool.
        mixer = np.where([length > j for length in lengths], _mix(mixer, hashed), mixer)
    out = _hashmix(np.concatenate((mixer, mixer)), _OUT_XOR, _OUT_MULT)
    # Each 64-bit seed word is two output words, the low half first.
    states = []
    for s_hi, s_lo, q_hi, q_lo in np.ascontiguousarray(out.T, dtype="<u4").view("<u8").tolist():
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _exp_draws(rng: np.random.Generator, state: tuple[int, int], rate: float) -> Iterator[float]:
    """Exponential draws of ``rate`` from the PCG64 stream whose ``(state,
    inc)`` is ``state``, in blocks of 16 values doubling up to 512, so a
    stream that is used little holds little. ``rng`` draws each block: its
    bit generator is set to the stream's state before it, so the streams of
    a run share one generator. The state is read back after every block but
    the first, which is all most streams draw: the second block is drawn
    from the stream's start, after the first block's 16 values again.
    A block is packed doubles, read from the ndarray's bytes (the ndarray
    itself would yield numpy scalars), and yields plain floats: numpy
    scalars in heap keys would change the digest (their repr differs)."""
    bitgen = rng.bit_generator
    s, inc = state
    scale = 1.0 / rate
    size = 16
    while True:
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": s, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if size == 32:
            # s is still the start: draw the first block again, and drop it.
            block = rng.exponential(scale, 16 + 32)[16:]
        else:
            block = rng.exponential(scale, size)
        block = array("d", block.tobytes())
        if size > 16:
            s = bitgen.state["state"]["state"]
        yield from block
        # Freed before the next block is drawn, so that the next block
        # reuses its memory and the loop's working set stays small.
        del block
        if size < 512:
            size *= 2


class _Engine:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        t = cfg.topology
        self.topo = t
        self.by_id = t.by_id()
        self.horizon = cfg.horizon_s
        self.warmup = cfg.warmup_s

        self.hop_delay = cfg.hop_delay_s
        self.heap: list = []
        # Events scheduled at the current instant, in (time, seq) order.
        self.now_queue: deque = deque()
        self.seq = count()
        self.hasher = hashlib.blake2b(digest_size=8)
        self.events: Optional[list[SimEvent]] = [] if cfg.record_events else None
        self.messages: Optional[dict[int, Message]] = {} if cfg.record_events else None

        self.msg_id = 0
        self.bytes_gen = 0

        # Every stream of the run is derived in one pass: the service
        # stream of each server, keyed by its id, and the arrival stream of
        # each process with a positive rate, keyed by its target and its
        # index among that target's processes. One generator draws them all.
        servers = [n for n in t.nodes if n.tier is not Tier.DEVICE]
        keys = [(_PURPOSE_SERVICE, n.id) for n in servers]
        self.proc_size: list[int] = []
        self.proc_route: list[tuple[NodeId, ...]] = []
        rates = []
        index_at: dict[NodeId, int] = {}  # a target's last process index
        for proc in cfg.arrival_processes:
            target, rate = proc.target, proc.rate_per_s
            k = index_at[target] = index_at.get(target, -1) + 1
            if rate > 0:
                keys.append((_PURPOSE_ARRIVAL, target, k))
            rates.append(rate)
            # A device's route climbs to the node serving it, which
            # resolve_route would give too; a server's is itself.
            serving = serving_node(self.by_id[target], t)
            self.proc_route.append((target,) if serving == target else (target, serving))
            self.proc_size.append(proc.size_bytes)
        states = iter(_pcg64_states(cfg.seed, keys))
        # Its own seed is never drawn from: each block sets a stream's state.
        self.rng = np.random.Generator(np.random.PCG64(0))
        # Only fog/cloud nodes queue.
        self.servers: dict[NodeId, _NodeState] = {
            n.id: _NodeState(_exp_draws(self.rng, next(states), n.service_rate_per_s))
            for n in servers
        }
        self.proc_stream: list[Optional[Iterator[float]]] = [
            _exp_draws(self.rng, next(states), rate) if rate > 0 else None for rate in rates
        ]
        # (data class, content) of a process, from its first recorded
        # message on: its payload is classified, and sealed if private,
        # only when a message of it is recorded, so the rule that a fog
        # target may not hold keys is check_run_references's alone.
        self.proc_content: dict[int, tuple[DataClass, Union[Payload, SealedEnvelope]]] = {}
        # Device-tier nodes only count messages handled.
        self.device_arrivals: dict[NodeId, int] = {
            n.id: 0 for n in t.nodes if n.tier is Tier.DEVICE
        }

        self.sessions: list[Optional[ChargingSession]] = [None] * len(cfg.sessions)
        self.session_sources: dict[int, tuple[float, float]] = {}
        self.bills: list[BillRecord] = []
        self.bess = cfg.bess
        self.bess_schedule = sorted(cfg.bess_charge_schedule, key=lambda e: e.at_s)
        self.bess_ptr = 0
        self.mode = mode_transition(
            MicrogridMode.GRID_CONNECTED, cfg.grid_available
        )

    # -- setup --------------------------------------------------------

    def _setup_processes(self) -> None:
        for idx, stream in enumerate(self.proc_stream):
            if stream is not None:
                first = next(stream)
                if first <= self.horizon:
                    self._spawn_process_message(idx, first)

    def _spawn_process_message(self, idx: int, at: float) -> None:
        hops = self.proc_route[idx]
        transit = _Transit(self.msg_id, hops, idx)
        self.msg_id += 1
        heappush(self.heap, (at, next(self.seq), _ARRIVAL, hops[0], transit))

    def _process_message(self, transit: _Transit, at: float) -> Message:
        """The Message of a process transit, built only to be recorded.
        ``at``, its first arrival, is when it was created. Every message of
        a process shares one content, built at the first."""
        idx = transit.process_idx
        entry = self.proc_content.get(idx)
        if entry is None:
            proc = self.cfg.arrival_processes[idx]
            payload = Payload(kind=proc.payload_kind, bytes_size=proc.size_bytes)
            dclass = classify(payload, self.cfg.classification)
            # Private data is confidential between the originating meter
            # and the cloud.
            if dclass is DataClass.PRIVATE:
                content = seal(payload, {proc.target, self.topo.cloud_id}, self.topo)
            else:
                content = payload
            entry = self.proc_content[idx] = (dclass, content)
        dclass, content = entry
        return Message(
            id=transit.msg_id,
            src=transit.hops[0],
            dst=transit.hops[-1],
            data_class=dclass,
            content=content,
            created_at=at,
        )

    def _setup_sessions(self) -> None:
        starts = []
        for idx, plan in enumerate(self.cfg.sessions):
            if plan.start_s <= self.horizon:
                step = (idx, _Engine._initiate, None)
                starts.append(
                    (plan.start_s, next(self.seq), _SESSION_STEP, plan.outlet_meter, step)
                )
        # Only the earliest start waits in the heap; handling it pushes the
        # next. After the last comes an entry past any horizon, so the heap
        # never runs dry; its seq, -1, is unique and takes no run number.
        starts.sort()
        starts.append((math.inf, -1, _SESSION_STEP, None, None))
        self.starts = iter(starts)
        self._push_next_start()

    def _push_next_start(self) -> None:
        heappush(self.heap, next(self.starts))

    # -- session protocol ----------------------------------------------

    def _send_session_message(self, now: float, hops, size: int, build, step) -> None:
        """Put a session message of ``size`` payload bytes on the wire
        under the next message id; ``build`` (billing.request_message or
        approval_message) makes its Message, only to be recorded."""
        msg = None
        if self.messages is not None:
            msg = build(self.sessions[step[0]], self.topo, self.msg_id, now)
        self.bytes_gen += size
        transit = _Transit(self.msg_id, hops, step=step, msg=msg)
        self.msg_id += 1
        self.now_queue.append((now, next(self.seq), _ARRIVAL, hops[0], transit))

    def _initiate(self, now: float, idx: int, hops) -> None:
        self._push_next_start()
        plan = self.cfg.sessions[idx]
        registry = self.cfg.vehicle_registry
        session = billing.initiate_session(
            idx, plan.vehicle_id, plan.outlet_meter, registry, self.topo
        )
        session, route = billing.resolve_owner(session, registry, self.topo)
        self.sessions[idx] = session
        if session.state is SessionState.REJECTED:
            return
        if route is None:
            # Self-charge: no network round-trip needed.
            self._begin_charging(now, idx)
            return
        step = (idx, _Engine._reply, route.hops)
        self._send_session_message(
            now, route.hops, billing.REQUEST_BYTES, billing.request_message, step
        )

    def _reply(self, now: float, idx: int, hops) -> None:
        """The owner's meter answers the request delivered along ``hops``
        with the identity confirmation, back along them reversed
        (resolve_route is symmetric)."""
        step = (idx, _Engine._begin_charging, None)
        self._send_session_message(
            now, hops[::-1], billing.APPROVAL_BYTES, billing.approval_message, step
        )

    def _begin_charging(self, now: float, idx: int, hops=None) -> None:
        session = self.sessions[idx]
        session = billing.authorize(session)
        session = billing.start_charging(session, now)
        self.sessions[idx] = session
        plan = self.cfg.sessions[idx]
        done = now + plan.duration_s
        step = (idx, _Engine._complete_charge, None)
        heappush(self.heap, (done, next(self.seq), _SESSION_STEP, plan.outlet_meter, step))

    def _apply_bess_schedule(self, now: float) -> None:
        schedule = self.bess_schedule
        while self.bess_ptr < len(schedule) and schedule[self.bess_ptr].at_s <= now:
            entry = schedule[self.bess_ptr]
            self.bess_ptr += 1
            if self.bess is not None:
                self.bess = bess_charge_curtailed(self.bess, entry.energy_kwh)

    def _complete_charge(self, now: float, idx: int, hops) -> None:
        plan = self.cfg.sessions[idx]
        session = self.sessions[idx]
        self._apply_bess_schedule(now)
        energy = plan.energy_kwh
        if self.bess is not None and self.bess.soc_kwh >= energy:
            self.bess = bess_discharge(self.bess, energy)
            sources = (energy, 0.0)
        elif self.mode is MicrogridMode.GRID_CONNECTED:
            sources = (0.0, energy)
        else:
            # Islanded with a depleted battery: the outlet cannot deliver.
            self.sessions[idx] = billing.reject_session(
                session, "no energy source available in autonomous mode"
            )
            return
        session = billing.meter_energy(session, energy, at_s=now)
        session, bill = billing.settle_bill(
            session, self.cfg.tariff_per_kwh, self.cfg.vehicle_registry
        )
        self.sessions[idx] = session
        self.session_sources[session.session_id] = sources
        self.bills.append(bill)

    # -- main loop ------------------------------------------------------

    def run(self) -> SimResult:
        self._setup_processes()
        self._setup_sessions()

        heap = self.heap
        now_queue = self.now_queue
        popleft, schedule_now = now_queue.popleft, now_queue.append
        # Forwards, each hop_delay ahead: the clock never goes back and seq
        # only grows, so this FIFO stays in (time, seq) order, as now_queue.
        hop_queue = deque()
        pop_hop, schedule_hop = hop_queue.popleft, hop_queue.append
        horizon, warmup, hop_delay = self.horizon, self.warmup, self.hop_delay
        server_of = self.servers.get
        device_arrivals = self.device_arrivals
        proc_stream, proc_size, proc_route = self.proc_stream, self.proc_size, self.proc_route
        messages = self.messages
        next_seq = self.seq.__next__
        delivered = 0
        events = self.events
        # ",kind,node\n" of each (kind, node) seen so far, one dict per kind.
        suffixes: tuple[dict, ...] = tuple({} for _ in _KINDS)
        lines: list[str] = []
        append = lines.append
        n = 0
        last_time = time_repr = None
        while True:
            # seq is unique, so the tuples compare on (time, seq) alone; the heap never empties.
            if (
                hop_queue
                and (not now_queue or hop_queue[0] < now_queue[0])
                and hop_queue[0] < heap[0]
            ):
                entry = pop_hop()
            elif now_queue:
                entry = heappop(heap) if heap[0] < now_queue[0] else popleft()
            else:
                entry = heappop(heap)
            time, seq, kind, node, data = entry
            if time > horizon:
                break
            suffix = suffixes[kind].get(node)
            if suffix is None:
                suffix = suffixes[kind][node] = f",{_KINDS[kind].value},{node}\n"
            # Same object, same repr; equality would alias 0.0 and -0.0.
            if time is not last_time:
                last_time = time
                time_repr = repr(time)
            append(f"{time_repr},{seq}{suffix}")
            n += 1
            if not n % _DIGEST_FLUSH:
                self.hasher.update("".join(lines).encode())
                lines.clear()
            if events is not None:
                events.append(SimEvent(time, seq, _KINDS[kind], node, _subject_of(kind, data)))

            # Queue events are handled here; a service event's data is its
            # server's _NodeState, an arrival's its _Transit.
            if kind == _ARRIVAL:
                transit = data
                if transit.hop_idx == 0:
                    idx = transit.process_idx
                    if idx is not None:
                        self.bytes_gen += proc_size[idx]
                        # Keep the Poisson stream flowing: draw the next generation.
                        nxt = time + next(proc_stream[idx])
                        if nxt <= horizon:
                            self._spawn_process_message(idx, nxt)
                    if messages is not None:
                        messages[transit.msg_id] = (
                            transit.msg if idx is None else self._process_message(transit, time)
                        )
                st = server_of(node)
                if st is None:
                    # Device tier: zero queueing, forward or deliver immediately.
                    if time >= warmup:
                        device_arrivals[node] += 1
                else:
                    transit.node_arrival = time
                    if time >= warmup:
                        st.arrivals_window += 1
                    # Queue-area rule, as _finalize states it at the horizon.
                    queue = st.queue
                    if time > warmup and queue:
                        lo = st.last_t if st.last_t > warmup else warmup
                        st.area_window += len(queue) * (time - lo)
                    st.last_t = time
                    queue.append(transit)
                    if len(queue) == 1:
                        schedule_now((time, next_seq(), _SERVICE_START, node, st))
                    continue
            elif kind == _SERVICE_START:
                data.busy_since = time
                heappush(heap, (time + next(data.service), next_seq(), _SERVICE_END, node, data))
                continue
            elif kind == _SERVICE_END:
                st = data
                queue = st.queue
                # The message in service still counts until now.
                if time > warmup:
                    lo = st.last_t if st.last_t > warmup else warmup
                    st.area_window += len(queue) * (time - lo)
                st.last_t = time
                transit = queue.popleft()
                # Busy-window rule, as _finalize states it at the horizon.
                since = st.busy_since
                st.busy_total += time - since
                lo = since if since > warmup else warmup
                if time > lo:
                    st.busy_window += time - lo
                if transit.node_arrival >= warmup:
                    st.samples += 1
                    st.sojourn_sum += time - transit.node_arrival
                if queue:
                    schedule_now((time, next_seq(), _SERVICE_START, node, st))
            else:
                idx, handler, hops = data
                handler(self, time, idx, hops)
                continue

            # A device arrival or a ServiceEnd: send the transit on to its
            # next hop, or deliver it at the last.
            hops = transit.hops
            if transit.hop_idx == len(hops) - 1:
                delivered += 1
                if transit.step is not None:
                    schedule_now((time, next_seq(), _SESSION_STEP, node, transit.step))
            else:
                transit.hop_idx += 1
                at = time + hop_delay
                schedule_hop((at, next_seq(), _ARRIVAL, hops[transit.hop_idx], transit))

        self.hasher.update("".join(lines).encode())
        return self._finalize(n, delivered)

    def _finalize(self, event_count: int, delivered: int) -> SimResult:
        horizon, warmup = self.horizon, self.warmup
        window = horizon - warmup
        self._apply_bess_schedule(horizon)

        stats: dict[NodeId, QueueStats] = {}
        energy: dict[NodeId, EnergyLedger] = {}
        # A device only counts the messages it handles: it has no queue and
        # no busy time, so it idles to the horizon. One blank state gives
        # every device's row. Energy rows are accrued once per (spec, busy
        # time) and copied: every node idle to the horizon shares its spec's.
        # The memo keys a spec by identity, as a DeviceSpec hashes in Python;
        # by_id keeps every spec alive, and equal specs accrue equal rows.
        device = _NodeState(None)
        rows: dict[tuple[int, float], EnergyLedger] = {}
        for node in sorted(self.by_id):
            st = self.servers.get(node)
            if st is None:
                st = device
                st.arrivals_window = self.device_arrivals[node]
            elif st.queue:
                # Close the queue area and the open busy period at the
                # horizon, by the loop's rules; their guards drop, as
                # warmup < horizon and a period starting there adds 0.0.
                lo = st.last_t if st.last_t > warmup else warmup
                st.area_window += len(st.queue) * (horizon - lo)
                since = st.busy_since
                st.busy_total += horizon - since
                st.busy_window += horizon - (since if since > warmup else warmup)
            # `or 0.0` keeps a zero the shared constant: a new float per
            # device row cost metro-grid's compare 0.25 MB of peak RSS.
            # A slot builder makes a frozen row in half its __init__'s time.
            stats[node] = _queue_row(
                node,
                st.arrivals_window / window,
                st.sojourn_sum / st.samples if st.samples else 0.0,
                st.area_window / window or 0.0,
                st.busy_window / window or 0.0,
                st.samples,
            )
            spec = self.by_id[node].spec
            busy = st.busy_total
            key = id(spec), busy
            row = rows.get(key)
            if row is None:
                row = accrue_energy(EnergyLedger(node), spec, busy, horizon - busy)
                rows[key] = row
            energy[node] = _energy_row(node, row.active_time_s, row.idle_time_s, row.energy_mj)

        trace = SimTrace(
            digest=self.hasher.hexdigest(),
            event_count=event_count,
            events=tuple(self.events) if self.events is not None else None,
        )
        sessions = tuple(s for s in self.sessions if s is not None)
        return SimResult(
            trace=trace,
            queue_stats=stats,
            energy=energy,
            sessions=sessions,
            bills=tuple(self.bills),
            session_sources=dict(self.session_sources),
            # Exact: every message id is handed out at or before the
            # horizon, when its first arrival is scheduled, and the loop
            # handles every event up to the horizon, each such arrival too.
            messages_generated=self.msg_id,
            messages_delivered=delivered,
            bytes_generated=self.bytes_gen,
            microgrid_mode=self.mode,
            bess_final=self.bess,
            messages=self.messages,
        )


def _subject_of(kind: int, data) -> Optional[int]:
    # A service event's data is its server, which is no subject.
    if kind == _SESSION_STEP:
        return data[0]
    return data.msg_id if kind == _ARRIVAL else None


def check_run_values(cfg: RunConfig) -> list[str]:
    """Every value of ``cfg`` that keeps it from running, whatever its
    topology, one line each, starting with its RunConfig field path."""
    problems: list[str] = []

    def fail(path: str, rule: str, value) -> None:
        problems.append(f"{path}: {rule}, got {shown(value)}")

    # Takes the path of a list of records and the names of their fields.
    def nonnegative(path: str, records, *fields: str) -> None:
        for i, record in enumerate(records):
            for name in fields:
                value = getattr(record, name)
                if not 0 <= value <= FLOAT_MAX:
                    fail(f"{path}[{i}].{name}", "must be finite and nonnegative", value)

    seed, horizon, tariff, bess = cfg.seed, cfg.horizon_s, cfg.tariff_per_kwh, cfg.bess
    # A rule comparing two fields stays the elif of the `0 < x` rule on the
    # one it compares with: the YAML reader reads a failed one as 0.
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        fail("seed", "must be an integer in [0, 2**64)", seed)
    if not 0 < horizon <= FLOAT_MAX:
        fail("horizon_s", "must be finite and positive", horizon)
    elif not 0 <= cfg.warmup_s < horizon:
        fail("warmup_s", "must satisfy 0 <= warmup_s < horizon_s", cfg.warmup_s)
    if not 0 <= cfg.hop_delay_s <= FLOAT_MAX:
        fail("hop_delay_s", "must be finite and nonnegative", cfg.hop_delay_s)
    if not 0 < tariff <= FLOAT_MAX:
        fail("tariff_per_kwh", "must be finite and positive", tariff)
    if bess is not None:
        if not 0 < bess.capacity_kwh <= FLOAT_MAX:
            fail("bess.capacity_kwh", "must be finite and positive", bess.capacity_kwh)
        elif not 0 <= bess.soc_kwh <= bess.capacity_kwh:
            fail("bess.soc_kwh", "must be in [0, capacity_kwh]", bess.soc_kwh)
        if not 0 < bess.efficiency <= 1:
            fail("bess.efficiency", "must be in (0, 1]", bess.efficiency)
    nonnegative("bess_charge_schedule", cfg.bess_charge_schedule, "at_s", "energy_kwh")
    nonnegative("arrival_processes", cfg.arrival_processes, "rate_per_s")
    for i, proc in enumerate(cfg.arrival_processes):
        kind, size = proc.payload_kind, proc.size_bytes
        if kind not in cfg.classification:
            detail = f"{shown(kind)} has no classification entry"
            problems.append(f"arrival_processes[{i}].payload_kind: {detail}")
        if not 0 < size <= FLOAT_MAX:
            rule = "must be positive and within the float range"
            fail(f"arrival_processes[{i}].size_bytes", rule, size)
    nonnegative("sessions", cfg.sessions, "start_s", "duration_s", "energy_kwh")
    return problems


def check_run_references(cfg: RunConfig) -> list[str]:
    """Every node that ``cfg`` names and may not, one line each, starting
    with its RunConfig field path."""
    problems: list[str] = []
    by_id = cfg.topology.by_id()

    # Takes a path with a ``{}`` for the key, and (key, node id) pairs.
    def device_meters(path: str, meters) -> None:
        for key, node_id in meters:
            node = by_id.get(node_id)
            if node is None:
                rule = "is not defined"
            elif node.tier is not Tier.DEVICE:
                rule = "is not a device-tier meter"
            else:
                continue
            problems.append(f"{path.format(shown(key, str))}: node {shown(node_id)} {rule}")

    for i, proc in enumerate(cfg.arrival_processes):
        path, target, kind = f"arrival_processes[{i}].target", proc.target, proc.payload_kind
        node = by_id.get(target)
        if node is None:
            problems.append(f"{path}: node {shown(target)} is not defined")
        elif node.tier is Tier.FOG and cfg.classification.get(kind) is DataClass.PRIVATE:
            # Private data would be sealed for its target (messages.seal),
            # which the engine does only for recorded messages.
            detail = f"may not hold keys for private {shown(kind, str)} data"
            problems.append(f"{path}: fog node {shown(target)} {detail}")
    registry = cfg.vehicle_registry.items()
    device_meters("vehicle_registry.{}.meter", ((v, identity.meter) for v, identity in registry))
    device_meters("sessions[{}].outlet_meter", enumerate(p.outlet_meter for p in cfg.sessions))
    return problems


def check_run_config(cfg: RunConfig) -> list[str]:
    """Every problem that keeps ``cfg`` from running, beside the topology
    lines of :func:`validate_topology`: the lines of
    :func:`check_run_values`, then of :func:`check_run_references`, the
    one statement of the run rules. :func:`run` raises them as
    InvalidRunConfig; ``scenario.parse_config`` puts them under YAML paths."""
    return check_run_values(cfg) + check_run_references(cfg)


def run(cfg: RunConfig) -> SimResult:
    """Execute one deterministic simulation run. A config with problems
    raises InvalidTopology or InvalidRunConfig before any stream exists."""
    problems = validate_topology(cfg.topology)
    if problems:
        raise InvalidTopology(problems)
    problems = check_run_config(cfg)
    if problems:
        raise InvalidRunConfig(problems)
    return _Engine(cfg).run()
