"""Scenario configuration files.

A scenario is one YAML document with four sections:

``run``
    seed (default 0), horizon_s (required), warmup_s (default 1% of the
    horizon).
``topology``
    mode (``fog-augmented`` default, or ``cloud-only``), nodes, fog_links.
    Each node: id, tier, plus optional role, area, service_rate_per_s,
    spec overrides, account.
``workload``
    arrival_processes, classification overrides, vehicle_registry,
    sessions. All optional.
``models``
    power_specs per tier, c_ms, bess, bess_charge_schedule,
    tariff_per_kwh, grid_available, hop_delay_s. All optional.

Parsing is total: malformed input of any shape produces a SchemaError
listing every problem with its config path, never a crash. The schema
stage reads types and shapes here, and checks ``models.c_ms`` and, through
``engine.check_run_values`` on the RunConfig built from the document, the
run values. Once it is clean, the workload's node references
(DanglingReference: ``engine.check_run_references``) and then the topology
(InvalidTopology) are checked. Node values (id, area, service rate, spec)
and fog links belong to the topology stage: ``topology.validate_topology``
states their rules, a fog link to an undefined node among them, and its
spec rule, ``topology.spec_violations``, also covers each tier default of
``models.power_specs``.

Documents are parsed by PyYAML's libyaml-backed ``CSafeLoader`` when the
installed PyYAML was built with libyaml, and by the pure-Python
``SafeLoader`` otherwise: the same safe constructors and YAML 1.1 resolver,
so equal documents, and invalid-YAML messages at the same line and column
in libyaml's words (e.g. "did not find expected ',' or ']'").
:func:`_walk` builds dicts and lists from the loader's events as they
arrive, so no node tree is ever held: each scalar by the loader's own
constructor for its tag, as the loader's resolver finds it (once per
distinct scalar of a document), and each alias as its anchor's value.
``<<`` and ``=`` keys, non-scalar keys, collection tags such as ``!!set``,
unknown tags, a second document, a scalar its constructor rejects
(``!!bool maybe``, an impossible date) and every error load the text
afresh with ``yaml.load``, which reports errors in PyYAML's own order; such a
text is read twice. A document nested deeper than ``MAX_DEPTH`` levels is
a SchemaError, on either path, before the rest of it is read.

YAML 1.1 quirk worth knowing: ``1e6`` reads as a string, not a float.
Write ``1000000`` or ``1.0e+6``. Numbers must be finite: ``.inf`` and
``.nan`` are rejected wherever a number is expected, by the rule that owns
the value (an integer beyond the float range reads as the infinity of its
sign where a float is expected, and as itself where an integer is): a run,
model or workload value as a SchemaError, a node's id, area, service rate
or spec as an InvalidTopology line. A target, registry meter or outlet no
node has is a DanglingReference. An omitted optional field takes the
default of the model type that owns it (``RunConfig``, ``Node``, ...), and
a battery, charge entry, arrival process, session or spec has the fields of
its dataclass. A run rule on a mistyped or missing field is not reported.
"""

from __future__ import annotations

import functools
import inspect
import math
import re
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, Optional, get_type_hints

import yaml
from yaml.events import AliasEvent, DocumentEndEvent, MappingEndEvent, MappingStartEvent
from yaml.events import ScalarEvent, SequenceEndEvent, SequenceStartEvent, StreamEndEvent
from yaml.nodes import ScalarNode

from .billing import MeterIdentity
from .engine import ArrivalProcess, BessChargeEntry, RunConfig, SessionPlan
from .engine import check_run_references, check_run_values
from .energy import BessState, ProcessingModel
from .errors import ConfigError, shown
from .messages import DEFAULT_CLASSIFICATION, DataClass
from .topology import (
    FLOAT_MAX,
    DeviceRole,
    DeviceSpec,
    InvalidTopology,
    Mode,
    Node,
    Tier,
    Topology,
    default_cloud_spec,
    default_device_spec,
    default_fog_spec,
    make_topology,
    spec_violations,
    validate_topology,
)


class SchemaError(ConfigError):
    """A field is missing, mistyped, out of range, or unknown."""


class DanglingReference(ConfigError):
    """A workload entry references a node id the topology does not define,
    or defines with an unusable tier (a fog node may not start private
    data). A fog link's endpoints are topology rules (InvalidTopology)."""


_TIERS = {t.name.lower(): t for t in Tier}
_ROLES = {r.value: r for r in DeviceRole}
_MODES = {m.value: m for m in Mode}
_CLASSES = {c.value: c for c in DataClass}

_DEFAULT_ROLE = {
    Tier.DEVICE: DeviceRole.SENSOR,
    Tier.FOG: DeviceRole.GATEWAY,
    Tier.CLOUD: DeviceRole.COMPUTING,
}

_DEFAULT_SPEC = {
    Tier.DEVICE: default_device_spec,
    Tier.FOG: default_fog_spec,
    Tier.CLOUD: default_cloud_spec,
}

#: The libyaml-backed safe loader where PyYAML has it; same documents.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: The loader's scalar constructors that return their value directly;
#: the collection constructors are generators and stay with PyYAML.
_SCALAR_CONSTRUCTORS = {
    tag: construct
    for tag, construct in _LOADER.yaml_constructors.items()
    if tag is not None and not inspect.isgeneratorfunction(construct)
}
_MAP_TAG = "tag:yaml.org,2002:map"
_SEQ_TAG = "tag:yaml.org,2002:seq"
#: A mapping's pending key before its key scalar arrives, and a memo miss.
_NO_KEY = object()
#: The deepest nesting of collections a document may have. libyaml and
#: PyYAML's pure-Python scanner take time quadratic in the depth of flow
#: collections to read their events, so a deeper document is rejected
#: before more of its events are read.
MAX_DEPTH = 100
_TOO_DEEP = f"document: nested deeper than {MAX_DEPTH} levels"
#: The change in depth at each collection event.
_LEVELS = {MappingStartEvent: 1, SequenceStartEvent: 1, MappingEndEvent: -1, SequenceEndEvent: -1}

#: Fraction of the horizon discarded as warmup when warmup_s is omitted.
DEFAULT_WARMUP_FRACTION = 0.01

#: The YAML path of each RunConfig field outside the workload section.
_YAML_PATHS = {f: f"run.{f}" for f in ("seed", "horizon_s", "warmup_s")} | {
    f: f"models.{f}" for f in ("hop_delay_s", "tariff_per_kwh", "bess", "bess_charge_schedule")
}
#: The same, naming the command-line override a run field comes from.
_OVERRIDE_NAMES = _YAML_PATHS | dict(
    seed="seed override", horizon_s="horizon override", warmup_s="horizon override: warmup_s"
)


def _relabel(problems: list[str], names: dict[str, str]) -> list[str]:
    """Run-check lines with the RunConfig field each starts with renamed
    by ``names``; a field not in ``names`` goes under ``workload.``."""
    fields = [re.match(r"\w+", problem)[0] for problem in problems]
    return [names.get(f, f"workload.{f}") + p[len(f):] for f, p in zip(fields, problems)]


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed, fully validated scenario.

    ``run_config`` is ready to hand to the engine. ``warmup_explicit``
    records whether warmup_s was stated in the file, so a later horizon
    override knows whether to rescale the default or keep the stated
    value.
    """

    run_config: RunConfig
    c_ms: float = ProcessingModel.c_ms
    warmup_explicit: bool = False


#: The ``default`` of a required field.
_REQUIRED = object()


class _Reader:
    """Typed field access that collects problems instead of raising, so
    one pass reports every problem.

    A missing or mistyped field reads as its default, and a required one
    as its type's zero (``_TYPE_PROBLEMS``; None for a choice). The path of
    every field that fails goes in ``failed``, so a run-rule line on it,
    about a value the document does not hold, is dropped.
    """

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.failed: set[str] = set()

    def fail(self, path: str, msg: str) -> None:
        self.problems.append(f"{path}: {msg}")

    def mapping(self, value: Any, path: str) -> dict:
        if value is None:
            return {}
        if not isinstance(value, dict):
            self.fail(path, f"expected a mapping, got {type(value).__name__}")
            return {}
        return value

    def sequence(self, value: Any, path: str) -> list:
        if value is None:
            return []
        if not isinstance(value, list):
            self.fail(path, f"expected a list, got {type(value).__name__}")
            return []
        return value

    def known_keys(self, m: dict, path: str, allowed: tuple[str, ...]) -> None:
        for key in m:
            if key not in allowed:
                self.fail(f"{path}.{shown(key, str)}", "unknown key")

    def _fallback(self, v, key, path, default, expected, zero):
        """What field ``key`` reads as when it holds ``v``, which is None
        (omitted) or not ``expected`` (a text, or a choice's table)."""
        if v is None and default is not _REQUIRED:
            return default
        if v is None:
            problem = "required field is missing"
        elif isinstance(expected, str):
            problem = f"expected {expected}, got {shown(v)}"
        else:
            problem = f"expected one of [{', '.join(sorted(expected))}], got {shown(v)}"
        self.fail(f"{path}.{key}", problem)
        self.failed.add(f"{path}.{key}")
        return zero if default is _REQUIRED else default

    def field(self, m, key, path, kind: type, default=_REQUIRED):
        """Field ``key`` as an int, float, str or bool ``kind``. An integer
        is read at any size (its owner states its range), and as a float
        where a float is expected."""
        v = m.get(key)
        if v.__class__ is kind:
            return v
        if kind is float and v.__class__ is int:
            if -FLOAT_MAX <= v <= FLOAT_MAX:
                return float(v)
            return math.inf if v > 0 else -math.inf  # too large for a float; its owner rejects it
        return self._fallback(v, key, path, default, *_TYPE_PROBLEMS[kind])

    def choice(self, m, key, path, table, default=_REQUIRED):
        v = m.get(key)
        if isinstance(v, str) and v in table:
            return table[v]
        return self._fallback(v, key, path, default, table, None)

    def record(self, cls, raw: Any, path: str, base=None):
        """The ``cls`` record that the mapping ``raw`` holds, its keys and
        their types those of the dataclass ``cls``; an omitted field takes
        its default in ``cls``, or with a ``base`` record, its value there."""
        names, kinds = _record_fields(cls)
        m = self.mapping(raw, path)
        self.known_keys(m, path, names)
        values = []  # a loop, not a comprehension: it runs for every session
        for name, kind, default in kinds:
            if base is not None:
                default = getattr(base, name)
            values.append(self.field(m, name, path, kind, default))
        return cls(*values)


#: The type a problem line names for each field kind, and the zero that a
#: missing or mistyped required field of that kind reads as.
_TYPE_PROBLEMS = {
    int: ("an integer", 0),
    float: ("a number", 0.0),
    str: ("a string", ""),
    bool: ("true/false", False),
}


@functools.cache
def _record_fields(cls) -> tuple[tuple[str, ...], tuple]:
    """The field names of the dataclass ``cls``, and each field's name,
    type, and default (``_REQUIRED`` if it has none)."""
    types = get_type_hints(cls)
    kinds = tuple(
        (f.name, types[f.name], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls)
    )
    return tuple(name for name, _, _ in kinds), kinds


def _read_node(r: _Reader, m: Any, path: str, tier_specs) -> Optional[Node]:
    if not isinstance(m, dict) or not m:
        r.fail(path, f"expected a non-empty mapping, got {shown(m)}")
        return None
    r.known_keys(
        m, path, ("id", "tier", "role", "area", "service_rate_per_s", "spec", "account")
    )
    node_id = r.field(m, "id", path, int)
    tier = r.choice(m, "tier", path, _TIERS)
    if tier is None:
        return None
    role = r.choice(m, "role", path, _ROLES, _DEFAULT_ROLE[tier])
    area = r.field(m, "area", path, int, Node.area)
    rate = r.field(m, "service_rate_per_s", path, float, Node.service_rate_per_s)
    spec = tier_specs[tier]
    if m.get("spec") is not None:
        spec = r.record(DeviceSpec, m["spec"], f"{path}.spec", spec)
    account = r.field(m, "account", path, str, Node.account)
    return Node(
        id=node_id,
        tier=tier,
        role=role,
        spec=spec,
        service_rate_per_s=rate,
        area=area,
        account=account,
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises SchemaError, DanglingReference, or InvalidTopology; each lists
    every problem found at its stage.
    """
    try:
        doc = _load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = (
            f"line {mark.line + 1}, column {mark.column + 1}"
            if mark is not None
            else "document"
        )
        detail = getattr(exc, "problem", None) or str(exc)
        raise SchemaError([f"{where}: invalid YAML ({detail})"]) from None
    except UnicodeEncodeError as exc:
        # libyaml reads UTF-8, which cannot carry a lone surrogate.
        raise SchemaError(
            [f"document: invalid YAML (unencodable character at {exc.start})"]
        ) from None
    except ValueError as exc:
        # A scalar its constructor rejects: a date such as 2020-13-45, an
        # integer literal longer than Python converts from text, or text
        # that does not match its explicit tag.
        raise SchemaError([f"document: invalid YAML ({exc})"]) from None
    return _build(doc)


class _Fallback(Exception):
    """A document shape that :func:`_walk` leaves to PyYAML."""


def _load(text: str) -> Any:
    """``yaml.load(text, Loader=_LOADER)``, built by :func:`_walk`; a
    document nested deeper than MAX_DEPTH is a SchemaError."""
    loader = _LOADER(text)
    try:
        return _walk(loader)
    except SchemaError:
        raise
    except Exception:  # a shape or an error left to PyYAML, to raise in its own order
        pass
    finally:
        loader.dispose()
    try:
        return yaml.load(text, Loader=_LOADER)
    except (KeyError, AttributeError, IndexError):
        # PyYAML's bool, timestamp, int and float constructors look up,
        # match or index the text of an explicitly tagged scalar without
        # checking it: `!!bool maybe`, `!!timestamp soon`, `!!float ""`.
        raise ValueError("a scalar does not match its explicit tag") from None


def _walk(loader) -> Any:
    """The loader's one document, built from its events on an explicit stack;
    raises SchemaError past MAX_DEPTH. On a shape left to PyYAML it reads on
    to the end, counting depth only, and raises _Fallback; a loader error is
    raised at once (libyaml's parser then returns None forever)."""
    get_event = loader.get_event
    memo = {}  # (text, implicit, tag) -> the scalar's value; every one is immutable
    anchors = {}  # anchor -> its value, from the anchored event on
    get_event()  # StreamStartEvent
    if get_event().__class__ is StreamEndEvent:  # else DocumentStartEvent
        return None
    root = top = []  # the document's holder, then the innermost open collection
    key, stack = _NO_KEY, []  # top's pending key; each enclosing collection and key
    try:
        while (event := get_event()).__class__ is not DocumentEndEvent:
            cls = event.__class__
            if cls is MappingEndEvent or cls is SequenceEndEvent:
                top, key = stack.pop()
                continue
            if cls is ScalarEvent:
                memo_key = (event.value, event.implicit, event.tag)
                value = memo.get(memo_key, _NO_KEY)
                if value is _NO_KEY:
                    value = memo[memo_key] = _scalar(loader, event)
            elif cls is MappingStartEvent and event.tag in (None, "!", _MAP_TAG):
                value = {}
            elif cls is SequenceStartEvent and event.tag in (None, "!", _SEQ_TAG):
                value = []
            elif cls is AliasEvent and event.anchor in anchors:
                value = anchors[event.anchor]
                if value.__hash__ is None and key is _NO_KEY and top.__class__ is dict:
                    raise _Fallback  # an aliased collection as a key
                cls = ScalarEvent  # placed as a scalar is: it opens no level
            else:  # an undefined alias, or a collection tag other than map or seq
                raise _Fallback
            if event.anchor is not None and event.__class__ is not AliasEvent:
                if event.anchor in anchors:  # a duplicate anchor
                    raise _Fallback
                anchors[event.anchor] = value
            if top.__class__ is list:
                top.append(value)
            elif key is _NO_KEY:
                if cls is not ScalarEvent:  # a collection as a key
                    raise _Fallback
                key = value
                continue
            else:
                top[key] = value
                key = _NO_KEY
            if cls is not ScalarEvent:
                stack.append((top, key))
                if len(stack) > MAX_DEPTH:
                    raise SchemaError([_TOO_DEEP])
                top, key = value, _NO_KEY
        if (event := get_event()).__class__ is not StreamEndEvent:  # a second document
            raise _Fallback
    except _Fallback:
        depth = len(stack)  # the levels open below the event that stopped the walk
        while event.__class__ is not StreamEndEvent:
            depth += _LEVELS.get(event.__class__, 0)
            if depth > MAX_DEPTH:
                raise SchemaError([_TOO_DEEP]) from None
            event = get_event()
        raise
    return root[0]


def _scalar(loader, event) -> Any:
    """A scalar event's value, by the loader's constructor for its tag as the
    loader resolves it; raises _Fallback if there is none, or if it rejects
    the text (which ``yaml.load`` reports, after any syntax error)."""
    tag, text = event.tag, event.value
    if tag is None or tag == "!":
        tag = loader.resolve(ScalarNode, text, event.implicit)
    try:
        return _SCALAR_CONSTRUCTORS[tag](loader, ScalarNode(tag, text))
    except Exception:
        raise _Fallback from None


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError([f"cannot read config file: {exc}"]) from None
    return parse_config(text)


def _build(doc: Any) -> ScenarioConfig:
    r = _Reader()
    root = r.mapping(doc, "config")
    if not root:
        raise SchemaError(["config: document must be a non-empty mapping"])
    r.known_keys(root, "config", ("run", "topology", "workload", "models"))

    # -- run section ----------------------------------------------------
    run = r.mapping(root.get("run"), "run")
    if "run" not in root:
        r.fail("run", "required section is missing")
    r.known_keys(run, "run", ("seed", "horizon_s", "warmup_s"))
    seed = r.field(run, "seed", "run", int, 0)
    horizon = r.field(run, "horizon_s", "run", float)
    warmup_explicit = run.get("warmup_s") is not None
    warmup = r.field(run, "warmup_s", "run", float, DEFAULT_WARMUP_FRACTION * horizon)

    # -- models section ---------------------------------------------------
    models = r.mapping(root.get("models"), "models")
    r.known_keys(
        models,
        "models",
        (
            "power_specs",
            "c_ms",
            "bess",
            "bess_charge_schedule",
            "tariff_per_kwh",
            "grid_available",
            "hop_delay_s",
        ),
    )
    tier_specs = {tier: make() for tier, make in _DEFAULT_SPEC.items()}
    power_specs = r.mapping(models.get("power_specs"), "models.power_specs")
    r.known_keys(power_specs, "models.power_specs", tuple(_TIERS))
    for name, tier in _TIERS.items():
        if name in power_specs:
            tier_specs[tier] = r.record(
                DeviceSpec, power_specs[name], f"models.power_specs.{name}", tier_specs[tier]
            )
    c_ms = r.field(models, "c_ms", "models", float, ProcessingModel.c_ms)
    if not 0 < c_ms <= FLOAT_MAX:
        r.fail("models.c_ms", f"must be finite and positive, got {c_ms!r}")
    bess = None
    if models.get("bess") is not None:
        bess = r.record(BessState, models["bess"], "models.bess")
    schedule = [
        r.record(BessChargeEntry, raw, f"models.bess_charge_schedule[{i}]")
        for i, raw in enumerate(
            r.sequence(models.get("bess_charge_schedule"), "models.bess_charge_schedule")
        )
    ]
    tariff = r.field(models, "tariff_per_kwh", "models", float, RunConfig.tariff_per_kwh)
    grid = r.field(models, "grid_available", "models", bool, RunConfig.grid_available)
    hop_delay = r.field(models, "hop_delay_s", "models", float, RunConfig.hop_delay_s)

    # -- topology section -------------------------------------------------
    topo_m = r.mapping(root.get("topology"), "topology")
    if "topology" not in root:
        r.fail("topology", "required section is missing")
    r.known_keys(topo_m, "topology", ("mode", "nodes", "fog_links"))
    mode = r.choice(topo_m, "mode", "topology", _MODES, Topology.mode)
    nodes = []
    for i, raw in enumerate(r.sequence(topo_m.get("nodes"), "topology.nodes")):
        node = _read_node(r, raw, f"topology.nodes[{i}]", tier_specs)
        if node is not None:
            nodes.append(node)
    links = []
    for i, raw in enumerate(r.sequence(topo_m.get("fog_links"), "topology.fog_links")):
        path = f"topology.fog_links[{i}]"
        if (
            not isinstance(raw, list)
            or len(raw) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in raw)
        ):
            r.fail(path, f"expected a pair of node ids, got {shown(raw)}")
            continue
        links.append((raw[0], raw[1]))
    topology = make_topology(nodes, links, mode)
    by_id = topology.by_id()

    # -- workload section ---------------------------------------------------
    workload = r.mapping(root.get("workload"), "workload")
    r.known_keys(
        workload,
        "workload",
        ("arrival_processes", "classification", "vehicle_registry", "sessions"),
    )
    classification = dict(DEFAULT_CLASSIFICATION)
    class_m = r.mapping(workload.get("classification"), "workload.classification")
    for kind, raw in class_m.items():
        if not isinstance(kind, str):
            r.fail("workload.classification", f"kind {shown(kind)} must be a string")
            continue
        cls = r.choice(class_m, kind, "workload.classification", _CLASSES)
        if cls is not None:
            classification[kind] = cls

    processes = [
        r.record(ArrivalProcess, raw, f"workload.arrival_processes[{i}]")
        for i, raw in enumerate(
            r.sequence(workload.get("arrival_processes"), "workload.arrival_processes")
        )
    ]

    registry = {}
    reg_m = r.mapping(workload.get("vehicle_registry"), "workload.vehicle_registry")
    for vehicle, raw in reg_m.items():
        if not isinstance(vehicle, str):
            r.fail("workload.vehicle_registry", f"vehicle id {shown(vehicle)} must be a string")
            continue
        path = f"workload.vehicle_registry.{vehicle}"
        vm = r.mapping(raw, path)
        r.known_keys(vm, path, ("meter", "account"))
        meter = r.field(vm, "meter", path, int)
        owner = by_id[meter].owner_account() if meter in by_id else None
        account = r.field(vm, "account", path, str, owner)
        registry[vehicle] = MeterIdentity(meter=meter, owner_account=account)

    sessions = [
        r.record(SessionPlan, raw, f"workload.sessions[{i}]")
        for i, raw in enumerate(r.sequence(workload.get("sessions"), "workload.sessions"))
    ]

    run_config = RunConfig(
        seed=seed,
        horizon_s=horizon,
        warmup_s=warmup,
        topology=topology,
        arrival_processes=tuple(processes),
        sessions=tuple(sessions),
        vehicle_registry=registry,
        classification=classification,
        tariff_per_kwh=tariff,
        bess=bess,
        bess_charge_schedule=tuple(schedule),
        grid_available=grid,
        hop_delay_s=hop_delay,
    )
    # A field the reader failed holds its default or its type's zero, not
    # the document's value, so a run-rule line on its path is dropped. A
    # failed horizon_s or capacity_kwh reads as 0 and fails its `0 < x`
    # rule, so check_run_values compares no other field with it.
    values = _relabel(check_run_values(run_config), _YAML_PATHS)
    problems = r.problems + [p for p in values if p.partition(": ")[0] not in r.failed]
    if problems:
        raise SchemaError(problems)

    # -- reference stage ---------------------------------------------------
    dangling = _relabel(check_run_references(run_config), _YAML_PATHS)
    if dangling:
        raise DanglingReference(dangling)

    # -- topology stage ------------------------------------------------------
    problems = validate_topology(topology)
    for name in power_specs:  # also the tier defaults no node inherits
        problems += spec_violations(tier_specs[_TIERS[name]], f"models.power_specs.{name}")
    if problems:
        raise InvalidTopology(problems)
    return ScenarioConfig(
        run_config=run_config, c_ms=c_ms, warmup_explicit=warmup_explicit
    )


def with_mode(sc: ScenarioConfig, mode: Mode) -> ScenarioConfig:
    """The same scenario with the topology mode forced.

    The flipped topology must still validate (a fog-augmented run needs a
    fog node in every device area, which a cloud-only authored config may
    lack). A topology already in ``mode`` is kept, with the report that
    ``parse_config`` cached on it; a flipped one is a new instance, which
    builds its own indexes and report.
    """
    topo = sc.run_config.topology
    if topo.mode is not mode:
        topo = replace(topo, mode=mode)
    problems = validate_topology(topo)
    if problems:
        raise InvalidTopology(problems)
    return replace(sc, run_config=replace(sc.run_config, topology=topo))


def with_overrides(
    sc: ScenarioConfig,
    seed: Optional[int] = None,
    horizon_s: Optional[float] = None,
) -> ScenarioConfig:
    """Apply command-line overrides on top of a parsed scenario.

    A horizon override rescales a defaulted warmup; an explicitly
    configured warmup is kept. The result must pass ``check_run_values``,
    whose lines name the override they come from, raised as SchemaError.
    """
    if seed is None and horizon_s is None:
        return sc
    rc = sc.run_config
    if seed is not None:
        rc = replace(rc, seed=seed)
    if horizon_s is not None:
        warmup = rc.warmup_s if sc.warmup_explicit else DEFAULT_WARMUP_FRACTION * horizon_s
        rc = replace(rc, horizon_s=horizon_s, warmup_s=warmup)
    problems = check_run_values(rc)
    if problems:
        raise SchemaError(_relabel(problems, _OVERRIDE_NAMES))
    return replace(sc, run_config=rc)
