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

Documents are composed by PyYAML's libyaml-backed ``CSafeLoader`` when the
installed PyYAML was built with libyaml, and by the pure-Python
``SafeLoader`` otherwise. Both apply the same safe constructors and YAML
1.1 resolver, so they build equal documents; only the wording of an
invalid-YAML message differs (libyaml's, e.g. "did not find expected ','
or ']'"), while its line and column are the same.

The composed nodes are built by one flat walk (:func:`_build_node`): a
``str`` scalar is its text, any other scalar goes through the loader's
own constructor for its tag, a ``map`` node becomes a dict and a ``seq``
node a list. Aliases, merge (``<<``) and value (``=``) keys, non-scalar
keys, collection tags such as ``!!set`` or ``!!omap``, unknown tags and
every error fall back to the loader's ``construct_document`` on the same
node, which is PyYAML's constructor itself; a scalar whose text its
explicit tag's constructor cannot read (``!!bool maybe``) is invalid YAML,
as an impossible date is. The cyclic garbage collector
is paused while a document is composed and built, and only then; its
earlier state is restored afterwards.

YAML 1.1 quirk worth knowing: ``1e6`` reads as a string, not a float.
Write ``1000000`` or ``1.0e+6``. Numbers must be finite: ``.inf`` and
``.nan`` are rejected wherever a number is expected, by the rule that owns
the value (an integer beyond the float range, where a float is expected,
reads as the infinity of its sign): a run, model or workload value as a
SchemaError, a node's service rate or spec as an InvalidTopology line.
"""

from __future__ import annotations

import gc
import inspect
import math
import re
from dataclasses import dataclass, replace
from typing import Any, Optional

import yaml
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .billing import MeterIdentity
from .engine import ArrivalProcess, BessChargeEntry, RunConfig, SessionPlan
from .engine import check_run_references, check_run_values
from .energy import BessState
from .errors import ConfigError
from .messages import DEFAULT_CLASSIFICATION, METER_READING, DataClass
from .topology import (
    FLOAT_MAX,
    SPEC_FIELDS,
    DeviceRole,
    DeviceSpec,
    InvalidTopology,
    Mode,
    Node,
    Tier,
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
_STR_TAG = "tag:yaml.org,2002:str"
_MAP_TAG = "tag:yaml.org,2002:map"
_SEQ_TAG = "tag:yaml.org,2002:seq"
#: Key tags whose mappings PyYAML rewrites before building them.
_SPECIAL_KEY_TAGS = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")

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
    c_ms: float = 1.0
    warmup_explicit: bool = False


class _Reader:
    """Typed field access that collects problems instead of raising.

    Every accessor returns a usable placeholder on failure so validation
    can continue and report all problems in one pass.
    """

    def __init__(self) -> None:
        self.problems: list[str] = []

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
                self.fail(f"{path}.{key}", "unknown key")

    def _get(self, m: dict, key: str, path: str, required: bool, default):
        if key not in m or m[key] is None:
            if required:
                self.fail(f"{path}.{key}", "required field is missing")
            return default
        return m[key]

    def int_field(self, m, key, path, required=True, default=0) -> int:
        v = self._get(m, key, path, required, default)
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {v!r}")
            return default
        try:
            float(v)  # counts and sizes meet float arithmetic downstream
        except OverflowError:
            self.fail(f"{path}.{key}", "must be within the float range")
            return default
        return v

    def float_field(self, m, key, path, required=True, default=0.0) -> float:
        v = self._get(m, key, path, required, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}.{key}", f"expected a number, got {v!r}")
            return default
        try:
            return float(v)
        except OverflowError:  # an int beyond the float range; its owner rejects it
            return math.inf if v > 0 else -math.inf

    def str_field(self, m, key, path, required=True, default="") -> str:
        v = self._get(m, key, path, required, default)
        if not isinstance(v, str):
            self.fail(f"{path}.{key}", f"expected a string, got {v!r}")
            return default
        return v

    def bool_field(self, m, key, path, required=True, default=False) -> bool:
        v = self._get(m, key, path, required, default)
        if not isinstance(v, bool):
            self.fail(f"{path}.{key}", f"expected true/false, got {v!r}")
            return default
        return v

    def choice(self, m, key, path, table, required=True, default=None):
        v = self._get(m, key, path, required, None)
        if v is None:
            return default
        if not isinstance(v, str) or v not in table:
            options = ", ".join(sorted(table))
            self.fail(f"{path}.{key}", f"expected one of [{options}], got {v!r}")
            return default
        return table[v]


def _read_spec(r: _Reader, raw: Any, path: str, base: DeviceSpec) -> DeviceSpec:
    """Partial spec mapping merged over ``base``."""
    m = r.mapping(raw, path)
    r.known_keys(m, path, SPEC_FIELDS)
    return DeviceSpec(
        cpu_mhz=r.int_field(m, "cpu_mhz", path, False, base.cpu_mhz),
        cores=r.int_field(m, "cores", path, False, base.cores),
        memory_mb=r.int_field(m, "memory_mb", path, False, base.memory_mb),
        power_active_mw=r.float_field(m, "power_active_mw", path, False, base.power_active_mw),
        power_idle_mw=r.float_field(m, "power_idle_mw", path, False, base.power_idle_mw),
    )


def _read_node(r: _Reader, m: Any, path: str, tier_specs) -> Optional[Node]:
    if not isinstance(m, dict) or not m:
        r.fail(path, f"expected a non-empty mapping, got {m!r}")
        return None
    r.known_keys(
        m, path, ("id", "tier", "role", "area", "service_rate_per_s", "spec", "account")
    )
    node_id = r.int_field(m, "id", path)
    tier = r.choice(m, "tier", path, _TIERS)
    if tier is None:
        return None
    role = r.choice(m, "role", path, _ROLES, False, _DEFAULT_ROLE[tier])
    area = None
    if "area" in m and m["area"] is not None:
        area = r.int_field(m, "area", path)
    rate = r.float_field(m, "service_rate_per_s", path, False, 1.0)
    spec = tier_specs[tier]
    if "spec" in m and m["spec"] is not None:
        spec = _read_spec(r, m["spec"], f"{path}.spec", spec)
    account = None
    if "account" in m and m["account"] is not None:
        account = r.str_field(m, "account", path)
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
    """A node shape that :func:`_build_node` leaves to PyYAML."""


def _load(text: str) -> Any:
    """``yaml.load(text, Loader=_LOADER)``, built by :func:`_build_node`.

    The cyclic garbage collector is paused while the document is composed
    and built (it would otherwise scan the young nodes and containers
    again and again), then left as it was found.
    """
    loader = _LOADER(text)
    try:
        enabled = gc.isenabled()
        gc.disable()
        try:
            node = loader.get_single_node()
            if node is None:
                return None
            try:
                return _build_node(loader, node, set())
            except Exception:
                # The shapes left to PyYAML, and any error, which PyYAML
                # then raises in its own order (it builds breadth-first).
                try:
                    return loader.construct_document(node)
                except (KeyError, AttributeError, IndexError):
                    # PyYAML's bool, timestamp, int and float constructors
                    # look up, match or index the text of an explicitly
                    # tagged scalar without checking it: `!!bool maybe`,
                    # `!!timestamp soon`, `!!float ""`.
                    raise ValueError(
                        "a scalar does not match its explicit tag"
                    ) from None
        finally:
            if enabled:
                gc.enable()
    finally:
        loader.dispose()


def _build_node(loader, node, seen: set) -> Any:
    """The document of ``node``, built as the module docstring says.

    Raises _Fallback on a shape it leaves to PyYAML. ``seen`` holds the
    collection nodes built so far, so an alias is one reached again.
    """
    cls = node.__class__
    tag = node.tag
    if cls is ScalarNode:
        if tag == _STR_TAG:
            return node.value
        construct = _SCALAR_CONSTRUCTORS.get(tag)
        if construct is None:
            raise _Fallback
        return construct(loader, node)
    if node in seen:
        raise _Fallback
    seen.add(node)
    if cls is MappingNode and tag == _MAP_TAG:
        data = {}
        for key_node, value_node in node.value:
            if key_node.__class__ is not ScalarNode or key_node.tag in _SPECIAL_KEY_TAGS:
                raise _Fallback
            data[_build_node(loader, key_node, seen)] = _build_node(loader, value_node, seen)
        return data
    if cls is SequenceNode and tag == _SEQ_TAG:
        return [_build_node(loader, child, seen) for child in node.value]
    raise _Fallback


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
    seed = r.int_field(run, "seed", "run", False, 0)
    horizon = r.float_field(run, "horizon_s", "run", True, 1.0)
    warmup_explicit = "warmup_s" in run and run["warmup_s"] is not None
    warmup = r.float_field(run, "warmup_s", "run", False, DEFAULT_WARMUP_FRACTION * horizon)

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
            tier_specs[tier] = _read_spec(
                r, power_specs[name], f"models.power_specs.{name}", tier_specs[tier]
            )
    c_ms = r.float_field(models, "c_ms", "models", False, 1.0)
    if not 0 < c_ms <= FLOAT_MAX:
        r.fail("models.c_ms", f"must be finite and positive, got {c_ms!r}")
    bess = None
    if "bess" in models and models["bess"] is not None:
        bm = r.mapping(models["bess"], "models.bess")
        r.known_keys(bm, "models.bess", ("capacity_kwh", "soc_kwh", "efficiency"))
        bess = BessState(
            capacity_kwh=r.float_field(bm, "capacity_kwh", "models.bess", True, 1.0),
            soc_kwh=r.float_field(bm, "soc_kwh", "models.bess", False, 0.0),
            efficiency=r.float_field(bm, "efficiency", "models.bess", False, 1.0),
        )
    schedule = []
    for i, raw in enumerate(
        r.sequence(models.get("bess_charge_schedule"), "models.bess_charge_schedule")
    ):
        path = f"models.bess_charge_schedule[{i}]"
        em = r.mapping(raw, path)
        r.known_keys(em, path, ("at_s", "energy_kwh"))
        schedule.append(
            BessChargeEntry(
                at_s=r.float_field(em, "at_s", path, True, 0.0),
                energy_kwh=r.float_field(em, "energy_kwh", path, True, 0.0),
            )
        )
    tariff = r.float_field(models, "tariff_per_kwh", "models", False, 0.2)
    grid_available = r.bool_field(models, "grid_available", "models", False, True)
    hop_delay = r.float_field(models, "hop_delay_s", "models", False, 0.0)

    # -- topology section -------------------------------------------------
    topo_m = r.mapping(root.get("topology"), "topology")
    if "topology" not in root:
        r.fail("topology", "required section is missing")
    r.known_keys(topo_m, "topology", ("mode", "nodes", "fog_links"))
    mode = r.choice(topo_m, "mode", "topology", _MODES, False, Mode.FOG_AUGMENTED)
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
            r.fail(path, f"expected a pair of node ids, got {raw!r}")
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
            r.fail("workload.classification", f"kind {kind!r} must be a string")
            continue
        cls = r.choice(
            class_m, kind, "workload.classification", _CLASSES, True, None
        )
        if cls is not None:
            classification[kind] = cls

    processes = []
    for i, raw in enumerate(
        r.sequence(workload.get("arrival_processes"), "workload.arrival_processes")
    ):
        path = f"workload.arrival_processes[{i}]"
        pm = r.mapping(raw, path)
        r.known_keys(pm, path, ("rate_per_s", "target", "payload_kind", "size_bytes"))
        processes.append(
            ArrivalProcess(
                rate_per_s=r.float_field(pm, "rate_per_s", path, True, 0.0),
                target=r.int_field(pm, "target", path),
                payload_kind=r.str_field(pm, "payload_kind", path, True, METER_READING),
                size_bytes=r.int_field(pm, "size_bytes", path, False, 256),
            )
        )

    registry = {}
    reg_m = r.mapping(workload.get("vehicle_registry"), "workload.vehicle_registry")
    for vehicle, raw in reg_m.items():
        path = f"workload.vehicle_registry.{vehicle}"
        if not isinstance(vehicle, str):
            r.fail("workload.vehicle_registry", f"vehicle id {vehicle!r} must be a string")
            continue
        vm = r.mapping(raw, path)
        r.known_keys(vm, path, ("meter", "account"))
        meter = r.int_field(vm, "meter", path)
        account = by_id[meter].owner_account() if meter in by_id else None
        if "account" in vm and vm["account"] is not None:
            account = r.str_field(vm, "account", path)
        registry[vehicle] = MeterIdentity(meter=meter, owner_account=account)

    sessions = []
    for i, raw in enumerate(r.sequence(workload.get("sessions"), "workload.sessions")):
        path = f"workload.sessions[{i}]"
        sm = r.mapping(raw, path)
        r.known_keys(
            sm, path, ("vehicle_id", "outlet_meter", "start_s", "energy_kwh", "duration_s")
        )
        sessions.append(
            SessionPlan(
                vehicle_id=r.str_field(sm, "vehicle_id", path),
                outlet_meter=r.int_field(sm, "outlet_meter", path),
                start_s=r.float_field(sm, "start_s", path, True, 0.0),
                energy_kwh=r.float_field(sm, "energy_kwh", path, True, 0.0),
                duration_s=r.float_field(sm, "duration_s", path, False, 0.0),
            )
        )

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
        grid_available=grid_available,
        hop_delay_s=hop_delay,
    )
    # Each placeholder passes check_run_values, so a field's type problem
    # and a value problem elsewhere are both reported, each once.
    problems = r.problems + _relabel(check_run_values(run_config), _YAML_PATHS)
    if problems:
        raise SchemaError(problems)

    # -- reference stage ---------------------------------------------------
    dangling = _relabel(check_run_references(run_config), _YAML_PATHS)
    if dangling:
        raise DanglingReference(dangling)

    # -- topology stage ------------------------------------------------------
    violations = validate_topology(topology)
    for name in power_specs:  # also the tier defaults no node inherits
        violations += spec_violations(tier_specs[_TIERS[name]], f"models.power_specs.{name}")
    if violations:
        raise InvalidTopology(violations)
    return ScenarioConfig(
        run_config=run_config, c_ms=c_ms, warmup_explicit=warmup_explicit
    )


def with_mode(sc: ScenarioConfig, mode: Mode) -> ScenarioConfig:
    """The same scenario with the topology mode forced.

    The flipped topology must still validate (a fog-augmented run needs a
    fog node in every device area, which a cloud-only authored config may
    lack). The flipped topology keeps the source's indexes and validation
    report, so only the orphan-area rule is applied again.
    """
    topo = sc.run_config.topology.with_mode(mode)
    violations = validate_topology(topo)
    if violations:
        raise InvalidTopology(violations)
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
