"""Scenario file parsing: schema, references, topology, and overrides."""

import gc
import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest
import yaml
from conftest import FINITE_FIELDS, NONFINITE_YAML, finite_field_scenario, nonfinite_line
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import SCENARIOS as GOLDEN_SCENARIOS

from foggrid import topology as topology_module
from foggrid import (
    DEFAULT_WARMUP_FRACTION,
    BessState,
    ConfigError,
    DanglingReference,
    DataClass,
    DeviceRole,
    InvalidTopology,
    Mode,
    SchemaError,
    Tier,
    load_config,
    parse_config,
    with_mode,
    with_overrides,
)
from foggrid.cli import EXIT_CONFIG, EXIT_OK, main
from foggrid.scenario import _LOADER, _load

MINIMAL = textwrap.dedent(
    """
    run:
      horizon_s: 1000.0
    topology:
      nodes:
        - {id: 0, tier: cloud}
        - {id: 1, tier: fog, area: 0}
        - {id: 2, tier: device, area: 0}
    """
)

FULL = textwrap.dedent(
    """
    run:
      seed: 42
      horizon_s: 5000.0
      warmup_s: 250.0
    topology:
      mode: fog-augmented
      nodes:
        - {id: 0, tier: cloud, service_rate_per_s: 2.0}
        - id: 1
          tier: fog
          area: 0
          service_rate_per_s: 0.5
          spec: {power_active_mw: 250.0}
        - {id: 2, tier: fog, area: 1}
        - {id: 3, tier: device, area: 0, account: acct-three}
        - {id: 4, tier: device, area: 0}
        - {id: 5, tier: device, area: 1, role: actuator}
      fog_links:
        - [1, 2]
    workload:
      arrival_processes:
        - {rate_per_s: 0.01, target: 3, payload_kind: MeterReading}
        - {rate_per_s: 0.02, target: 5, payload_kind: GridTelemetry, size_bytes: 64}
      classification:
        CustomKind: public
      vehicle_registry:
        ev-a: {meter: 3}
        ev-b: {meter: 5, account: acct-override}
      sessions:
        - {vehicle_id: ev-a, outlet_meter: 5, start_s: 10.0, energy_kwh: 2.0, duration_s: 60.0}
    models:
      c_ms: 2.5
      tariff_per_kwh: 0.3
      hop_delay_s: 0.1
      grid_available: false
      bess: {capacity_kwh: 20.0, soc_kwh: 5.0, efficiency: 0.9}
      bess_charge_schedule:
        - {at_s: 100.0, energy_kwh: 1.0}
      power_specs:
        fog: {power_idle_mw: 10.0}
    """
)


def problems_of(excinfo):
    return excinfo.value.problems


class TestDefaults:
    def test_minimal_config(self):
        sc = parse_config(MINIMAL)
        rc = sc.run_config
        assert rc.seed == 0
        assert rc.horizon_s == 1000.0
        assert rc.warmup_s == DEFAULT_WARMUP_FRACTION * 1000.0
        assert sc.warmup_explicit is False
        assert rc.topology.mode is Mode.FOG_AUGMENTED
        assert rc.tariff_per_kwh == 0.2
        assert rc.grid_available is True
        assert rc.hop_delay_s == 0.0
        assert rc.bess is None
        assert rc.arrival_processes == ()
        assert rc.sessions == ()
        assert sc.c_ms == 1.0

    def test_tier_defaults(self):
        rc = parse_config(MINIMAL).run_config
        cloud, fog, device = rc.topology.nodes
        assert cloud.role is DeviceRole.COMPUTING
        assert fog.role is DeviceRole.GATEWAY
        assert device.role is DeviceRole.SENSOR
        assert fog.spec.power_active_mw == 199.0
        assert cloud.spec.power_active_mw == 489.0
        assert fog.service_rate_per_s == 1.0


class TestFullConfig:
    def test_everything_lands(self):
        sc = parse_config(FULL)
        rc = sc.run_config
        assert rc.seed == 42
        assert rc.warmup_s == 250.0
        assert sc.warmup_explicit is True
        assert sc.c_ms == 2.5
        assert rc.tariff_per_kwh == 0.3
        assert rc.hop_delay_s == 0.1
        assert rc.grid_available is False
        assert rc.bess == BessState(capacity_kwh=20.0, soc_kwh=5.0, efficiency=0.9)
        assert len(rc.bess_charge_schedule) == 1
        assert rc.topology.has_fog_link(1, 2)

    def test_spec_override_merges_over_default(self):
        rc = parse_config(FULL).run_config
        fog1 = rc.topology.node(1)
        assert fog1.spec.power_active_mw == 250.0
        assert fog1.spec.cpu_mhz == 500  # untouched default
        fog2 = rc.topology.node(2)
        assert fog2.spec.power_active_mw == 199.0
        # models.power_specs.fog changes the tier default for both fogs
        assert fog1.spec.power_idle_mw == 10.0
        assert fog2.spec.power_idle_mw == 10.0

    def test_arrival_process_defaults(self):
        rc = parse_config(FULL).run_config
        assert rc.arrival_processes[0].size_bytes == 256
        assert rc.arrival_processes[1].size_bytes == 64

    def test_classification_merge(self):
        rc = parse_config(FULL).run_config
        assert rc.classification["CustomKind"] is DataClass.PUBLIC
        assert rc.classification["MeterReading"] is DataClass.PRIVATE

    def test_registry_account_resolution(self):
        rc = parse_config(FULL).run_config
        assert rc.vehicle_registry["ev-a"].owner_account == "acct-three"
        assert rc.vehicle_registry["ev-b"].owner_account == "acct-override"

    def test_registry_meter_name_fallback(self):
        text = MINIMAL + textwrap.dedent(
            """
            workload:
              vehicle_registry:
                ev-x: {meter: 2}
            """
        )
        rc = parse_config(text).run_config
        assert rc.vehicle_registry["ev-x"].owner_account == "meter-2"


class TestSchemaErrors:
    def test_malformed_yaml_reports_position(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("run: [1, 2\n")
        (problem,) = problems_of(exc)
        assert "invalid YAML" in problem
        assert "line" in problem

    def test_empty_document(self):
        with pytest.raises(SchemaError):
            parse_config("")

    def test_scientific_notation_string_trap(self):
        # YAML 1.1 reads 1e6 as a string; the error message must surface
        # the field rather than silently misparse.
        with pytest.raises(SchemaError) as exc:
            parse_config("run: {horizon_s: 1e6}\ntopology:\n  nodes:\n    - {id: 0, tier: cloud}\n")
        assert any("run.horizon_s" in p for p in problems_of(exc))

    def test_all_problems_reported_at_once(self):
        text = textwrap.dedent(
            """
            run:
              seed: -1
            topology:
              nodes:
                - {id: 0, tier: nebula}
            surprise: 1
            """
        )
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        problems = problems_of(exc)
        assert any("run.seed" in p for p in problems)
        assert any("run.horizon_s" in p for p in problems)
        assert any("tier" in p for p in problems)
        assert any("surprise" in p for p in problems)

    def test_mixed_problems_keep_their_yaml_paths(self):
        # Mistyped and out-of-range fields in every section, in one pass.
        text = textwrap.dedent(
            """
            run: {seed: -1, horizon_s: abc, warmup_s: 50}
            topology:
              nodes:
                - {id: 0, tier: cloud}
                - {id: 1, tier: fog, area: 0}
                - {id: 2, tier: device, area: 0}
                - {id: 3, tier: nebula}
            models:
              tariff_per_kwh: 0
              bess: {capacity_kwh: 5, soc_kwh: 6, efficiency: 1.5}
              bess_charge_schedule:
                - {at_s: -1, energy_kwh: 1.0}
            workload:
              arrival_processes:
                - {rate_per_s: -0.5, target: 2, size_bytes: 0}
                - {rate_per_s: 0.1, target: 2, payload_kind: Mystery}
              sessions:
                - {vehicle_id: ev, outlet_meter: 2, start_s: -1, energy_kwh: 1.0}
            """
        )
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert sorted(p.split(":")[0] for p in problems_of(exc)) == [
            "models.bess.efficiency",
            "models.bess.soc_kwh",
            "models.bess_charge_schedule[0].at_s",
            "models.tariff_per_kwh",
            "run.horizon_s",
            "run.seed",
            "run.warmup_s",
            "topology.nodes[3].tier",
            "workload.arrival_processes[0].payload_kind",
            "workload.arrival_processes[0].rate_per_s",
            "workload.arrival_processes[0].size_bytes",
            "workload.arrival_processes[1].payload_kind",
            "workload.sessions[0].start_s",
        ]

    def test_missing_sections(self):
        with pytest.raises(SchemaError) as exc:
            parse_config("models: {}\n")
        problems = problems_of(exc)
        assert any(p.startswith("run:") for p in problems)
        assert any(p.startswith("topology:") for p in problems)

    @pytest.mark.parametrize("entry", ["5", "null", "{}", "[1]"])
    def test_non_mapping_node_entry_reported_once(self, entry):
        nodes = f"[{entry}, {{id: 0, tier: cloud}}]"
        with pytest.raises(SchemaError) as exc:
            parse_config(f"run: {{horizon_s: 100.0}}\ntopology: {{nodes: {nodes}}}\n")
        value = yaml.safe_load(entry)
        assert problems_of(exc) == [
            f"topology.nodes[0]: expected a non-empty mapping, got {value!r}"
        ]

    @pytest.mark.parametrize(
        "value, read",
        [("0", "0.0"), ("-1.5", "-1.5"), (".inf", "inf"), (".nan", "nan"), ("1" + "0" * 400, "inf")],
    )
    def test_c_ms_must_be_positive(self, value, read, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL + f"models: {{c_ms: {value}}}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert problems_of(exc) == [f"models.c_ms: must be finite and positive, got {read}"]
        assert main(["validate", str(path)]) == EXIT_CONFIG

    def test_boolean_is_not_a_number(self):
        with pytest.raises(SchemaError) as exc:
            parse_config(MINIMAL.replace("horizon_s: 1000.0", "horizon_s: true"))
        assert any("run.horizon_s" in p for p in problems_of(exc))

    def test_warmup_must_fit_under_horizon(self):
        text = MINIMAL.replace("horizon_s: 1000.0", "horizon_s: 1000.0\n  warmup_s: 1000.0")
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("warmup_s" in p for p in problems_of(exc))

    def test_seed_width(self):
        text = MINIMAL.replace("horizon_s: 1000.0", f"horizon_s: 1000.0\n  seed: {2**64}")
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert problems_of(exc) == [
            f"run.seed: must be an integer in [0, 2**64), got {2**64}"
        ]

    def test_bess_bounds(self):
        text = MINIMAL + "models:\n  bess: {capacity_kwh: 5.0, soc_kwh: 6.0}\n"
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("soc_kwh" in p for p in problems_of(exc))

        text = MINIMAL + "models:\n  bess: {capacity_kwh: 5.0, efficiency: 1.5}\n"
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("efficiency" in p for p in problems_of(exc))

    def test_unclassified_payload_kind(self):
        text = MINIMAL + textwrap.dedent(
            """
            workload:
              arrival_processes:
                - {rate_per_s: 0.1, target: 2, payload_kind: Mystery}
            """
        )
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("no classification entry" in p for p in problems_of(exc))

    def test_bad_classification_value(self):
        text = MINIMAL + "workload:\n  classification: {Foo: secret}\n"
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("expected one of" in p for p in problems_of(exc))

    def test_malformed_fog_link(self):
        text = MINIMAL.replace(
            "topology:", "topology:\n  fog_links:\n    - [1]"
        )
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert any("pair" in p for p in problems_of(exc))


class TestFiniteNumbers:
    @pytest.mark.parametrize("value", NONFINITE_YAML)
    @pytest.mark.parametrize("field", FINITE_FIELDS)
    def test_nonfinite_rejected(self, field, value):
        # Reported once, by the run rule that owns the field.
        with pytest.raises(SchemaError) as exc:
            parse_config(finite_field_scenario(field, value))
        assert problems_of(exc) == [nonfinite_line(field, value)]

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("field", FINITE_FIELDS)
    def test_integer_beyond_float_range_rejected(self, field, sign):
        # It reads as the infinity of its sign.
        with pytest.raises(SchemaError) as exc:
            parse_config(finite_field_scenario(field, sign + "1" + "0" * 400))
        assert problems_of(exc) == [nonfinite_line(field, f"{sign}.inf")]

    def test_finite_values_accepted(self):
        rc = parse_config(finite_field_scenario()).run_config
        assert (rc.horizon_s, rc.warmup_s) == (100.0, 1.0)
        assert rc.arrival_processes[0].rate_per_s == 0.5


# YAML 1.1 scalars whose reading differs from YAML 1.2 or JSON.
YAML_QUIRKS = textwrap.dedent(
    """
    sci: 1e6
    sci_signed: 1.0e+6
    inf: .inf
    neg_inf: -.inf
    yes: yes
    off: off
    octal: 017
    hex: 0x1F
    binary: 0b101
    sexagesimal: 1:20
    underscore: 1_000
    date: 2001-12-14
    null_tilde: ~
    """
)


INVALID_YAML = [
    "run: [1, 2\n",
    "run: {horizon_s: 1\n",
    "run: {horizon_s: 1}}\n",
    "a: b: c\n",
    "run:\n  horizon_s: 1\n bad: 2\n",
    "a: 'unterminated\n",
    "a: 1\n---\nb: 2\n",
    "a: *missing\n",
    "a: !!python/object:os.system x\n",
]

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _bench_workloads():
    """bench/workloads.py, loaded without putting bench/ on the path (its
    dataclass needs the module registered while it executes)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


BENCH_TINY = {
    name: _bench_workloads().generate(name, 1, "tiny")
    for name in ("metro-grid", "roaming-island")
}

#: Shapes the flat walk leaves to PyYAML's own constructor (and !!binary,
#: which it builds through the loader's constructor).
FALLBACK_SHAPES = {
    "alias-scalar": "a: &s text\nb: *s\n",
    "alias-int": "a: &n 123456789\nb: *n\n",
    "alias-map": "a: &m {x: 1, y: [2]}\nb: *m\n",
    "alias-seq": "a: &q [1, {z: 2}]\nb: *q\n",
    "merge": "base: &b {x: 1, y: 2}\nderived: {<<: *b, y: 3}\n",
    "merge-inline": "d: {<<: {x: 1}, y: 2}\n",
    "recursive-seq": "a: &r [1, *r]\n",
    "recursive-map": "a: &r {self: *r}\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [{x: 1}, {y: 2}]\n",
    "pairs": "a: !!pairs [{x: 1}, {x: 2}]\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "sequence-key": "? [1, 2]\n: v\n",
    "mapping-key": "? {k: 1}\n: v\n",
    "value-key": "{=: 1, b: 2}\n",
    "value-scalar": "a: =\n",
    "unknown-tag": "a: !thing x\n",
    "unknown-map-tag": "a: !thing {x: 1}\n",
    "str-tag-on-seq": "a: !!str [1]\n",
    "seq-tag-on-scalar": "a: !!seq x\n",
    "two-bad-scalars": "a: [!!int x]\nb: !!float y\n",
}


#: Plain scalars the YAML 1.1 resolver reads as something other than text.
YAML_LOOKING = st.sampled_from(
    [
        "yes", "No", "ON", "off", "y", "~", "null", "Null", "true", "False",
        "1e6", "1.0e+6", "0x1F", "017", "0o17", "0b101", "1:20", "190:20:30.15",
        "1_000", "-0", "+12", ".inf", "-.Inf", ".NaN", "3.", ".5", "1,000",
        "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10",
        "2020-13-45", "=", "<<", "!!binary aGk=", "!!set {a}", "&x 1",
    ]
)


def _outcome(load, text):
    """The repr of the document ``load`` builds from ``text`` (which also
    compares key order, types and NaNs), or its error's type and
    problem."""
    try:
        return "doc", repr(load(text))
    except Exception as exc:  # compared, not raised
        return type(exc), getattr(exc, "problem", str(exc))


def _stock(text):
    return yaml.load(text, Loader=yaml.SafeLoader)


def _schema_lines(text):
    with pytest.raises(SchemaError) as exc:
        parse_config(text)
    return problems_of(exc)


class TestLoader:
    def test_uses_libyaml_when_available(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert _LOADER is expected

    @pytest.mark.parametrize(
        "text",
        [MINIMAL, FULL, YAML_QUIRKS, *GOLDEN_SCENARIOS.values(), *BENCH_TINY.values()],
        ids=["minimal", "full", "quirks", *GOLDEN_SCENARIOS, *BENCH_TINY],
    )
    def test_same_documents_as_safe_loader(self, text):
        doc = yaml.load(text, Loader=_LOADER)
        assert doc == yaml.load(text, Loader=yaml.SafeLoader)
        assert type(doc) is dict
        assert _outcome(_load, text) == _outcome(_stock, text) == ("doc", repr(doc))

    def test_quirks_keep_their_yaml_1_1_types(self):
        doc = yaml.load(YAML_QUIRKS, Loader=_LOADER)
        assert doc["sci"] == "1e6"
        assert doc["sci_signed"] == 1e6
        assert doc["inf"] == float("inf")
        assert doc[True] is True and doc[False] is False
        assert (doc["octal"], doc["hex"], doc["binary"]) == (15, 31, 5)
        assert (doc["sexagesimal"], doc["underscore"]) == (80, 1000)

    @pytest.mark.parametrize("text", INVALID_YAML)
    def test_invalid_yaml_position_matches_safe_loader(self, text):
        with pytest.raises(yaml.MarkedYAMLError) as reference:
            yaml.load(text, Loader=yaml.SafeLoader)
        mark = reference.value.problem_mark
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        (problem,) = problems_of(exc)
        assert problem.startswith(
            f"line {mark.line + 1}, column {mark.column + 1}: invalid YAML ("
        ), problem

    @pytest.mark.parametrize("text", ["a: \x07\n", "a: \ud800\n"])
    def test_unreadable_characters(self, text):
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        (problem,) = problems_of(exc)
        assert problem.startswith("document: invalid YAML (")

    @pytest.mark.parametrize(
        "text",
        ["a: 2020-13-45\n", "a: 1" + "0" * 4400 + "\n"],
        ids=["bad-date", "long-int"],
    )
    def test_scalars_the_constructors_reject(self, text):
        # An impossible date, and an integer literal longer than Python
        # converts from text: both raise ValueError inside the loader.
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        (problem,) = problems_of(exc)
        assert problem.startswith("document: invalid YAML (")


class TestFlatBuild:
    @pytest.mark.parametrize(
        "text",
        [*FALLBACK_SHAPES.values(), "", "# only\n"],
        ids=[*FALLBACK_SHAPES, "empty", "comment"],
    )
    def test_fallback_shapes_match_safe_loader(self, text):
        assert _outcome(_load, text) == _outcome(_stock, text)

    @pytest.mark.parametrize("name", ["alias-scalar", "alias-map", "alias-seq"])
    def test_aliases_keep_identity(self, name):
        doc = _load(FALLBACK_SHAPES[name])
        assert doc == _stock(FALLBACK_SHAPES[name])
        assert doc["b"] is doc["a"]

    def test_recursive_aliases(self):
        seq = _load(FALLBACK_SHAPES["recursive-seq"])["a"]
        assert seq[0] == 1 and seq[1] is seq
        mapping = _load(FALLBACK_SHAPES["recursive-map"])["a"]
        assert mapping["self"] is mapping

    @pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="the pure-Python composer recurses per level"
    )
    def test_nesting_deeper_than_the_recursion_limit(self):
        # Too deep for a recursive walk: the libyaml composer's nodes go to
        # PyYAML's constructor.
        text = "a: " + "[" * 3000 + "]" * 3000 + "\n"
        ours, theirs = _load(text)["a"], yaml.load(text, Loader=_LOADER)["a"]
        for _ in range(2999):
            assert len(ours) == len(theirs) == 1
            ours, theirs = ours[0], theirs[0]
        assert ours == theirs == []

    @pytest.mark.parametrize(
        "text",
        [*FALLBACK_SHAPES.values(), *INVALID_YAML, "a: 2020-13-45\n"],
        ids=[*FALLBACK_SHAPES, *(f"invalid-{i}" for i in range(len(INVALID_YAML))), "bad-date"],
    )
    def test_schema_lines_match_pyyaml_load(self, text, monkeypatch):
        lines = _schema_lines(text)
        monkeypatch.setattr(
            "foggrid.scenario._load", lambda t: yaml.load(t, Loader=_LOADER)
        )
        assert lines == _schema_lines(text)

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False)
            | st.text()
            | YAML_LOOKING,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=6) | YAML_LOOKING, inner, max_size=4),
            max_leaves=12,
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_dumped_documents_load_as_safe_loader_does(self, data, flow):
        text = yaml.safe_dump(data, default_flow_style=flow, allow_unicode=True)
        assert _outcome(_load, text) == _outcome(_stock, text)

    @given(st.lists(YAML_LOOKING, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_plain_scalars_resolve_as_safe_loader_does(self, tokens):
        text = "".join(f"k{i}: {token}\n" for i, token in enumerate(tokens))
        assert _outcome(_load, text) == _outcome(_stock, text)

    @given(
        st.sampled_from(
            ["!!bool", "!!int", "!!float", "!!null", "!!timestamp", "!!binary", "!!str"]
        ),
        st.text(max_size=24) | YAML_LOOKING,
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_explicit_scalar_tags_on_any_text(self, tag, text, quoted):
        # Quoted, any text reaches the tag's constructor; plain, it may
        # also fail to parse. Either way the outcome is a config or a
        # ConfigError, never another exception.
        scalar = json.dumps(text) if quoted else text
        try:
            parse_config(f"run: {{horizon_s: {tag} {scalar}}}\n")
        except ConfigError:
            pass


class TestGarbageCollector:
    def test_enabled_after_a_load(self):
        assert gc.isenabled()
        parse_config(MINIMAL)
        assert gc.isenabled()

    @pytest.mark.parametrize("text", INVALID_YAML)
    def test_enabled_after_invalid_yaml(self, text):
        with pytest.raises(SchemaError):
            parse_config(text)
        assert gc.isenabled()

    def test_paused_during_the_load(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            "foggrid.scenario._build_node",
            lambda *args: seen.append(gc.isenabled()) or {"run": None},
        )
        with pytest.raises(SchemaError):
            parse_config(MINIMAL)
        assert seen == [False] and gc.isenabled()

    def test_left_disabled_when_the_caller_disabled_it(self):
        gc.disable()
        try:
            parse_config(MINIMAL)
            assert not gc.isenabled()
            with pytest.raises(SchemaError):
                parse_config(INVALID_YAML[0])
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestDanglingReferences:
    def test_arrival_target(self):
        text = MINIMAL + textwrap.dedent(
            """
            workload:
              arrival_processes:
                - {rate_per_s: 0.1, target: 99, payload_kind: GridTelemetry}
            """
        )
        with pytest.raises(DanglingReference) as exc:
            parse_config(text)
        assert any("node 99 is not defined" in p for p in problems_of(exc))

    def test_registry_meter_undefined(self):
        text = MINIMAL + "workload:\n  vehicle_registry:\n    ev: {meter: 99}\n"
        with pytest.raises(DanglingReference):
            parse_config(text)

    def test_registry_meter_must_be_device_tier(self):
        text = MINIMAL + "workload:\n  vehicle_registry:\n    ev: {meter: 1}\n"
        with pytest.raises(DanglingReference) as exc:
            parse_config(text)
        assert any("not a device-tier meter" in p for p in problems_of(exc))

    def test_session_outlet(self):
        text = MINIMAL + textwrap.dedent(
            """
            workload:
              sessions:
                - {vehicle_id: ev, outlet_meter: 0, start_s: 1.0, energy_kwh: 1.0}
            """
        )
        with pytest.raises(DanglingReference):
            parse_config(text)

    def test_fog_link_endpoint(self):
        # A topology rule, stated once by validate_topology.
        text = MINIMAL.replace(
            "topology:", "topology:\n  fog_links:\n    - [1, 7]"
        )
        with pytest.raises(InvalidTopology) as exc:
            parse_config(text)
        assert [str(v) for v in exc.value.violations] == [
            "dangling link: fog link (1, 7) references unknown node 7"
        ]

    def test_every_reference_line_in_order(self):
        # Pinned from the reference stage as it stood before the run rules
        # moved to engine.check_run_config: the lines and their order. The
        # fog link's endpoint is a topology rule, checked after this stage.
        topology = MINIMAL.replace(
            "topology:", "topology:\n  fog_links:\n    - [1, 7]"
        )
        text = topology + textwrap.dedent(
            """
            workload:
              arrival_processes:
                - {rate_per_s: 0.1, target: 2, payload_kind: GridTelemetry}
                - {rate_per_s: 0.1, target: 99, payload_kind: GridTelemetry}
              vehicle_registry:
                ev-fog: {meter: 1}
                ev-ghost: {meter: 42}
                ev-ok: {meter: 2}
              sessions:
                - {vehicle_id: ev-ok, outlet_meter: 2, start_s: 1.0, energy_kwh: 1.0}
                - {vehicle_id: ev-ok, outlet_meter: 0, start_s: 1.0, energy_kwh: 1.0}
            """
        )
        with pytest.raises(DanglingReference) as exc:
            parse_config(text)
        assert problems_of(exc) == [
            "workload.arrival_processes[1].target: node 99 is not defined",
            "workload.vehicle_registry.ev-fog.meter: node 1 is not a device-tier meter",
            "workload.vehicle_registry.ev-ghost.meter: node 42 is not defined",
            "workload.sessions[1].outlet_meter: node 0 is not a device-tier meter",
        ]
        with pytest.raises(InvalidTopology) as exc:
            parse_config(topology)
        assert [str(v) for v in exc.value.violations] == [
            "dangling link: fog link (1, 7) references unknown node 7"
        ]


def _node_case(name, line, tier="device", area=0, **fields):
    node = {"id": 2, "tier": tier, "area": area, **fields}
    return pytest.param(node, line, id=name)


_CLOUD_AND_FOG = [{"id": 0, "tier": "cloud"}, {"id": 1, "tier": "fog", "area": 0}]


class TestTopologyStage:
    @pytest.mark.parametrize(
        "node, line",
        [
            _node_case("id", "negative id: node id -1", id=-1),
            _node_case("device-area", "negative area: node 2 has area -1", area=-1),
            _node_case("fog-area", "negative area: node 2 has area -1", tier="fog", area=-1),
            _node_case(
                "rate",
                "service rate: node 2: service_rate_per_s must be positive and finite, got 0.0",
                tier="fog",
                area=1,
                service_rate_per_s=0,
            ),
            _node_case(
                "rate-inf",
                "service rate: node 2: service_rate_per_s must be positive and finite, got inf",
                tier="fog",
                area=1,
                service_rate_per_s=float("inf"),
            ),
            _node_case(
                "spec-inf",
                "spec non-finite: node 2: power_active_mw=inf",
                spec={"power_active_mw": float("inf")},
            ),
            _node_case(
                "spec-nan",
                "spec non-finite: node 2: power_idle_mw=nan",
                spec={"power_idle_mw": float("nan")},
            ),
            *(
                _node_case(name, f"spec sign: node 2: {name} must be positive", spec={name: 0})
                for name in ("cpu_mhz", "cores", "memory_mb", "power_active_mw")
            ),
            _node_case(
                "power_idle_mw",
                "spec sign: node 2: power_idle_mw must be >= 0",
                spec={"power_idle_mw": -1},
            ),
            pytest.param(
                None, "cloud cardinality: expected exactly one cloud node, found 0 ([])", id="none"
            ),
        ],
    )
    def test_node_and_spec_ranges(self, node, line, tmp_path):
        # The schema stage reads node values as types; their ranges are
        # topology rules, each reported as an InvalidTopology line.
        nodes = [] if node is None else [*_CLOUD_AND_FOG, node]
        doc = {"run": {"horizon_s": 100.0}, "topology": {"nodes": nodes}}
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with pytest.raises(InvalidTopology) as exc:
            load_config(path)
        assert line in [str(v) for v in exc.value.violations]
        assert main(["validate", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "spec, lines",
        [
            (
                "{cores: 0, power_idle_mw: -1}",
                [
                    "spec sign: models.power_specs.fog: cores must be positive",
                    "spec sign: models.power_specs.fog: power_idle_mw must be >= 0",
                ],
            ),
            (
                "{power_idle_mw: 300}",
                [
                    "spec power order: models.power_specs.fog: power_idle_mw 300.0 exceeds "
                    "power_active_mw 199.0",
                ],
            ),
            (
                "{power_idle_mw: .inf}",
                [
                    "spec non-finite: models.power_specs.fog: power_idle_mw=inf",
                    "spec power order: models.power_specs.fog: power_idle_mw inf exceeds "
                    "power_active_mw 199.0",
                ],
            ),
        ],
    )
    def test_tier_spec_ranges_without_a_node_of_the_tier(self, spec, lines):
        # Every node spec rule covers a tier default that no node inherits.
        text = textwrap.dedent(
            f"""
            run: {{horizon_s: 100.0}}
            topology:
              mode: cloud-only
              nodes: [{{id: 0, tier: cloud}}, {{id: 2, tier: device, area: 0}}]
            models:
              power_specs: {{fog: {spec}}}
            """
        )
        with pytest.raises(InvalidTopology) as exc:
            parse_config(text)
        assert [str(v) for v in exc.value.violations] == lines

    def test_missing_cloud(self):
        text = textwrap.dedent(
            """
            run: {horizon_s: 100.0}
            topology:
              nodes:
                - {id: 1, tier: fog, area: 0}
                - {id: 2, tier: device, area: 0}
            """
        )
        with pytest.raises(InvalidTopology) as exc:
            parse_config(text)
        assert any(v.code == "cloud cardinality" for v in exc.value.violations)

    def test_orphan_device_area(self):
        text = textwrap.dedent(
            """
            run: {horizon_s: 100.0}
            topology:
              nodes:
                - {id: 0, tier: cloud}
                - {id: 2, tier: device, area: 3}
            """
        )
        with pytest.raises(InvalidTopology) as exc:
            parse_config(text)
        assert any(v.code == "orphan area" for v in exc.value.violations)


class TestOverrides:
    def test_seed_override(self):
        sc = with_overrides(parse_config(MINIMAL), seed=77)
        assert sc.run_config.seed == 77

    def test_horizon_override_rescales_default_warmup(self):
        sc = with_overrides(parse_config(MINIMAL), horizon_s=50_000.0)
        assert sc.run_config.horizon_s == 50_000.0
        assert sc.run_config.warmup_s == DEFAULT_WARMUP_FRACTION * 50_000.0

    def test_horizon_override_keeps_explicit_warmup(self):
        sc = with_overrides(parse_config(FULL), horizon_s=9_000.0)
        assert sc.run_config.horizon_s == 9_000.0
        assert sc.run_config.warmup_s == 250.0

    def test_horizon_override_rechecks_explicit_warmup(self):
        with pytest.raises(SchemaError):
            with_overrides(parse_config(FULL), horizon_s=100.0)

    def test_bad_override_values(self):
        sc = parse_config(MINIMAL)
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(SchemaError) as exc:
                with_overrides(sc, seed=seed)
            assert problems_of(exc) == [
                f"seed override: must be an integer in [0, 2**64), got {seed!r}"
            ]
        with pytest.raises(SchemaError):
            with_overrides(sc, horizon_s=0.0)

    @pytest.mark.parametrize("horizon", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_horizon_override(self, horizon):
        for sc in (parse_config(MINIMAL), parse_config(FULL)):
            with pytest.raises(SchemaError) as exc:
                with_overrides(sc, horizon_s=horizon)
            assert "must be finite" in problems_of(exc)[0]

    def test_no_overrides_is_identity(self):
        sc = parse_config(MINIMAL)
        assert with_overrides(sc) == sc


class TestWithMode:
    def test_flip_to_cloud_only(self):
        sc = with_mode(parse_config(MINIMAL), Mode.CLOUD_ONLY)
        assert sc.run_config.topology.mode is Mode.CLOUD_ONLY

    def test_flip_back(self):
        sc = with_mode(
            with_mode(parse_config(MINIMAL), Mode.CLOUD_ONLY), Mode.FOG_AUGMENTED
        )
        assert sc.run_config.topology == parse_config(MINIMAL).run_config.topology

    def test_fogless_config_cannot_become_fog_augmented(self):
        text = textwrap.dedent(
            """
            run: {horizon_s: 100.0}
            topology:
              mode: cloud-only
              nodes:
                - {id: 0, tier: cloud}
                - {id: 2, tier: device, area: 0}
            """
        )
        sc = parse_config(text)
        with pytest.raises(InvalidTopology):
            with_mode(sc, Mode.FOG_AUGMENTED)


class TestValidationOnce:
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_with_mode_keeps_the_id_index(self, mode):
        sc = parse_config(FULL)
        flipped = with_mode(sc, mode).run_config.topology
        assert flipped.by_id() is sc.run_config.topology.by_id()
        assert flipped.mode is mode

    def test_one_spec_check_per_node_per_compare(self, tmp_path, monkeypatch):
        owners = []
        spec_violations = topology_module.spec_violations
        monkeypatch.setattr(
            topology_module,
            "spec_violations",
            lambda spec, owner: owners.append(owner) or spec_violations(spec, owner),
        )
        scenario_file = tmp_path / "scenario.yaml"
        scenario_file.write_text(GOLDEN_SCENARIOS["fog-roaming"], encoding="utf-8")
        code = main(
            ["compare", str(scenario_file), "--horizon", "100", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_OK
        checked = [int(owner.removeprefix("node ")) for owner in owners if owner.startswith("node ")]
        assert sorted(checked) == list(range(9))


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_config(tmp_path / "nope.yaml")
        assert any("cannot read config file" in p for p in problems_of(exc))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(MINIMAL.encode("utf-8") + b"# caf\xe9\n")
        with pytest.raises(SchemaError) as exc:
            load_config(path)
        assert any("cannot read config file" in p for p in problems_of(exc))

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL, encoding="utf-8")
        assert load_config(path) == parse_config(MINIMAL)
