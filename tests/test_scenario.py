"""Scenario file parsing: schema, references, topology, and overrides."""

import gc
import json
import textwrap
import time
import tracemalloc
from dataclasses import replace

import pytest
import yaml
from conftest import (
    BENCH_TINY,
    FINITE_FIELDS,
    NONFINITE_YAML,
    bench_workloads,
    finite_field_scenario,
    nonfinite_line,
)
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
    InvalidRunConfig,
    InvalidTopology,
    Mode,
    SchemaError,
    Tier,
    load_config,
    parse_config,
    run,
    with_mode,
    with_overrides,
)
from foggrid.cli import EXIT_CONFIG, EXIT_OK, main
from foggrid.scenario import _LOADER, MAX_DEPTH, _load

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
        # warmup_s is not compared with a horizon_s the document does not hold.
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

    @pytest.mark.parametrize(
        "section, lines",
        [
            (
                "run: {horizon_s: abc, warmup_s: 50}",
                ["run.horizon_s: expected a number, got 'abc'"],
            ),
            (
                "run: {horizon_s: 10, warmup_s: 50}",
                ["run.warmup_s: must satisfy 0 <= warmup_s < horizon_s, got 50.0"],
            ),
            (
                "run: {horizon_s: 10}\nmodels:\n  bess: {capacity_kwh: x, soc_kwh: 5}",
                ["models.bess.capacity_kwh: expected a number, got 'x'"],
            ),
            (
                "run: {horizon_s: 10}\nmodels:\n  bess: {capacity_kwh: 2, soc_kwh: 5}",
                ["models.bess.soc_kwh: must be in [0, capacity_kwh], got 5.0"],
            ),
        ],
        ids=["horizon-mistyped", "horizon-valid", "capacity-mistyped", "capacity-valid"],
    )
    def test_no_run_rule_on_a_failed_field(self, section, lines):
        # warmup_s and soc_kwh are compared only with a horizon_s and a
        # capacity_kwh the document holds.
        text = MINIMAL.replace("run:\n  horizon_s: 1000.0", section)
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert problems_of(exc) == lines

    def test_record_lines(self):
        # An unknown key, a mistyped field and a missing required field of
        # each record kind; a spec has no required field.
        text = textwrap.dedent(
            """
            run: {horizon_s: 10}
            topology:
              nodes:
                - {id: 0, tier: cloud}
                - {id: 1, tier: fog, area: 0, spec: {cores: two, speed: 9}}
                - {id: 2, tier: device, area: 0}
            models:
              power_specs:
                fog: {power_idle_mw: low, colour: red}
              bess: {soc_kwh: full, volts: 12}
              bess_charge_schedule:
                - {energy_kwh: many, when: 3}
            workload:
              arrival_processes:
                - {rate_per_s: 0.1, target: 2, size_bytes: big, burst: 1}
              sessions:
                - {vehicle_id: ev, outlet_meter: 2, energy_kwh: 1.0, start_s: soon, colour: 1}
                - {vehicle_id: ev, start_s: 0.0, energy_kwh: 1.0}
            """
        )
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert problems_of(exc) == [
            "models.power_specs.fog.colour: unknown key",
            "models.power_specs.fog.power_idle_mw: expected a number, got 'low'",
            "models.bess.volts: unknown key",
            "models.bess.capacity_kwh: required field is missing",
            "models.bess.soc_kwh: expected a number, got 'full'",
            "models.bess_charge_schedule[0].when: unknown key",
            "models.bess_charge_schedule[0].at_s: required field is missing",
            "models.bess_charge_schedule[0].energy_kwh: expected a number, got 'many'",
            "topology.nodes[1].spec.speed: unknown key",
            "topology.nodes[1].spec.cores: expected an integer, got 'two'",
            "workload.arrival_processes[0].burst: unknown key",
            "workload.arrival_processes[0].payload_kind: required field is missing",
            "workload.arrival_processes[0].size_bytes: expected an integer, got 'big'",
            "workload.sessions[0].colour: unknown key",
            "workload.sessions[0].start_s: expected a number, got 'soon'",
            "workload.sessions[1].outlet_meter: required field is missing",
        ]

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

    @pytest.mark.parametrize(
        "section, line",
        [
            ("classification: {1: private}", "workload.classification: kind 1 must be a string"),
            (
                "vehicle_registry: {1: {meter: 2}}",
                "workload.vehicle_registry: vehicle id 1 must be a string",
            ),
        ],
        ids=["classification", "vehicle_registry"],
    )
    def test_workload_keys_must_be_strings(self, section, line):
        with pytest.raises(SchemaError) as exc:
            parse_config(MINIMAL + f"workload:\n  {section}\n")
        assert problems_of(exc) == [line]

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
    "a: &x 1\nb: &x 2\n",
]

#: Shapes the event walk leaves to PyYAML's own loader.
FALLBACK_SHAPES = {
    "merge": "base: &b {x: 1, y: 2}\nderived: {<<: *b, y: 3}\n",
    "merge-inline": "d: {<<: {x: 1}, y: 2}\n",
    "set": "a: !!set {x, y}\n",
    "omap": "a: !!omap [{x: 1}, {y: 2}]\n",
    "pairs": "a: !!pairs [{x: 1}, {x: 2}]\n",
    "sequence-key": "? [1, 2]\n: v\n",
    "mapping-key": "? {k: 1}\n: v\n",
    "value-key": "{=: 1, b: 2}\n",
    "value-scalar": "a: =\n",
    "unknown-tag": "a: !thing x\n",
    "unknown-map-tag": "a: !thing {x: 1}\n",
    "str-tag-on-seq": "a: !!str [1]\n",
    "seq-tag-on-scalar": "a: !!seq x\n",
    "two-bad-scalars": "a: [!!int x]\nb: !!float y\n",
    "second-document": "a: 1\n---\nb: 2\n",
    # PyYAML: "found unhashable key", at the anchored collection.
    "aliased-collection-key": "a: &q [1]\n? *q\n: v\n",
    # PyYAML: "found duplicate anchor".
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
}

#: Shapes the event walk builds itself.
WALKED_SHAPES = {
    "directives-and-markers": "%YAML 1.1\n---\na: [1, {b: 2}]\n...\n",
    "non-specific-and-collection-tags": "a: ! {x: !!seq [! 1, ! a]}\nb: !!map {c: ! 1}\n",
    # The scalar memo keys on the text and how it was written (plain,
    # quoted or tagged), so a quoted or explicitly tagged 1 stays a string.
    "memoised-scalars": "a: 1\nb: '1'\nc: !!str 1\nd: 1\ne: [1, '1', !!str 1, \"1\", 1]\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "alias-scalar": "a: &s text\nb: *s\n",
    "alias-int": "a: &n 123456789\nb: *n\n",
    "alias-map": "a: &m {x: 1, y: [2]}\nb: *m\n",
    "alias-seq": "a: &q [1, {z: 2}]\nb: *q\n",
    "alias-key": "a: &k x\n*k : 1\n",
    "recursive-seq": "a: &r [1, *r]\n",
    "recursive-map": "a: &r {self: *r}\n",
    "unaliased-anchor": "a: &m {x: 1}\nb: 2\n",
}

#: Each loader ``_load`` may run on: libyaml's, where PyYAML has it, and
#: the pure-Python one.
LOADERS = [
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml"),
    ),
    pytest.param(yaml.SafeLoader, id="python"),
]


@pytest.fixture(params=LOADERS)
def loader(request, monkeypatch):
    """Runs ``_load``, fallback included, on each loader."""
    monkeypatch.setattr("foggrid.scenario._LOADER", request.param)
    return request.param


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


def _anchored(text, shared):
    """A bench document as it is (``nothing``), with its run block anchored
    (``run``), or with one fog spec anchored and aliased by every other fog
    node (``fog-spec``)."""
    if shared == "run":
        return text.replace("run:\n", "run: &r\n", 1)
    if shared == "fog-spec":
        text = text.replace("tier: fog, ", "tier: fog, spec: *f, ")
        return text.replace("spec: *f", "spec: &f {power_active_mw: 199.0}", 1)
    return text


#: How a document starts before its nested sequence under ``a``: plain, so
#: the walk builds it; anchored, which the walk builds too; and after a
#: ``<<`` key, where the walk stops at a scalar and reads on to count depth.
NESTING_HEADS = {
    "walked": "a: ",
    "anchored": "a: &a ",
    "fallback-at-a-scalar": "m: {<<: {}}\na: ",
}


class TestLoader:
    def test_uses_libyaml_when_available(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert _LOADER is expected

    @pytest.mark.parametrize(
        "text",
        [MINIMAL, FULL, YAML_QUIRKS, *GOLDEN_SCENARIOS.values(), *BENCH_TINY.values()],
        ids=["minimal", "full", "quirks", *GOLDEN_SCENARIOS, *BENCH_TINY],
    )
    def test_same_documents_as_safe_loader(self, text, loader):
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
        [*FALLBACK_SHAPES.values(), *WALKED_SHAPES.values(), "", "# only\n"],
        ids=[*FALLBACK_SHAPES, *WALKED_SHAPES, "empty", "comment"],
    )
    def test_fallback_shapes_match_safe_loader(self, text, loader):
        assert _outcome(_load, text) == _outcome(_stock, text)

    def test_syntax_error_after_a_rejected_scalar(self, loader):
        # PyYAML composes the whole document before it builds any scalar,
        # so the syntax error is reported, not the scalar !!int rejects.
        text = "a: !!int x\nb: [\n"
        with pytest.raises(yaml.MarkedYAMLError) as reference:
            yaml.load(text, Loader=loader)
        assert _outcome(_load, text) == (type(reference.value), reference.value.problem)
        line = f"line 3, column 1: invalid YAML ({reference.value.problem})"
        assert _schema_lines(text) == [line]

    @pytest.mark.parametrize("name", ["alias-scalar", "alias-map", "alias-seq"])
    def test_aliases_keep_identity(self, name):
        doc = _load(WALKED_SHAPES[name])
        assert doc == _stock(WALKED_SHAPES[name])
        assert doc["b"] is doc["a"]

    def test_recursive_aliases(self):
        seq = _load(WALKED_SHAPES["recursive-seq"])["a"]
        assert seq[0] == 1 and seq[1] is seq
        mapping = _load(WALKED_SHAPES["recursive-map"])["a"]
        assert mapping["self"] is mapping

    @pytest.mark.parametrize("head", NESTING_HEADS.values(), ids=NESTING_HEADS)
    def test_nesting_up_to_the_limit_builds(self, head, loader):
        depth = MAX_DEPTH - 1  # inside the top-level mapping
        text = head + "[" * depth + "]" * depth + "\n"
        doc = _load(text)["a"]
        for _ in range(depth - 1):
            assert type(doc) is list and len(doc) == 1
            doc = doc[0]
        assert doc == []
        deeper = head + "[" * (depth + 1) + "]" * (depth + 1) + "\n"
        assert _schema_lines(deeper) == [f"document: nested deeper than {MAX_DEPTH} levels"]

    def test_depth_counts_the_level_that_stopped_the_walk(self, loader):
        # The walk stops at the !!omap sequence, which opens the 101st level.
        text = "a: !!omap " + "[" * MAX_DEPTH + "]" * MAX_DEPTH + "\n"
        assert _schema_lines(text) == [f"document: nested deeper than {MAX_DEPTH} levels"]
        shallower = "a: !!omap " + "[" * (MAX_DEPTH - 1) + "]" * (MAX_DEPTH - 1) + "\n"
        assert _outcome(_load, shallower) == _outcome(_stock, shallower)
        assert _outcome(_load, shallower)[0] is yaml.constructor.ConstructorError

    @pytest.mark.parametrize(
        "head",
        [*NESTING_HEADS.values(), "m: !!int x\na: ", "a: !!omap "],
        ids=[*NESTING_HEADS, "fallback-at-a-rejected-scalar", "fallback-at-a-collection"],
    )
    def test_deeper_nesting_is_rejected_before_the_rest_is_read(self, head, loader):
        # Reading every event of 40,000 flow levels takes libyaml seconds.
        # PyYAML's pure-Python scanner looks 1,024 characters ahead for a
        # possible simple key, at a cost that grows with the open flow
        # levels: 0.3-0.45 s before level 101 on a 2-core Xeon VM.
        text = head + "[" * 40_000 + "]" * 40_000 + "\n"
        start = time.perf_counter()
        assert _schema_lines(text) == [f"document: nested deeper than {MAX_DEPTH} levels"]
        assert time.perf_counter() - start < (2.0 if loader is yaml.SafeLoader else 0.5)

    @pytest.mark.parametrize("shared", ["nothing", "run", "fog-spec"])
    def test_peak_memory_is_a_few_times_the_text(self, shared):
        # A whole-document intermediate such as a node tree costs over 40
        # times the text; the walk holds one event beside the document,
        # and an anchor's value beside its aliases.
        text = _anchored(bench_workloads().generate("roaming-island", 1, "full"), shared)
        _load(text)  # the first load compiles the resolver's patterns
        tracemalloc.start()
        try:
            _load(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * len(text)

    @pytest.mark.parametrize(
        "text",
        [
            *FALLBACK_SHAPES.values(),
            *WALKED_SHAPES.values(),
            *INVALID_YAML,
            "a: 2020-13-45\n",
        ],
        ids=[
            *FALLBACK_SHAPES,
            *WALKED_SHAPES,
            *(f"invalid-{i}" for i in range(len(INVALID_YAML))),
            "bad-date",
        ],
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
        # Dumped twice in one list, a collection is written with an anchor
        # and then as its alias.
        for doc in (data, [data, data]):
            text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=True)
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


class TestReads:
    """How many loaders read a document: one for a document the walk builds,
    and two for a shape left to PyYAML (the walk reads it to its end, for
    its depth, and then ``yaml.load``)."""

    @pytest.fixture
    def reads(self, loader, monkeypatch):
        made = []

        class Counting(loader):
            def __init__(self, stream):
                made.append(stream)
                super().__init__(stream)

        monkeypatch.setattr("foggrid.scenario._LOADER", Counting)
        return made

    @pytest.mark.parametrize(
        "text",
        [*WALKED_SHAPES.values(), _anchored(BENCH_TINY["metro-grid"], "run")],
        ids=[*WALKED_SHAPES, "anchored-bench"],
    )
    def test_walked_documents_are_read_once(self, text, reads):
        _load(text)
        assert len(reads) == 1

    @pytest.mark.parametrize("text", FALLBACK_SHAPES.values(), ids=FALLBACK_SHAPES)
    def test_fallback_shapes_are_read_twice(self, text, reads):
        _outcome(_load, text)
        assert len(reads) == 2

    @pytest.mark.parametrize("text", INVALID_YAML)
    def test_invalid_yaml_returns(self, text, reads):
        # After an error of its own, libyaml's parser returns None for every
        # later event, so a loop that read on would never end.
        with pytest.raises(SchemaError):
            parse_config(text)
        assert len(reads) <= 2


class TestGarbageCollector:
    """A load leaves the caller's cyclic garbage collector as it found it."""

    def test_enabled_after_a_load(self):
        assert gc.isenabled()
        parse_config(MINIMAL)
        assert gc.isenabled()

    @pytest.mark.parametrize("text", INVALID_YAML)
    def test_enabled_after_invalid_yaml(self, text):
        with pytest.raises(SchemaError):
            parse_config(text)
        assert gc.isenabled()

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


#: A YAML integer of 20,000 bits: Python's limit on the digits it converts
#: from and to text holds for decimal literals only, not for hex ones.
_HEX = "0x" + "f" * 5000
_HEX_TEXT = "an integer of 20,000 bits"
_HEX_NODE = f"    - {{id: {_HEX}, tier: device, area: 0}}\n"


class TestIntegersTooLongToPrint:
    @pytest.mark.parametrize(
        "text, error, line",
        [
            (
                MINIMAL.replace("run:", f"run:\n  seed: {_HEX}"),
                SchemaError,
                f"run.seed: must be an integer in [0, 2**64), got {_HEX_TEXT}",
            ),
            (
                MINIMAL.replace("run:", f"run:\n  ? {_HEX}\n  : 1"),
                SchemaError,
                f"run.{_HEX_TEXT}: unknown key",
            ),
            (
                MINIMAL + f"  fog_links: [[1, {_HEX}, 3]]\n",
                SchemaError,
                "topology.fog_links[0]: expected a pair of node ids, "
                "got a list holding an integer too long to print",
            ),
            (
                MINIMAL
                + _HEX_NODE
                + f"workload:\n  vehicle_registry:\n    ev: {{meter: {_HEX}}}\n",
                InvalidTopology,
                f"id range: node id {_HEX_TEXT} is beyond the float range",
            ),
            (
                MINIMAL + "workload:\n  arrival_processes:\n"
                f"    - {{rate_per_s: 1, target: {_HEX}, payload_kind: GridTelemetry}}\n",
                DanglingReference,
                f"workload.arrival_processes[0].target: node {_HEX_TEXT} is not defined",
            ),
        ],
        ids=["seed", "key", "fog-link", "registry-meter", "target"],
    )
    def test_shown_by_its_size(self, text, error, line):
        with pytest.raises(error) as exc:
            parse_config(text)
        lines = exc.value.problems
        assert lines[0] == line


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
        assert exc.value.problems == [
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
        assert exc.value.problems == [
            "dangling link: fog link (1, 7) references unknown node 7"
        ]


def _with_node(rc, node_id, **fields):
    """``rc`` with the fields of node ``node_id`` replaced."""
    nodes = [replace(n, **fields) if n.id == node_id else n for n in rc.topology.nodes]
    return replace(rc, topology=topology_module.make_topology(nodes, (), rc.topology.mode))


def _node_case(name, line, tier="device", area=0, **fields):
    node = {"id": 2, "tier": tier, "area": area, **fields}
    return pytest.param(node, line, id=name)


_CLOUD_AND_FOG = [{"id": 0, "tier": "cloud"}, {"id": 1, "tier": "fog", "area": 0}]
#: An integer beyond the float range.
BIG = 10**400


class TestTopologyStage:
    @pytest.mark.parametrize(
        "node, line",
        [
            _node_case("id", "negative id: node id -1", id=-1),
            _node_case(
                "id-beyond", f"id range: node id {BIG} is beyond the float range", id=BIG
            ),
            _node_case("device-area", "negative area: node 2 has area -1", area=-1),
            _node_case(
                "area-beyond",
                f"area range: node 2 has area {BIG} beyond the float range",
                area=BIG,
            ),
            _node_case("fog-area", "negative area: node 2 has area -1", tier="fog", area=-1),
            _node_case(
                "device-role",
                "role tier mismatch: device node 2 has role gateway; expected sensor, "
                "actuator, or connecting",
                role="gateway",
            ),
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
        assert line in exc.value.problems
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
        assert exc.value.problems == lines

    def test_spec_int_beyond_float_range_as_through_the_api(self):
        # The schema reads spec ints for type only: a node's spec and a tier
        # default give the lines of the same specs built in code.
        big = 10**400
        device_line = "{id: 2, tier: device, area: 0}"
        text = MINIMAL.replace(device_line, device_line[:-1] + f", spec: {{cores: -{big}}}}}")
        text += f"models:\n  power_specs: {{fog: {{memory_mb: {big}}}}}\n"
        with pytest.raises(InvalidTopology) as exc:
            parse_config(text)
        cloud, fog, device = parse_config(MINIMAL).run_config.topology.nodes
        fog_spec = replace(fog.spec, memory_mb=big)
        device = replace(device, spec=replace(device.spec, cores=-big))
        topology = topology_module.make_topology([cloud, replace(fog, spec=fog_spec), device])
        api = topology_module.validate_topology(topology)
        api += topology_module.spec_violations(fog_spec, "models.power_specs.fog")
        lines = exc.value.problems
        assert lines == api
        assert "spec non-finite: node 2: cores is beyond the float range" in lines
        beyond = "spec non-finite: models.power_specs.fog: memory_mb is beyond the float range"
        assert beyond in lines

    @pytest.mark.parametrize("value", [BIG, -BIG], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize(
        "old, new, api",
        [
            ("seed: 5", "seed: N", lambda rc, v: replace(rc, seed=v)),
            (
                "size_bytes: 64",
                "size_bytes: N",
                lambda rc, v: replace(
                    rc, arrival_processes=(replace(rc.arrival_processes[0], size_bytes=v),)
                ),
            ),
            ("{id: 1,", "{id: N,", lambda rc, v: _with_node(rc, 1, id=v)),
            (
                "{id: 2, tier: device, area: 0",
                "{id: 2, tier: device, area: N",
                lambda rc, v: _with_node(rc, 2, area=v),
            ),
        ],
        ids=["seed", "size_bytes", "id", "area"],
    )
    def test_integer_beyond_float_range_as_through_the_api(self, old, new, api, value):
        # The schema reads integers for type only: a YAML document and the
        # same config built in code are rejected by the same owner, with
        # the same lines (a run line under its YAML path).
        text = GOLDEN_SCENARIOS["single-queue"]
        assert old in text
        with pytest.raises((SchemaError, InvalidTopology)) as exc:
            parse_config(text.replace(old, new.replace("N", str(value))))
        rc = api(parse_config(text).run_config, value)
        with pytest.raises((InvalidRunConfig, InvalidTopology)) as api_exc:
            run(rc)
        if isinstance(exc.value, InvalidTopology):
            assert type(api_exc.value) is InvalidTopology
            assert exc.value.problems == api_exc.value.problems
        else:
            assert type(api_exc.value) is InvalidRunConfig
            prefix = "run." if "seed" in old else "workload."
            assert exc.value.problems == [prefix + line for line in api_exc.value.problems]

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
        assert any(v.startswith("cloud cardinality: ") for v in exc.value.problems)

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
        assert any(v.startswith("orphan area: ") for v in exc.value.problems)


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
        assert flipped.by_id() == sc.run_config.topology.by_id()
        assert flipped.mode is mode

    def test_one_report_per_topology_per_compare(self, tmp_path, monkeypatch):
        # Each report runs the spec rules once per distinct spec, and any
        # later validate_topology call on its topology reads the cache.
        reports = []
        validate, spec_faults = topology_module._validate, topology_module._spec_faults

        def counted(t):
            checked = []
            reports.append((t, checked))
            with monkeypatch.context() as m:
                m.setattr(
                    topology_module,
                    "_spec_faults",
                    lambda spec: checked.append(spec) or spec_faults(spec),
                )
                return validate(t)

        monkeypatch.setattr(topology_module, "_validate", counted)
        scenario_file = tmp_path / "scenario.yaml"
        scenario_file.write_text(GOLDEN_SCENARIOS["fog-roaming"], encoding="utf-8")
        code = main(
            ["compare", str(scenario_file), "--horizon", "100", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_OK
        assert sorted(t.mode.value for t, _ in reports) == sorted(m.value for m in Mode)
        for t, checked in reports:
            assert len(checked) == len(set(checked)) == len({n.spec for n in t.nodes}) > 1
            assert topology_module.validate_topology(t) == []
        assert len(reports) == 2


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
