"""Mutation fuzzing of scenario documents.

Each example takes a golden scenario, applies a few random edits to its
YAML tree (a value replaced, a key or list entry deleted, an entry
copied), and hands the result to ``parse_config`` and to ``foggrid
validate``. Any document either parses into a config that meets every run
precondition and gets through engine set-up, or is rejected with a typed
config error and exit code 2.
"""

import contextlib
import copy
import io

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import SCENARIOS

from foggrid import ConfigError, InvalidTopology, parse_config, validate_topology
from foggrid.cli import EXIT_CONFIG, EXIT_OK, main
from foggrid.engine import _Engine, check_run_config
from foggrid.topology import FLOAT_MAX

GOLDEN_DOCS = [yaml.safe_load(text) for text in SCENARIOS.values()]
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

#: Values a mutation may write: node ids near the golden ones, numbers at
#: and beyond the edges of their ranges, and words the schema knows.
VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 10)
    | st.sampled_from([2**64, 10**400, -(10**400)])
    | st.floats()
    | st.sampled_from(
        ["cloud", "fog", "device", "cloud-only", "MeterReading", "GridTelemetry", "ev-a", ""]
    )
    | st.text(max_size=3)
    | st.lists(st.integers(0, 9), max_size=3)
    | st.dictionaries(st.sampled_from(["id", "tier", "area", "meter"]), st.integers(0, 9))
)


def _paths(node, path=()):
    """The path of every value below the document root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "copy"]))
    if action == "replace":
        parent[key] = data.draw(VALUES)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(parent[key]))


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.yaml"


@given(st.sampled_from(GOLDEN_DOCS), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_parse_or_are_rejected(scenario_path, golden, edits, data):
    doc = copy.deepcopy(golden)
    for _ in range(edits):
        if doc:
            _mutate(doc, data)
    text = yaml.dump(doc, Dumper=DUMPER)
    try:
        sc = parse_config(text)
    except (ConfigError, InvalidTopology):
        expected = EXIT_CONFIG
    else:
        assert check_run_config(sc.run_config) == []
        assert 0 < sc.c_ms <= FLOAT_MAX
        assert validate_topology(sc.run_config.topology) == []
        # Set-up resolves every route and classifies every payload kind.
        engine = _Engine(sc.run_config)
        engine._setup_processes()
        engine._setup_sessions()
        expected = EXIT_OK

    scenario_path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", str(scenario_path)]) == expected
