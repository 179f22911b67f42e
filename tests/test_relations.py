"""Metamorphic relations of the determinism contract.

Each test changes a golden scenario in a way that must not change its run
and checks the run with exact equality:

* document form: the same scenario written in block style, in flow style,
  with every mapping's keys reversed, or with comment lines between its
  entries parses to an equal ScenarioConfig and runs to its pinned digest;
* inert additions: a device with no traffic and a fog node in a new area
  with no devices, both put at the front of the node list, and a vehicle
  registry entry no session uses leave the digest and every existing
  node's queue statistics and energy ledger unchanged, in both modes.
"""

import pytest
import yaml
from test_golden import GOLDEN_DIGEST, SCENARIOS

from foggrid import Mode, parse_config, run, with_mode


def _reversed_keys(value):
    """``value`` with the keys of every mapping in it in reverse order."""
    if isinstance(value, dict):
        return {k: _reversed_keys(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def _commented(text: str) -> str:
    """``text`` with a comment line before each of its lines."""
    out = []
    for i, line in enumerate(text.splitlines()):
        pad = line[: len(line) - len(line.lstrip())]
        out += [f"{pad}# entry {i}", line]
    return "\n".join(out) + "\n"


FORMS = {
    "block": lambda doc: yaml.safe_dump(doc, default_flow_style=False, sort_keys=False),
    "flow": lambda doc: yaml.safe_dump(doc, default_flow_style=True, sort_keys=False),
    "reversed-keys": lambda doc: yaml.safe_dump(_reversed_keys(doc), sort_keys=False),
    "comments": lambda doc: _commented(yaml.safe_dump(doc, sort_keys=False)),
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_document_form(name, form):
    text = FORMS[form](yaml.safe_load(SCENARIOS[name]))
    assert text != SCENARIOS[name]
    sc = parse_config(text)
    assert sc == parse_config(SCENARIOS[name])
    assert run(sc.run_config).trace.digest == GOLDEN_DIGEST[name]


def _with_inert_additions(text: str) -> str:
    """The scenario ``text`` with a traffic-free device in the area of its
    first fog node and a fog node in a new area, both first in the node
    list, and a vehicle registered at the new device that no session uses."""
    doc = yaml.safe_load(text)
    nodes = doc["topology"]["nodes"]
    new_id = max(n["id"] for n in nodes) + 1
    area = next(n["area"] for n in nodes if n["tier"] == "fog")
    new_area = max(n.get("area", 0) for n in nodes) + 1
    nodes[:0] = [
        {"id": new_id, "tier": "device", "area": area},
        {"id": new_id + 1, "tier": "fog", "area": new_area},
    ]
    registry = doc["workload"].setdefault("vehicle_registry", {})
    registry["ev-inert"] = {"meter": new_id}
    return yaml.safe_dump(doc, sort_keys=False)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_inert_additions(name, mode):
    base = with_mode(parse_config(SCENARIOS[name]), mode).run_config
    grown = with_mode(parse_config(_with_inert_additions(SCENARIOS[name])), mode).run_config
    assert len(grown.topology.nodes) == len(base.topology.nodes) + 2
    before, after = run(base), run(grown)
    assert after.trace == before.trace
    for node in base.topology.nodes:
        assert after.queue_stats[node.id] == before.queue_stats[node.id]
        assert after.energy[node.id] == before.energy[node.id]
