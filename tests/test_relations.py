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

Two more relations check the stream keys, in both modes:

* horizon prefix: the events of a run to half the horizon are the events
  of the full run up to that time, with their seqs in the same relative
  order, so no draw depends on the horizon;
* appended process: a process of a new public kind appended at a target
  that has processes and at one that has none leaves the source and
  creation time of every message of the earlier processes unchanged.

Each relation also runs on the ``tiny`` size of both benchmark workloads,
in both modes; their document-form runs are compared with the run of the
original document, as they have no pinned digest.
"""

from dataclasses import replace

import pytest
import yaml
from conftest import BENCH_TINY
from test_golden import GOLDEN_DIGEST, SCENARIOS

from foggrid import (
    CHARGE_REQUEST,
    IDENTITY_TOKEN,
    Mode,
    SealedEnvelope,
    open_envelope,
    parse_config,
    run,
    with_mode,
)


#: Every document a relation runs on: the golden scenarios and BENCH_TINY.
DOCUMENTS = SCENARIOS | BENCH_TINY


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


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", sorted(BENCH_TINY))
def test_bench_document_form(name, form, mode):
    text = FORMS[form](yaml.safe_load(BENCH_TINY[name]))
    assert text != BENCH_TINY[name]
    sc, original = parse_config(text), parse_config(BENCH_TINY[name])
    assert sc == original
    digest = run(with_mode(original, mode).run_config).trace.digest
    assert run(with_mode(sc, mode).run_config).trace.digest == digest


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
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_inert_additions(name, mode):
    base = with_mode(parse_config(DOCUMENTS[name]), mode).run_config
    grown = with_mode(parse_config(_with_inert_additions(DOCUMENTS[name])), mode).run_config
    assert len(grown.topology.nodes) == len(base.topology.nodes) + 2
    before, after = run(base), run(grown)
    assert after.trace == before.trace
    for node in base.topology.nodes:
        assert after.queue_stats[node.id] == before.queue_stats[node.id]
        assert after.energy[node.id] == before.energy[node.id]


def _recorded(name: str, mode: Mode, text: str = ""):
    """The run config of document ``name`` in ``mode``, recording events,
    or of ``text`` instead if given."""
    rc = with_mode(parse_config(text or DOCUMENTS[name]), mode).run_config
    return replace(rc, record_events=True)


def _order(values) -> list[int]:
    """The indexes of ``values`` in their sorted order."""
    return sorted(range(len(values)), key=values.__getitem__)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_horizon_prefix(name, mode):
    full_cfg = _recorded(name, mode)
    half = full_cfg.horizon_s / 2
    short = run(replace(full_cfg, horizon_s=half)).trace.events
    full = run(full_cfg).trace.events
    head = [e for e in full if e.time <= half]
    assert len(head) == len(short) < len(full)
    assert [(e.time, e.kind, e.node) for e in short] == [(e.time, e.kind, e.node) for e in head]
    assert _order([e.seq for e in short]) == _order([e.seq for e in head])


_NEW_KIND = "PowerQuality"
_SESSION_KINDS = {CHARGE_REQUEST, IDENTITY_TOKEN}


def _with_appended_processes(text: str) -> tuple[str, list[int]]:
    """The scenario ``text`` with a process of the public kind _NEW_KIND
    appended at the first process's target and another at the first node
    no process targets, and those two targets."""
    doc = yaml.safe_load(text)
    workload = doc["workload"]
    processes = workload["arrival_processes"]
    targets = {p["target"] for p in processes}
    fresh = next(n["id"] for n in doc["topology"]["nodes"] if n["id"] not in targets)
    new_targets = [processes[0]["target"], fresh]
    for target in new_targets:
        processes.append({"rate_per_s": 0.05, "target": target, "payload_kind": _NEW_KIND})
    workload.setdefault("classification", {})[_NEW_KIND] = "public"
    return yaml.safe_dump(doc, sort_keys=False), new_targets


def _kind(message) -> str:
    content = message.content
    if isinstance(content, SealedEnvelope):
        content = open_envelope(content, message.src)  # the source holds a key
    return content.kind


def _process_messages(result, kinds_left_out) -> list[tuple[int, float]]:
    """The sorted (src, created_at) of every recorded message whose kind
    is not in ``kinds_left_out``."""
    return sorted(
        (m.src, m.created_at) for m in result.messages.values() if _kind(m) not in kinds_left_out
    )


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_appended_process(name, mode):
    text, new_targets = _with_appended_processes(DOCUMENTS[name])
    before = run(_recorded(name, mode))
    after = run(_recorded(name, mode, text))
    added = [m.src for m in after.messages.values() if _kind(m) == _NEW_KIND]
    assert set(added) == set(new_targets)
    assert _process_messages(after, _SESSION_KINDS | {_NEW_KIND}) == _process_messages(
        before, _SESSION_KINDS
    )
