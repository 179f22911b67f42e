"""The benchmark's traced run wraps functions of the package by name.

``bench/child.py`` lists them in ``FULL``; a rename or deletion of one of
them would only show when the traced run crashes. This test loads the file
(without running it) and resolves every target.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _full_targets():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.FULL


TARGETS = _full_targets()


@pytest.mark.parametrize("name, module_name, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_span_target_resolves_to_a_callable(name, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
