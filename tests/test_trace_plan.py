"""The benchmark tracer (perfbench/tracing.py) wraps program functions by
(owner, attribute); each must exist on its owner, or a traced run fails."""

import importlib.util
import sys
from pathlib import Path

import leadlag_fuse
import leadlag_fuse.cli  # noqa: F401  (the plan reads leadlag_fuse.cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_is_defined_on_its_owner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look the module up
    spec.loader.exec_module(tracing)
    plan = tracing._wrap_plan(leadlag_fuse)
    missing = [name for owner, attr, name, _ in plan if attr not in owner.__dict__]
    assert plan
    assert missing == []
