"""The benchmark tracer (perfbench/tracing.py) wraps program functions by
(owner, attribute); each must exist on its owner, or a traced run fails, and
the calls the program makes must go through the wrapped names, or the
per-layer metrics read zero."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import leadlag_fuse
import leadlag_fuse.cli  # noqa: F401  (the plan reads leadlag_fuse.cli)
from leadlag_fuse import fusion

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_defined_on_its_owner(tracing):
    plan = tracing._wrap_plan(leadlag_fuse)
    missing = [name for owner, attr, name, _ in plan if attr not in owner.__dict__]
    assert plan
    assert missing == []


def test_traced_training_counts_epochs_and_layer_calls(tracing):
    arch = fusion.FusionArchitecture(graph_count=2, input_dim=5, per_graph_dims=(4, 3), shared_dims=(4,), embedding_dim=3)
    model = fusion.FusionModel(arch, seed=0)
    samples = np.random.default_rng(0).random((2, 12, 5))
    tracer = tracing.Tracer(leadlag_fuse)
    tracer.install(0)
    try:
        report = fusion.train(model, samples, 1, fusion.TrainingSettings(max_epochs=5, patience=None))
    finally:
        tracer.uninstall()
    metrics = tracing.pass_layer_metrics(tracer.spans, threads=1)
    assert report.stop_epoch == 5 and len(report.val_losses) == 5
    assert metrics["fusion.epochs"] == report.stop_epoch
    # graph encoder, shared encoder, shared decoder, graph decoder: 4 calls per pass
    assert metrics["neural.forward_calls"] == 4 * report.stop_epoch + 4 * len(report.val_losses)
    assert metrics["neural.backward_calls"] == 4 * report.stop_epoch
