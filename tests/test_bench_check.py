"""Smoke test of the benchmark's pass, check and digest path (perfbench/run.py) at a tiny size.

The full benchmark stays out of the test suite; this runs two in-process
``run-all`` passes of a 4-asset synthetic universe into one output directory,
as a benchmark run does, and holds them to the benchmark's own checks.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from leadlag_fuse import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module; its environment, sys.path and helper imports are undone afterwards."""
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")  # run.py pins these on import
    monkeypatch.syspath_prepend(str(PERFBENCH))  # restores sys.path, including run.py's own insert
    helpers = [name for name in ("inputs", "tracing") if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    yield run
    for name in helpers:
        sys.modules.pop(name, None)


def test_two_passes_pass_the_benchmark_checks(bench, tmp_path):
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    config = inputs / "config.json"
    config.write_text(json.dumps({"synth": {"n_assets": 4, "days": 3}, "training": {"max_epochs": 40}}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "synth"), "--quiet", "synth"]) == 0
    workload = bench.Workload("synth-4x3", n_assets=4, days=3, threads=1, staged=False)
    manifest = {"assets": [f"A{i:02d}" for i in range(4)], "illiquid": []}
    n_specs = len(cli.default_config()["specs"])

    digests = []
    for _ in range(2):
        assert bench.run_pass(cli, workload, inputs, out) == 0
        problems, _ = bench.check_pass(out, manifest, n_specs)
        assert problems == []
        digests.append(bench.digest_tree(out, skip=("report.json",)))
    assert digests[0] == digests[1]
