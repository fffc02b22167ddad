"""The names and calls that the benchmark's traced run relies on.

``perfbench/layers.py`` wraps package functions by the names other modules
look them up under, and fails a traced run when a workload leaves a required
span or counter unrecorded. These tests run the same wrapping here, so that
a change which renames, inlines or bypasses a wrapped call fails in the test
suite, not only in the benchmark. ``perfbench/`` is only read: its modules
are imported without writing bytecode next to them.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

from marketreg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(*names):
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


inputs, layers, spans, sweep = _perfbench("inputs", "layers", "spans", "sweep")


@pytest.mark.parametrize("boundary", layers.BOUNDARIES, ids=lambda b: f"{b.owner}.{b.attr}")
def test_every_boundary_name_resolves(boundary):
    module, _, cls = boundary.owner.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, boundary.attr, None))


def test_traced_analyze_records_what_paper_six_requires(tmp_path, monkeypatch):
    paths = inputs.write_inputs("paper-six", 1, tmp_path / "in")
    argv = ["analyze", "--input", *map(str, paths), "--out", str(tmp_path / "out"), "--plots"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    tracer = spans.Tracer()
    with spans.traced(tracer, layers.BOUNDARIES):
        assert tracer.run_op(1, lambda: cli.main(argv)) == 0
    tracer.require(*layers.REQUIRED["paper-six"])
    names = [s.name for s in tracer.spans]
    assert names.count("ingest.parse_daily_path") == names.count("estimators.analyze_index") == 6


def test_traced_sweep_op_records_what_oracle_sweep_requires():
    tracer = spans.Tracer()
    with spans.traced(tracer, layers.BOUNDARIES):
        tracer.run_op(1, sweep.sweep_op, inputs.sweep_spec(1, 0))
    tracer.require(*layers.REQUIRED["oracle-sweep"])
