"""Tracing records every named boundary and fails loudly when one is missing."""

import json
from pathlib import Path

import pytest

import inputs
import layers
import spans
import sweep
from marketreg import simulate


def _traced_sweep(n_ops=2):
    tracer = spans.Tracer()
    with spans.traced(tracer, layers.BOUNDARIES):
        for k in range(n_ops):
            tracer.run_op(k + 1, sweep.sweep_op, inputs.sweep_spec(1, k))
    return tracer


def test_sweep_records_required_spans_and_restores_names():
    original = simulate.simulate_gbm
    tracer = _traced_sweep()
    tracer.require(*layers.REQUIRED["oracle-sweep"])
    assert simulate.simulate_gbm is original
    ops = {s.op for s in tracer.spans}
    assert ops == {1, 2}
    roots = [s for s in tracer.spans if s.name == "op"]
    assert all(s.parent is None for s in roots)
    assert all(s.parent is not None for s in tracer.spans if s.name != "op")


def test_missing_span_fails_loudly():
    tracer = _traced_sweep(1)
    with pytest.raises(spans.MissingSpan, match="span ingest.parse_daily_path"):
        tracer.require(*layers.REQUIRED["paper-six"])


def test_renamed_boundary_fails_before_running(monkeypatch):
    import marketreg.cli

    monkeypatch.delattr(marketreg.cli, "write_plot_files")
    original = marketreg.cli.parse_daily_path
    with pytest.raises(AttributeError):
        with spans.traced(spans.Tracer(), layers.BOUNDARIES):
            pass
    assert marketreg.cli.parse_daily_path is original


def test_self_time_subtracts_overlapping_children():
    s = spans.Span
    trace = [s(1, None, "op", 0.0, 10.0, 1.0, 1, 1), s(2, 1, "a", 1.0, 4.0, 1.0, 2, 1),
             s(3, 1, "a", 2.0, 5.0, 1.0, 3, 1), s(4, 1, "b", 8.0, 12.0, 1.0, 1, 1)]
    assert spans.self_times(trace)[1] == pytest.approx(10.0 - 4.0 - 2.0)


def test_layer_metrics_match_benchmark_json():
    declared = json.loads((Path(layers.__file__).parent.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    produced = set(layers.layer_metrics(_traced_sweep(1), 1, 0.0))
    assert names == produced | {"cli.import_s", "trace.overhead_ratio", "host.ref_kernel_s"}


def test_busy_time_is_cpu_time_and_pool_phase_is_wall_time():
    s = spans.Span
    tracer = spans.Tracer()
    # Two parse calls overlap on pool threads for 6 s of wall time but use
    # 2.5 s of CPU between them; the rest is waiting for the GIL.
    tracer.spans = [s(1, None, "op", 0.0, 10.0, 3.0, 1, 1), s(2, 1, "cli.main", 0.0, 10.0, 3.0, 1, 1),
                    s(3, 2, "ingest.parse_daily_path", 1.0, 7.0, 1.0, 2, 1),
                    s(4, 2, "ingest.parse_daily_path", 1.0, 7.0, 1.5, 3, 1)]
    tracer.counters["ingest.rows_parsed"] = 500
    m = layers.layer_metrics(tracer, 1, 3.0)
    assert m["ingest.parse_daily_path.busy_s"] == pytest.approx(2.5)
    assert m["ingest.parse_daily_path.rows_per_s"] == pytest.approx(200.0)
    assert m["cli.pool_gain"] == pytest.approx(0.5)
    assert m["cli.other_s"] == pytest.approx(4.0)
