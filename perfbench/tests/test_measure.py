"""The op_tail_s percentile rule and the closed loop."""

import pytest

import measure


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(20, 50.0, 10), (25, 60.0, 10), (100, 90.0, 10), (1000, 99.0, 10), (19, 100.0, 0), (1, 100.0, 0)],
)
def test_tail_percentile_for_sample_count(n, percentile, beyond):
    samples = [float(k) for k in range(n, 0, -1)]  # n..1, unsorted on purpose
    value, pct, got_beyond = measure.tail(samples)
    assert (pct, got_beyond) == (percentile, beyond)
    assert sum(s > value for s in samples) == beyond
    assert value == (n - beyond)


def test_closed_loop_stops_before_overrunning(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(measure, "perf_counter", lambda: clock[0])
    calls = []

    def op():
        clock[0] += 3.0
        calls.append(clock[0])
        return 3.0

    measure.closed_loop(10.0, op)
    assert calls == [3.0, 6.0, 9.0]  # a fourth op would end at 12 s


def test_closed_loop_runs_at_least_once(monkeypatch):
    monkeypatch.setattr(measure, "perf_counter", lambda: 0.0)
    calls = []
    measure.closed_loop(1.0, lambda: calls.append(1) or 5.0)
    assert calls == [1]


def test_closed_loop_runs_between_after_every_op_outside_the_window(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(measure, "perf_counter", lambda: clock[0])
    seen = []

    def op():
        clock[0] += 3.0
        return 3.0

    def between(last):
        clock[0] += 100.0
        seen.append(last)

    measure.closed_loop(10.0, op, between)
    assert seen == [3.0, 3.0, 3.0]
