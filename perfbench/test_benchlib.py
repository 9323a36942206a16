"""Self-tests for the benchmark's own logic, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import benchlib
import loadgen
import serve_open


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))  # 1..20
    assert benchlib.percentile(values, 50) == 10
    assert benchlib.percentile(values, 95) == 19
    assert benchlib.percentile(values, 100) == 20
    assert benchlib.percentile([7.0], 95) == 7.0
    assert benchlib.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        benchlib.percentile([], 50)
    with pytest.raises(ValueError):
        benchlib.percentile([1], 0)


def test_bucket_quantile():
    buckets = [(1.0, 2), (2.0, 0), (4.0, 3)]
    assert benchlib.bucket_quantile(buckets, 0.4) == 1.0
    assert benchlib.bucket_quantile(buckets, 0.5) == 4.0
    assert benchlib.bucket_quantile([], 0.5) == 0.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        benchlib.Span("parent", 0.0, 10.0, None),
        benchlib.Span("child", 1.0, 4.0, 0),
        benchlib.Span("child", 3.0, 5.0, 0),     # overlaps the first child
        benchlib.Span("grandchild", 1.5, 2.0, 1),
        benchlib.Span("other", 20.0, 21.0, None),
    ]
    selfs = benchlib.self_times(spans)
    assert selfs["parent"] == pytest.approx(10.0 - 4.0)  # children cover [1, 5]
    assert selfs["child"] == pytest.approx((3.0 - 0.5) + 2.0)
    assert selfs["grandchild"] == pytest.approx(0.5)
    assert selfs["other"] == pytest.approx(1.0)


def test_recorder_wrap_restores_and_counts():
    class Box:
        def twice(self, x):
            return 2 * x

    recorder = benchlib.SpanRecorder()
    original = Box.twice
    with recorder.wrap(Box, "twice", "box.twice", lambda args, v: {"calls": 1}):
        assert Box().twice(3) == 6
        assert Box().twice(4) == 8
    assert Box.twice is original
    assert [s.name for s in recorder.spans] == ["box.twice", "box.twice"]
    assert recorder.counts["calls"] == 2


def test_covered_union_and_clipping():
    assert benchlib.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert benchlib.covered([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    assert benchlib.covered([], 0, 1) == 0


def test_backlog_detector():
    steady_due = [i * 0.01 for i in range(300)]
    steady_done = [t + 0.005 for t in steady_due]
    assert not benchlib.backlog_growing(benchlib.backlog_series(steady_due, steady_done))
    # Service slower than arrivals: each request finishes 2x later.
    growing_done = [0.02 * (i + 1) for i in range(300)]
    series = benchlib.backlog_series(steady_due, growing_done)
    assert series[-1] > series[0]
    assert benchlib.backlog_growing(series)
    # A burst that drains is not a growing backlog.
    burst_done = [max(t, 0.5) + 0.001 for t in steady_due]
    assert not benchlib.backlog_growing(benchlib.backlog_series(steady_due, burst_done))
    # Requests that never finish keep the backlog growing.
    lost = [math.inf] * 300
    assert benchlib.backlog_growing(benchlib.backlog_series(steady_due, lost))


def test_ledger_counts_reasons():
    ledger = benchlib.Ledger()
    ledger.ok()
    assert ledger.check(True)
    assert not ledger.check(False, "dr 1.0 != 2.0")
    ledger.fail("http_503")
    ledger.fail("timeout")
    ledger.fail("http_503")
    assert (ledger.attempted, ledger.succeeded, ledger.failed) == (6, 2, 4)
    assert ledger.error_rate == pytest.approx(4 / 6)
    data = ledger.to_dict()
    assert data["reasons"] == {"http_503": 2, "mismatch": 1, "timeout": 1}
    assert data["examples"]["mismatch"] == "dr 1.0 != 2.0"
    assert benchlib.Ledger().error_rate == 0.0


def test_metric_name_validation():
    good = {"workloads": [{"name": "cold_build", "why": "x"}],
            "end_to_end": [{"name": "p50_ms.lo", "unit": "ms"}],
            "per_layer": [{"name": "trace.coverage_pct", "unit": "%"}]}
    assert benchlib.validate_spec(good) == []
    bad = {"end_to_end": [{"name": "_x", "unit": "ms"},
                          {"name": "a b", "unit": "ms"},
                          {"name": "ok", "unit": "m s"},
                          {"name": "ok", "unit": "s"},
                          {"name": "x" * 65, "unit": "s"}]}
    problems = benchlib.validate_spec(bad)
    assert len(problems) == 5
    declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
    out = benchlib.emitted_metrics(declared, {"a": 1, "b": 2.5})
    assert out == {"a": {"value": 1.0, "unit": "s"}, "b": {"value": 2.5, "unit": "ms"}}
    with pytest.raises(ValueError):
        benchlib.emitted_metrics(declared, {"a": 1})
    with pytest.raises(ValueError):
        benchlib.emitted_metrics(declared, {"a": 1, "b": 2, "c": 3})
    with pytest.raises(ValueError):
        benchlib.emitted_metrics(declared, {"a": 1, "b": math.inf})


def test_benchmark_json_is_valid():
    spec = benchlib.load_spec(benchlib.Path(__file__).resolve().parent.parent)
    assert benchlib.validate_spec(spec) == []
    assert [w["name"] for w in spec["workloads"]] == [
        "cold_build", "warm_diagnose", "serve_open"]


def test_schedule_is_seeded_and_fixed_count():
    a = loadgen.jittered_schedule(np.random.default_rng(1), 40.0, 5.0)
    b = loadgen.jittered_schedule(np.random.default_rng(1), 40.0, 5.0)
    c = loadgen.jittered_schedule(np.random.default_rng(2), 40.0, 5.0)
    assert a == b and a != c
    assert len(a) == len(c) == 200
    assert a == sorted(a) and 0 <= a[0] and a[-1] < 5.0
    # One arrival per 25 ms slot.
    assert all(int(t / 0.025) == i for i, t in enumerate(a))


def test_stage_p50_from_cumulative_scrape_diff():
    before = {0.001: 10, 0.002: 10}            # 10 early observations
    after = {0.001: 10, 0.002: 11, 0.004: 15}  # then 1 at 2 ms, 4 at 4 ms
    assert serve_open._stage_p50_ms(before, after) == pytest.approx(4.0)
    assert serve_open._stage_p50_ms({}, {0.001: 3, 0.008: 4}) == pytest.approx(1.0)
