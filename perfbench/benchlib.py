"""Benchmark-side machinery shared by the three workloads.

Nothing here imports the program under test: percentiles, the failure
ledger, the span recorder used by traced runs, the backlog detector of the
open-loop generator, metric-name validation against ``BENCHMARK.json``,
the calibration loop and process-resource probes.  ``test_benchlib.py``
checks each piece on tiny inputs.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def bucket_quantile(buckets: Sequence[Tuple[float, int]], q: float) -> float:
    """Quantile over non-cumulative ``(upper_bound, count)`` buckets sorted
    by bound: the bound of the bucket holding the ``q``-quantile rank
    (0.0 for an empty histogram)."""
    total = sum(count for _, count in buckets)
    if total <= 0:
        return 0.0
    rank = math.ceil(q * total)
    seen = 0
    for bound, count in buckets:
        seen += count
        if seen >= rank:
            return bound
    return buckets[-1][0]


# -- failure ledger -----------------------------------------------------------


@dataclass
class Ledger:
    """Attempted, succeeded and failed operations, with a reason per
    failure (``http_<code>``, ``timeout``, ``mismatch`` or
    ``exception:<Type>``)."""

    attempted: int = 0
    succeeded: int = 0
    reasons: Counter = field(default_factory=Counter)
    examples: Dict[str, str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def ok(self) -> None:
        self.attempted += 1
        self.succeeded += 1

    def fail(self, reason: str, detail: str = "") -> None:
        self.attempted += 1
        self.reasons[reason] += 1
        if detail and reason not in self.examples:
            self.examples[reason] = detail[:300]

    def check(self, passed: bool, detail: str = "") -> bool:
        """Record one verified operation: success, or a ``mismatch``."""
        if passed:
            self.ok()
        else:
            self.fail("mismatch", detail)
        return passed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "error_rate": self.error_rate,
            "reasons": dict(sorted(self.reasons.items())),
            "examples": dict(sorted(self.examples.items())),
        }


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class SpanRecorder:
    """In-memory spans on one thread, with per-name counters.

    Spans nest through a stack; ``wrap`` patches a callable attribute so
    each call of the program's public function records a span, and puts
    the original back on exit.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    @contextmanager
    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Callable[[tuple, Any], Dict[str, float]]] = None):
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name):
                value = original(*args, **kwargs)
            if count is not None:
                recorder.counts.update(count(args, value))
            return value

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        roots = [(s.start, s.end) for s in self.spans if s.parent is None]
        return covered(roots, start, end) / (end - start) if end > start else 0.0


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name: the summed span durations minus the part of each
    span's interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for index, s in enumerate(spans):
        own = (s.end - s.start) - covered(children.get(index, ()), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


# -- open-loop backlog --------------------------------------------------------


def backlog_series(due: Sequence[float], done: Sequence[float]) -> List[int]:
    """Requests due but not yet finished, sampled at each due time
    (``done`` is the finish time, ``math.inf`` for one never finished)."""
    finished = sorted(done)
    out = []
    for i, t in enumerate(sorted(due)):
        # due <= t: i + 1 requests (ties resolved by sort order).
        completed = _count_le(finished, t)
        out.append(i + 1 - completed)
    return out


def _count_le(ordered: Sequence[float], value: float) -> int:
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def backlog_growing(series: Sequence[int], min_rise: float = 2.0) -> bool:
    """True when the mean backlog of the last third of a rung exceeds that
    of the first third by ``min_rise`` requests and by half again — a queue
    that keeps growing, not a burst that drained."""
    if len(series) < 6:
        return False
    third = len(series) // 3
    first = statistics.fmean(series[:third])
    last = statistics.fmean(series[-third:])
    return last > first + min_rise and last > 1.5 * first


# -- metric names -------------------------------------------------------------


def load_spec(root: Path) -> Dict[str, Any]:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def validate_spec(spec: Dict[str, Any]) -> List[str]:
    """Problems with the declared workload and metric names (empty = ok)."""
    problems = []
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in seen:
                problems.append(f"{section}: duplicate name {name!r}")
            seen.add(name)
            unit = entry.get("unit")
            if section != "workloads" and not (isinstance(unit, str) and UNIT_RE.match(unit)):
                problems.append(f"{section}: bad unit {unit!r} for {name!r}")
    return problems


def emitted_metrics(declared: Sequence[Dict[str, Any]],
                    values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """The result's ``metrics`` object: exactly the declared names, each
    with its declared unit.  Raises on a missing, extra or non-finite
    value so a benchmark bug never prints a partial result."""
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing={missing} extra={extra}")
    out = {}
    for m in declared:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {m['name']} is not finite: {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


# -- environment --------------------------------------------------------------


def calibrate() -> Dict[str, float]:
    """Fixed numpy + pure-Python work, in ms.  Informational: a run whose
    before/after figures disagree ran on a disturbed box."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.random((192, 192)), rng.random((192, 192))
    values = rng.random(200_000)
    t0 = time.perf_counter()
    for _ in range(20):
        a @ b
    for _ in range(5):
        np.sort(values)
    t1 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    t2 = time.perf_counter()
    return {"numpy_ms": (t1 - t0) * 1000, "python_ms": (t2 - t1) * 1000}


def disturbed(before: Dict[str, float], after: Dict[str, float],
              tolerance: float = 0.25) -> bool:
    return any(
        abs(after[k] / before[k] - 1.0) > tolerance
        for k in before if before[k] > 0
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another process (Linux)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (Linux)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks
