#!/usr/bin/env python
"""Perf observatory over the committed ``BENCH_PR*.json`` trajectory.

``scripts/bench.py`` answers "is this PR faster than the last one?";
this script answers "how has every tracked number moved across the whole
PR sequence, and did any speedup quietly rot?".  It ingests all bench
reports in the repo root, folds them into per-(circuit, metric) time
series, and renders an ASCII trend table with sparklines.

Two outputs:

* ``perf_history.json`` — the folded series as a machine-readable
  artifact (CI uploads it; dashboards and future gates consume it);
* ``--check-trend`` — a regression gate over the **speedup** metrics
  (machine-relative ratios, so they survive hardware changes between CI
  runners): exit 2 when any tracked speedup in the *latest* report falls
  more than ``--tolerance`` below its best historical value.  Absolute
  seconds are displayed but never gated — they track the machine, not
  the code.

Reports whose schema has no ``circuits`` list (e.g. the PR 3 service
bench) are skipped with a note, never silently.

Usage::

    python scripts/perfdash.py [--dir REPO] [--out perf_history.json]
                               [--check-trend] [--tolerance 0.4]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Sparkline glyph ramp (eight levels, min..max of the series).
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Bench reports follow this name; the capture is the PR/order number.
REPORT_PATTERN = re.compile(r"BENCH_PR(\d+)\.json$")

#: Speedup metrics: machine-relative ratios where *higher is better*
#: (rendered with a best-vs-latest column).
SPEEDUP_SUFFIX = "_speedup"

#: The gated subset: compute-kernel ratios whose history the trend gate
#: defends.  ``serve_disk_warm_speedup`` is deliberately absent — it is
#: dominated by disk I/O timing on shared runners (its real history
#: already swings 3x run-to-run), so gating it would only teach people
#: to ignore the gate.
TRACKED_SPEEDUPS = (
    "fault_batch_speedup",
    "soa_speedup",
    "diagnose_speedup",
    "end_to_end_speedup",
)

#: Default slack against the best historical value before --check-trend
#: fails.  Wide on purpose: single-digit-percent jitter on shared CI
#: runners is normal; a real regression (kernel fell back to a slow
#: path, cache stopped hitting) moves these ratios by 2x or more.
DEFAULT_TOLERANCE = 0.4


def discover_reports(root: Path) -> List[Tuple[int, Path, Dict[str, Any]]]:
    """All parseable ``BENCH_PR<n>.json`` under ``root``, ordered by PR.

    Returns ``(pr, path, data)`` triples; unreadable files and reports
    without a ``circuits`` list are reported to stderr and skipped.
    """
    reports: List[Tuple[int, Path, Dict[str, Any]]] = []
    for path in sorted(root.glob("BENCH_PR*.json")):
        match = REPORT_PATTERN.search(path.name)
        if not match:
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perfdash: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        if not isinstance(data, dict) or not isinstance(
            data.get("circuits"), list
        ):
            print(
                f"perfdash: skipping {path.name}: no 'circuits' section "
                "(different bench schema)",
                file=sys.stderr,
            )
            continue
        pr = int(data.get("pr") or match.group(1))
        reports.append((pr, path, data))
    reports.sort(key=lambda triple: triple[0])
    return reports


def load_series(
    reports: Sequence[Tuple[int, Path, Dict[str, Any]]],
) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """Fold reports into ``(circuit, metric) -> [(pr, value), ...]``.

    Only numeric scalar metrics are tracked; a metric absent from a given
    report simply has a gap in its series (kernels land mid-sequence).
    The PR 10 ``serve_overhead`` section contributes its
    ``serve_overhead_pct`` under the pseudo-circuit ``serve`` — a
    lower-is-better percentage, displayed but never trend-gated here
    (bench.py's ``--check`` enforces its absolute 3% budget per run).
    """
    series: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for pr, _path, data in reports:
        overhead = data.get("serve_overhead")
        if isinstance(overhead, dict) and isinstance(
            overhead.get("serve_overhead_pct"), (int, float)
        ):
            series.setdefault(("serve", "serve_overhead_pct"), []).append(
                (pr, float(overhead["serve_overhead_pct"]))
            )
        for entry in data["circuits"]:
            if not isinstance(entry, dict):
                continue
            circuit = str(entry.get("circuit", "?"))
            for metric, value in entry.items():
                if metric == "circuit":
                    continue
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                series.setdefault((circuit, metric), []).append(
                    (pr, float(value))
                )
    return series


def sparkline(values: Sequence[float]) -> str:
    """Eight-level unicode sparkline of a series (empty-safe)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_CHARS[3] * len(values)
    scale = (len(SPARK_CHARS) - 1) / (hi - lo)
    return "".join(SPARK_CHARS[int((v - lo) * scale)] for v in values)


def _fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


def render_trend(
    series: Dict[Tuple[str, str], List[Tuple[int, float]]],
    only_gated: bool = False,
) -> str:
    """ASCII trend table: one row per (circuit, metric) series."""
    headers = ["circuit", "metric", "first", "best", "last", "trend", "vs best"]
    rows: List[List[str]] = []
    for (circuit, metric), points in sorted(series.items()):
        speedup = metric.endswith(SPEEDUP_SUFFIX)
        gated = metric in TRACKED_SPEEDUPS
        if only_gated and not gated:
            continue
        values = [v for _, v in points]
        best = max(values) if speedup else min(values)
        last = values[-1]
        ratio = last / best if best else float("nan")
        rows.append([
            circuit,
            metric + ("*" if gated else ""),
            _fmt(values[0]),
            _fmt(best),
            _fmt(last),
            sparkline(values),
            f"{ratio:+.1%}".replace("+", "") if speedup else "-",
        ])
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    lines.append("")
    lines.append("* tracked speedup (gated by --check-trend); 'vs best' is "
                 "the latest value over the best historical one")
    return "\n".join(lines)


def check_trend(
    series: Dict[Tuple[str, str], List[Tuple[int, float]]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Regression messages for every gated speedup whose latest value
    fell below ``best * (1 - tolerance)``; empty list = healthy.

    A metric must appear in the **latest PR present in its own series**
    and have at least two points — a metric that was added in the final
    report has no history to regress against.
    """
    failures: List[str] = []
    for (circuit, metric), points in sorted(series.items()):
        if metric not in TRACKED_SPEEDUPS or len(points) < 2:
            continue
        best_pr, best = max(points, key=lambda p: p[1])
        last_pr, last = points[-1]
        floor = best * (1.0 - tolerance)
        if last < floor:
            failures.append(
                f"{circuit}.{metric}: {last:.2f}x (PR{last_pr}) fell below "
                f"{floor:.2f}x — best was {best:.2f}x (PR{best_pr}), "
                f"tolerance {tolerance:.0%}"
            )
    return failures


def build_history(
    reports: Sequence[Tuple[int, Path, Dict[str, Any]]],
    series: Dict[Tuple[str, str], List[Tuple[int, float]]],
) -> Dict[str, Any]:
    """The ``perf_history.json`` artifact body."""
    out_series: Dict[str, Any] = {}
    for (circuit, metric), points in sorted(series.items()):
        speedup = metric.endswith(SPEEDUP_SUFFIX)
        values = [v for _, v in points]
        out_series[f"{circuit}/{metric}"] = {
            "circuit": circuit,
            "metric": metric,
            "gated": metric in TRACKED_SPEEDUPS,
            "prs": [pr for pr, _ in points],
            "values": values,
            "best": max(values) if speedup else min(values),
            "latest": values[-1],
        }
    return {
        "schema": "repro-perf-history",
        "version": 1,
        "reports": [
            {"pr": pr, "file": path.name} for pr, path, _ in reports
        ],
        "series": out_series,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfdash",
        description="Trend table + regression gate over BENCH_PR*.json.",
    )
    parser.add_argument("--dir", default=None, metavar="REPO",
                        help="directory holding BENCH_PR*.json "
                        "(default: the repo root above this script)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the folded series as JSON (artifact)")
    parser.add_argument("--check-trend", action="store_true",
                        help="exit 2 when any speedup regresses beyond "
                        "--tolerance vs its best historical value")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help=f"allowed fraction below the best value "
                        f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--gated-only", action="store_true",
                        help="table shows only the gated speedup series")
    args = parser.parse_args(argv)

    root = Path(args.dir) if args.dir else Path(__file__).resolve().parents[1]
    if not root.is_dir():
        print(f"perfdash: no such directory: {root}", file=sys.stderr)
        return 1
    reports = discover_reports(root)
    if not reports:
        print(f"perfdash: no usable BENCH_PR*.json under {root}",
              file=sys.stderr)
        return 1
    series = load_series(reports)
    print(f"perf trajectory: {len(reports)} reports "
          f"(PR{reports[0][0]}..PR{reports[-1][0]}), "
          f"{len(series)} series")
    print()
    print(render_trend(series, only_gated=args.gated_only))

    if args.out:
        out_path = Path(args.out)
        out_path.write_text(
            json.dumps(build_history(reports, series), indent=2) + "\n")
        print(f"\nwrote {out_path}")

    if args.check_trend:
        failures = check_trend(series, tolerance=args.tolerance)
        if failures:
            print("\nTREND REGRESSIONS:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 2
        print(f"\ntrend gate passed ({args.tolerance:.0%} tolerance)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
