"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {cold_build,warm_diagnose,serve_open}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the program under test is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
runs the same workload with benchmark-side spans around each layer's
public calls and reports the per-layer metrics.  Either way the program's
outputs are checked, every failed operation is counted with its reason,
and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON report: provenance, calibration, the failure
ledger and workload details.  Exit codes: 0 ok, 1 a correctness failure
(the result line is still printed), 2 refused to start, 3 the benchmark
itself broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
import traceback
from pathlib import Path

import benchlib
import inputs

WORKLOADS = ("cold_build", "warm_diagnose", "serve_open")


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _preflight() -> dict:
    """Refuse to measure a program that an environment knob or a missing
    source tree would silently change."""
    knobs = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if knobs:
        _refuse(f"unset {', '.join(knobs)} first: REPRO_* variables change "
                "the measured program")
    if not (inputs.SRC / "repro" / "__init__.py").is_file():
        _refuse(f"no program source under {inputs.SRC}; run from the "
                "repository root of a full checkout")
    sys.path.insert(0, str(inputs.SRC))
    import repro

    if Path(repro.__file__).resolve().parent != inputs.SRC / "repro":
        _refuse(f"imported repro from {repro.__file__}, not {inputs.SRC}")
    spec = benchlib.load_spec(inputs.ROOT)
    problems = benchlib.validate_spec(spec)
    if problems:
        _refuse("BENCHMARK.json: " + "; ".join(problems))
    return spec


def _provenance(seed: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": inputs.source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child process this run
    # started (prepare step, server) is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        _refuse("--seed must be >= 0")

    spec = _preflight()
    module = __import__(args.workload)
    with open(Path(__file__).with_name("reference.json")) as handle:
        reference = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    ledger = benchlib.Ledger()
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": _provenance(args.seed)}
    calibration_before = benchlib.calibrate()
    began = time.perf_counter()
    run = module.trace if args.trace else module.measure
    try:
        values = run(args.seed, args.seconds, ledger, report, reference)
    except Exception as exc:  # noqa: BLE001 - the program failed: record why
        traceback.print_exc()
        ledger.fail(f"exception:{type(exc).__name__}", repr(exc))
        values = None
    report["wall_s"] = time.perf_counter() - began
    calibration_after = benchlib.calibrate()
    report["calibration"] = {
        "before": calibration_before,
        "after": calibration_after,
        "disturbed": benchlib.disturbed(calibration_before, calibration_after),
    }
    if args.trace and values is not None:
        # A layer the workload never calls did no work: report it as 0.
        idle = sorted({m["name"] for m in declared} - set(values))
        report["idle_layers"] = idle
        values.update({name: 0.0 for name in idle})
    report["ledger"] = ledger.to_dict()
    correct = values is not None and ledger.failed == 0 and ledger.attempted > 0
    metrics = benchlib.emitted_metrics(declared, values) if values is not None else {}
    print(json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    sys.stdout.flush()
    if not correct:
        print(f"perfbench: {ledger.failed} of {ledger.attempted} operations "
              f"failed: {dict(ledger.reasons)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, then fail loudly
        traceback.print_exc()
        print("perfbench: the benchmark itself failed (see traceback)",
              file=sys.stderr)
        sys.exit(3)
