#!/usr/bin/env python
"""Compare all four partitioning schemes across a partition-count sweep.

For a population of injected stuck-at faults on one circuit, plots (as a
text chart) the diagnostic resolution of interval-based, random-selection,
deterministic fixed-interval and two-step partitioning as the number of
partitions grows — the trade-off at the heart of the paper: interval wins
early, random wins late, two-step takes both.

Run:  python examples/scheme_comparison.py [circuit] [faults]
"""

import sys

import numpy as np

from repro import LinearCompactor, EmbeddedCore, ScanConfig, get_circuit
from repro.core.diagnosis_batch import diagnose_population
from repro.core.diagnosis import dr_by_partition_count
from repro.core.two_step import make_partitioner

SCHEMES = ("interval", "random", "deterministic", "two-step")
MAX_PARTITIONS = 10
NUM_GROUPS = 8


def text_chart(sweeps, width=48):
    top = max(max(v) for v in sweeps.values()) or 1.0
    lines = []
    for scheme, sweep in sweeps.items():
        lines.append(f"{scheme:>14}:")
        for k, dr in enumerate(sweep, start=1):
            bar = "#" * max(1, round(dr / top * width)) if dr > 0 else ""
            lines.append(f"  {k:2d} partitions |{bar:<{width}}| DR={dr:.2f}")
    return "\n".join(lines)


def main():
    circuit_name = sys.argv[1] if len(sys.argv) > 1 else "s5378"
    num_faults = int(sys.argv[2]) if len(sys.argv) > 2 else 80

    core = EmbeddedCore(get_circuit(circuit_name), num_patterns=128)
    scan = ScanConfig.single_chain(core.num_cells)
    compactor = LinearCompactor(24, 1)
    responses = core.sample_fault_responses(
        num_faults, np.random.default_rng(7)
    )
    print(f"{circuit_name}: {core.num_cells} scan cells, "
          f"{len(responses)} detected faults, {NUM_GROUPS} groups/partition")
    print()

    sweeps = {}
    for scheme in SCHEMES:
        partitions = make_partitioner(
            scheme, core.num_cells, NUM_GROUPS
        ).partitions(MAX_PARTITIONS)
        results = diagnose_population(responses, scan, partitions, compactor)
        sweeps[scheme] = dr_by_partition_count(results, MAX_PARTITIONS)

    print(text_chart(sweeps))
    print()
    best_final = min(sweeps, key=lambda s: sweeps[s][-1])
    print(f"best DR after {MAX_PARTITIONS} partitions: {best_final} "
          f"(DR={sweeps[best_final][-1]:.2f})")


if __name__ == "__main__":
    main()
