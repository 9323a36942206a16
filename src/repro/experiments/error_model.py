"""Ablation 7: evaluation protocol — random error injection vs real faults.

Section 4 of the paper: "the DR values here are larger than those obtained
by random error injection using a small number of errors.  This is because
in a real circuit, some faults may cause a large number of failing scan
cells that make partitioning and pruning less effective."

This experiment puts the three protocols side by side on one circuit with
the same diagnosis configuration:

* ``random-errors`` — a few errors in a few uniformly random cells (how
  [5]/[6]/[8] were evaluated);
* ``clustered-errors`` — the same error budget confined to a contiguous
  window (a synthetic fault-cone);
* ``real-faults`` — actual stuck-at fault simulation (the paper's
  protocol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..bist.misr import LinearCompactor
from ..core.diagnosis import diagnostic_resolution
from ..core.diagnosis_batch import diagnose_population
from ..sim.error_injection import inject_clustered_errors, inject_random_errors
from .config import ExperimentConfig, default_config
from .reporting import render_table
from .runner import build_circuit_workload, scheme_partitions


@dataclass
class ErrorModelAblation:
    circuit: str
    rows: List[list]  # [protocol, mean failing cells, DR random, DR two-step]

    def render(self) -> str:
        return render_table(
            f"Ablation 7: evaluation protocol ({self.circuit}, 8 partitions)",
            ["protocol", "mean failing cells", "DR random", "DR two-step"],
            self.rows,
        )


def run_error_model_ablation(
    circuit: str = "s5378",
    num_partitions: int = 8,
    num_groups: int = 16,
    errors_per_case: int = 4,
    error_cells: int = 3,
    config: Optional[ExperimentConfig] = None,
) -> ErrorModelAblation:
    config = config or default_config()
    workload = build_circuit_workload(circuit, config)
    rng = np.random.default_rng(config.fault_seed)
    count = len(workload.responses)

    protocols = {
        "random-errors": [
            inject_random_errors(
                workload.num_cells,
                workload.num_patterns,
                errors_per_case,
                rng,
                max_cells=error_cells,
            )
            for _ in range(count)
        ],
        "clustered-errors": [
            inject_clustered_errors(
                workload.num_cells,
                workload.num_patterns,
                errors_per_case,
                rng,
                window=max(2, workload.num_cells // 10),
            )
            for _ in range(count)
        ],
        "real-faults": workload.responses,
    }

    compactor = LinearCompactor(config.misr_width, workload.scan_config.num_chains)
    rows = []
    for label, responses in protocols.items():
        mean_fails = float(
            np.mean([len(r.failing_cells) for r in responses if r.detected])
        )
        drs = []
        for scheme in ("random", "two-step"):
            partitions = scheme_partitions(
                scheme,
                workload.scan_config.max_length,
                num_groups,
                num_partitions,
                lfsr_degree=config.lfsr_degree,
            )
            results = diagnose_population(
                responses, workload.scan_config, partitions, compactor
            )
            drs.append(diagnostic_resolution(results))
        rows.append([label, mean_fails, drs[0], drs[1]])
    return ErrorModelAblation(circuit, rows)
