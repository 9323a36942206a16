"""Cone-restricted stuck-at fault simulation.

For each fault, only the gates inside the static fanout cone of the fault
site are re-evaluated, against the cached fault-free values of everything
outside the cone; faults run in batches through the level-group kernel
of :mod:`repro.sim.faultsim_batch`.  The output is the **error matrix**:
for every scan cell, a packed word vector with bit ``p`` set iff the cell
captures a wrong value under pattern ``p`` — exactly the information the
paper's diagnosis schemes consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..telemetry import METRICS, span
from .bitops import any_bit, num_words, pattern_mask, popcount
from .faults import Fault
from .faultsim_batch import simulate_faults_batched
from .logicsim import CompiledCircuit, SimResult


@dataclass
class FaultResponse:
    """Per-pattern error behaviour of one fault.

    ``cell_errors`` maps scan-cell position -> packed word vector of the
    patterns where that cell captured an error.  Cells absent from the map
    captured no errors.
    """

    fault: Fault
    cell_errors: Dict[int, np.ndarray]
    num_patterns: int

    @property
    def failing_cells(self) -> List[int]:
        """Scan-cell positions that captured at least one error."""
        return sorted(self.cell_errors)

    @property
    def detected(self) -> bool:
        return bool(self.cell_errors)

    def error_count(self) -> int:
        """Total number of (cell, pattern) error events."""
        return sum(popcount(vec) for vec in self.cell_errors.values())

    def errors_at(self, cell: int) -> np.ndarray:
        """Error word vector for one cell (zeros if the cell never fails)."""
        vec = self.cell_errors.get(cell)
        if vec is None:
            return np.zeros(num_words(self.num_patterns), dtype=np.uint64)
        return vec


class FaultSimulator:
    """Simulates single stuck-at faults against a fixed pattern set."""

    def __init__(self, compiled: CompiledCircuit, good: SimResult):
        self.compiled = compiled
        self.good = good
        self.num_patterns = good.num_patterns
        self._mask = pattern_mask(good.num_patterns)
        self._fanout = _fanout_rows(compiled)
        # Scan-cell positions observed by each D-input net.
        self._capture_cells: Dict[int, List[int]] = {}
        for cell_pos, row in enumerate(compiled.ff_capture_rows):
            self._capture_cells.setdefault(int(row), []).append(cell_pos)

    def _response(self, fault: Fault, cell_errors: Dict[int, np.ndarray]) -> FaultResponse:
        METRICS.incr("faultsim.faults")
        if cell_errors:
            METRICS.incr("faultsim.detected")
            METRICS.incr("faultsim.error_cells", len(cell_errors))
        return FaultResponse(fault, cell_errors, self.num_patterns)

    def simulate_faults(
        self, faults: Sequence[Fault], workers: Optional[int] = None
    ) -> List[FaultResponse]:
        """Error matrices for a fault population, in input order.

        The population runs through the fault-batched SoA cone kernel
        (:mod:`repro.sim.faultsim_batch`), ``DEFAULT_BATCH`` faults per
        batch.  Batches are independent, so ``workers > 1`` fans them out
        over a fork-based process pool (``workers=None`` reads
        ``REPRO_WORKERS``, default serial; small populations and
        platforms without fork always run serially).  Results are
        bit-identical whatever the worker count.
        """
        faults = list(faults)
        with span("fault.sim", faults=len(faults)) as sp:
            responses = simulate_faults_batched(self, faults, workers=workers)
            sp.add("faults", len(faults))
            sp.add("detected", sum(1 for r in responses if r.detected))
        return responses


def merge_responses(responses: Sequence[FaultResponse]) -> FaultResponse:
    """Superpose several faults' error matrices (multiple simultaneous
    faults; paper Section 5: "the effect of multiple faults can be viewed
    similarly with that of single fault").

    Error bits XOR: two faults flipping the same captured bit cancel,
    exactly as in silicon.
    """
    if not responses:
        raise ValueError("at least one response required")
    num_patterns = responses[0].num_patterns
    if any(r.num_patterns != num_patterns for r in responses):
        raise ValueError("responses cover different pattern counts")
    merged: Dict[int, np.ndarray] = {}
    for response in responses:
        for cell, vec in response.cell_errors.items():
            if cell in merged:
                merged[cell] = merged[cell] ^ vec
            else:
                merged[cell] = vec.copy()
    merged = {cell: vec for cell, vec in merged.items() if any_bit(vec)}
    return FaultResponse(responses[0].fault, merged, num_patterns)


def _fanout_rows(compiled: CompiledCircuit) -> Dict[int, List[int]]:
    """Value-plane row -> rows of the combinational gates it feeds (one
    entry per pin), for every row that feeds at least one gate."""
    index = compiled.index
    rank = index.rank.tolist()
    ptr = index.fanout_ptr.tolist()
    succ_rows = index.rank[index.fanout_ids].tolist()
    return {
        rank[gid]: succ_rows[ptr[gid]:ptr[gid + 1]]
        for gid in range(index.num_gates)
        if ptr[gid] != ptr[gid + 1]
    }
