"""Reference good-machine simulation: the per-gate loop.

The original compiled evaluation loop, kept verbatim as the oracle for
the level-group SoA schedule (:mod:`repro.sim.soa`): one ``_combine``
per combinational gate, in topological order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.bitops import num_words, pattern_mask
from repro.sim.logicsim import CompiledCircuit, SimResult, _combine


def simulate_pergate(
    compiled: CompiledCircuit,
    pi_values: np.ndarray,
    ff_values: np.ndarray,
    num_patterns: int,
) -> SimResult:
    """Evaluate all patterns one compiled gate at a time."""
    words = num_words(num_patterns)
    mask = pattern_mask(num_patterns)
    values = np.zeros((compiled.num_nets, words), dtype=np.uint64)
    values[compiled.pi_rows] = pi_values & mask
    values[compiled.ff_rows] = ff_values & mask
    for out_idx, op, invert, fanins in compiled._ops:
        values[out_idx] = _eval_gate(values, op, invert, fanins, mask)
    return SimResult(compiled, values, num_patterns)


def _eval_gate(
    values: np.ndarray, op: int, invert: bool, fanins: Sequence[int], mask: np.ndarray
) -> np.ndarray:
    return _combine([values[src] for src in fanins], op, invert, mask)
