"""Reference fault simulation: the event-driven single-fault loop.

The original per-fault kernel, kept verbatim as the oracle for the
fault-batched SoA cone kernel (:mod:`repro.sim.faultsim_batch`).  For one
fault it re-evaluates only the gates whose fanins changed, in
topological order, against the fault-free values of everything else.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Set

import numpy as np

from repro.sim.bitops import any_bit
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse, FaultSimulator
from repro.sim.logicsim import _combine


def simulate_fault(simulator: FaultSimulator, fault: Fault) -> FaultResponse:
    """Compute the error matrix of one fault over all patterns."""
    compiled = simulator.compiled
    good_values = simulator.good.values
    mask = simulator._mask
    words = good_values.shape[1]

    faulty: Dict[int, np.ndarray] = {}

    stuck_vec = mask.copy() if fault.stuck_at == 1 else np.zeros(words, np.uint64)
    if fault.pin is None:
        # Stem fault: the net itself takes the stuck value everywhere.
        net_idx = compiled.net_index[fault.net]
        if not any_bit(good_values[net_idx] ^ stuck_vec):
            return simulator._response(fault, {})
        faulty[net_idx] = stuck_vec
        frontier = [net_idx]
    else:
        # Branch fault: only the one gate sees the stuck value.
        gate_out, fanin_pos = fault.pin
        gate_idx = compiled.net_index[gate_out]
        new_val = compiled.evaluate_net_with_forced_fanin(
            good_values, gate_idx, fanin_pos, stuck_vec, mask
        )
        if not any_bit(new_val ^ good_values[gate_idx]):
            return simulator._response(fault, {})
        faulty[gate_idx] = new_val
        frontier = [gate_idx]

    # Event-driven propagation in topological order.  A simple sorted
    # frontier (by compiled net index, which is topological) guarantees
    # each gate is evaluated after all of its changed fanins.
    pending: Set[int] = set()
    for start in frontier:
        for succ in simulator._fanout.get(start, ()):
            pending.add(succ)
    schedule = sorted(pending)
    pos = 0
    scheduled = set(schedule)
    while pos < len(schedule):
        net_idx = schedule[pos]
        pos += 1
        scheduled.discard(net_idx)
        new_val = _eval_with_overrides(simulator, net_idx, faulty)
        old_val = faulty.get(net_idx, good_values[net_idx])
        if not any_bit(new_val ^ old_val):
            continue
        if any_bit(new_val ^ good_values[net_idx]):
            faulty[net_idx] = new_val
        else:
            faulty.pop(net_idx, None)
        for succ in simulator._fanout.get(net_idx, ()):
            if succ not in scheduled:
                # Insert keeping the schedule sorted: succ > net_idx is
                # guaranteed by topological indexing, so appending then
                # re-sorting the tail keeps correctness; binary insert.
                _insort(schedule, succ, pos)
                scheduled.add(succ)

    # Collect captured errors at scan cells.
    cell_errors: Dict[int, np.ndarray] = {}
    for net_idx, val in faulty.items():
        cells = simulator._capture_cells.get(net_idx)
        if not cells:
            continue
        diff = (val ^ good_values[net_idx]) & mask
        if not any_bit(diff):
            continue
        for cell_pos in cells:
            cell_errors[cell_pos] = diff.copy()
    return simulator._response(fault, cell_errors)


def _eval_with_overrides(
    simulator: FaultSimulator, net_idx: int, overrides: Dict[int, np.ndarray]
) -> np.ndarray:
    _out, op, invert, fanins = simulator.compiled.gate_op(net_idx)
    if not any(src in overrides for src in fanins):
        return simulator.good.values[net_idx]
    operands = [overrides.get(src, simulator.good.values[src]) for src in fanins]
    return _combine(operands, op, invert, simulator._mask)


def _insort(schedule: List[int], value: int, lo: int) -> None:
    """Insert ``value`` into the sorted tail ``schedule[lo:]``."""
    idx = bisect.bisect_left(schedule, value, lo=lo)
    schedule.insert(idx, value)
