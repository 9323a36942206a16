"""Reference diagnosis: the per-fault session loop.

The original one-fault diagnosis body, kept verbatim as the oracle for the
population kernel (:func:`repro.core.diagnosis_batch.diagnose_population`).
It extracts one fault's error events, scatters them into every partition's
``(group, channel)`` signatures, and intersects the failing groups one
partition at a time.  Compactors that implement only the scalar
``impulse_response`` protocol go through the per-event session loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import (
    ErrorEvents,
    SessionOutcome,
    collect_error_event_arrays,
    event_contributions,
    run_partition_sessions,
)
from repro.core.diagnosis import DiagnosisResult
from repro.core.partitions import Partition, validate_partition_set
from repro.sim.faultsim import FaultResponse
from repro.telemetry import METRICS


def diagnose(
    response: FaultResponse,
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor] = None,
    channel_resolution: bool = True,
) -> DiagnosisResult:
    """Run all sessions of all partitions and intersect failing groups.

    ``compactor=None`` uses exact (alias-free) group pass/fail decisions;
    passing a :class:`LinearCompactor` models the real MISR comparison.

    ``channel_resolution=False`` collapses each session's per-chain
    signatures into one (a single shared MISR readout): cells sharing a
    shift position across chains then always stay together — the ablation
    quantifies what that costs.

    The result's ``candidate_history[k]`` is the candidate-cell count after
    the first ``k+1`` partitions — the data behind the paper's Table 1 and
    Figure 5 sweeps, at no extra simulation cost.
    """
    partitions = list(partitions)
    validate_partition_set(partitions)
    length = partitions[0].length
    if length != scan_config.max_length:
        raise ValueError(
            f"partition length {length} != scan configuration length "
            f"{scan_config.max_length}"
        )
    events = collect_error_event_arrays(response, scan_config)
    total_cycles = scan_config.total_cycles(response.num_patterns)
    num_channels = scan_config.num_chains

    # Impulse responses depend only on (channel, cycle), never on the
    # partition, so one batch evaluation and one signature scatter serve
    # every session of every partition.
    batched = compactor is None or hasattr(compactor, "batch_impulse_responses")
    if batched:
        contributions = event_contributions(events, compactor, total_cycles)
        session_outcomes = sessions_for_partitions(
            events, contributions, partitions, num_channels
        )
    else:
        session_outcomes = [
            run_partition_sessions(
                events,
                part.group_of,
                part.num_groups,
                total_cycles,
                compactor,
                num_channels=num_channels,
            )
            for part in partitions
        ]

    outcomes: List[SessionOutcome] = []
    mask = scan_config.presence_mask()  # [chain, position]
    history: List[int] = []
    for part, outcome in zip(partitions, session_outcomes):
        if not channel_resolution:
            collapsed = outcome.combined(exact=compactor is None)
            failing = collapsed.failing_matrix(1)[:, 0]  # [group]
            mask &= failing[part.group_of][np.newaxis, :]
            outcomes.append(collapsed)
        else:
            failing = outcome.failing_matrix(num_channels)  # [group, channel]
            mask &= failing[part.group_of, :].T  # -> [chain, position]
            outcomes.append(outcome)
        history.append(int(mask.sum()))

    candidates = _cells_from_mask(scan_config, mask)
    return DiagnosisResult(
        actual_cells=set(response.failing_cells),
        candidate_cells=candidates,
        outcomes=outcomes,
        partitions=partitions,
        candidate_history=history,
        position_mask=mask,
    )


def _cells_from_mask(scan_config: ScanConfig, mask: np.ndarray) -> Set[int]:
    grid = scan_config.cell_id_grid()
    return set(int(c) for c in grid[mask & (grid >= 0)])


def sessions_for_partitions(
    events: ErrorEvents,
    contributions: Optional[np.ndarray],
    partitions: Sequence,
    num_channels: int,
) -> List[SessionOutcome]:
    """All partitions' sessions of one fault in a single bucketed pass.

    The per-event contributions are partition-independent, so the whole
    ``(partition, group, channel)`` signature tensor accumulates with one
    scatter instead of one kernel launch per partition.
    """
    num_parts = len(partitions)
    max_groups = max(part.num_groups for part in partitions)
    METRICS.incr("session.batch_kernel_calls")
    METRICS.incr(
        "session.sessions_compacted",
        sum(part.num_groups for part in partitions),
    )
    tensor = np.zeros((num_parts, max_groups, num_channels), dtype=np.uint64)
    if len(events):
        group_stack = np.stack([np.asarray(part.group_of) for part in partitions])
        groups = group_stack[:, events.positions]  # [partition, event]
        flat_index = (
            np.arange(num_parts)[:, np.newaxis] * (max_groups * num_channels)
            + groups * num_channels
            + events.channels[np.newaxis, :]
        ).ravel()
        flat = tensor.reshape(-1)
        if contributions is None:
            flat[flat_index] = np.uint64(1)
        else:
            np.bitwise_xor.at(flat, flat_index, np.tile(contributions, num_parts))
    return [
        SessionOutcome(signature_matrix=tensor[k, : part.num_groups, :])
        for k, part in enumerate(partitions)
    ]
