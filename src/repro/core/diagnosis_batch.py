"""Population diagnosis: diagnose every fault in one scatter.

Per-fault diagnosis would loop hundreds of tiny numpy launches over the
fault population, whose Python dispatch dominates once fault simulation
itself is batched.  This kernel fuses the population axis:

1. every fault's :class:`~repro.bist.session.ErrorEvents` are extracted in
   one ``np.nonzero`` (:func:`~repro.bist.session.collect_population_events`),
2. one ``batch_impulse_responses`` call covers every event of every fault,
3. one ``np.bitwise_xor.at`` scatter fills the whole
   ``(fault, partition, group, channel)`` signature tensor (exact mode is a
   boolean scatter),
4. one running mask, ANDed in place with each partition's failing groups
   (:func:`intersect_partitions`), yields every candidate mask and history.

The result is one :class:`~repro.core.diagnosis.DiagnosisPopulation`
holding those arrays; DR and superposition read them directly, and
indexing it builds a per-fault :class:`~repro.core.diagnosis.DiagnosisResult`
only for the callers that want one.

With ``workers > 1`` and at least :data:`MIN_CHUNK_FAULTS` faults for
each of two or more workers, the population splits into contiguous
chunks of at least that size, one per worker, that run on the fork pool
(:func:`repro.parallel.parallel_map`); each chunk's population arrays
ship back as they are and are concatenated in fault order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..bist.session import collect_population_events
from ..parallel import parallel_map, resolve_workers
from ..sim.bitops import popcount_rows
from ..sim.faultsim import FaultResponse
from ..telemetry import METRICS, span
from .diagnosis import CellSets, DiagnosisPopulation
from .partitions import Partition, validate_partition_set

#: Fewest faults a forked chunk gets: a fresh pool plus shipping a chunk's
#: arrays back costs more than half the kernel's ~20-45 us per fault, so
#: on 2 vCPUs a split of s953 breaks even only near 3200 faults.
MIN_CHUNK_FAULTS = 2048


def diagnose_population(
    responses: Sequence[FaultResponse],
    scan_config: ScanConfig,
    partitions: Sequence[Partition],
    compactor: Optional[LinearCompactor] = None,
    channel_resolution: bool = True,
    workers: Optional[int] = None,
) -> DiagnosisPopulation:
    """Diagnose a whole fault population.

    ``compactor=None`` uses exact (alias-free) session verdicts; otherwise
    the compactor's ``batch_impulse_responses`` models the MISR.
    Responses may differ in pattern count.  The result is identical for
    any worker count.
    """
    responses = list(responses)
    partitions = list(partitions)
    validate_partition_set(partitions)
    if partitions[0].length != scan_config.max_length:
        raise ValueError(
            f"partition length {partitions[0].length} != scan configuration "
            f"length {scan_config.max_length}"
        )
    num_chunks = min(resolve_workers(workers), len(responses) // MIN_CHUNK_FAULTS)
    if num_chunks > 1:
        bounds = np.linspace(0, len(responses), num_chunks + 1).astype(int)
        chunks = parallel_map(
            lambda c: _diagnose_chunk(
                responses[bounds[c]:bounds[c + 1]], scan_config, partitions,
                compactor, channel_resolution,
            ),
            num_chunks,
            num_chunks,
            min_items=2,
        )
        return DiagnosisPopulation.concat(chunks, partitions)
    return _diagnose_chunk(
        responses, scan_config, partitions, compactor, channel_resolution
    )


def scatter_population_signatures(
    tensor: np.ndarray,
    fault_of: np.ndarray,
    event_groups: np.ndarray,
    event_channels: Optional[np.ndarray],
    contributions: Optional[np.ndarray],
) -> np.ndarray:
    """One scatter for every event of every fault of every partition.

    ``tensor`` is the ``(fault, partition, group, channel)`` ``uint64``
    signature accumulator (modified in place); ``event_groups[p, e]`` is
    event ``e``'s group under partition ``p``; ``fault_of`` maps events to
    population indices.  ``event_channels=None`` means a single-channel
    layout (the failing-vector scheme).  ``contributions=None`` selects the
    exact (alias-free) boolean scatter; otherwise the per-event impulse
    responses XOR-accumulate.  Shared by the failing-cell and
    failing-vector fused kernels.
    """
    num_faults, num_parts, max_groups, num_channels = tensor.shape
    if event_groups.size == 0:
        return tensor
    flat = tensor.reshape(-1)
    index = (
        (fault_of[np.newaxis, :] * num_parts
         + np.arange(num_parts)[:, np.newaxis]) * (max_groups * num_channels)
        + event_groups * num_channels
    )
    if event_channels is not None:
        index = index + event_channels[np.newaxis, :]
    index = index.ravel()
    if contributions is None:
        flat[index] = np.uint64(1)
    else:
        np.bitwise_xor.at(flat, index, np.tile(contributions, num_parts))
    return tensor


def intersect_partitions(
    failing: np.ndarray, partitions: Sequence[Partition], start_mask: np.ndarray
):
    """AND each partition's failing groups, spread over their positions,
    into ``start_mask``, one partition after another.

    ``failing`` is ``[partition, fault, ..., group]`` and ``start_mask``
    is ``[..., position]``; the middle axes broadcast.  Returns the final
    mask ``[fault, ..., position]`` and ``history[partition, fault]``, the
    candidate count after each partition.

    Masks are bit-packed along positions (one ``uint64`` word per 64
    positions).  A partition's failing positions are the OR of its
    failing groups' packed member bytes
    (:attr:`~repro.core.partitions.Partition.packed_members`); the groups'
    bits are disjoint, so the OR is a sum, and one float32 matmul per
    population computes it exactly (every sum is an integer below 256).
    One cumulative AND over the partition axis then gives the mask after
    every partition, and one popcount gives every history entry.
    """
    num_parts, num_faults = failing.shape[:2]
    num_groups, length = failing.shape[-1], start_mask.shape[-1]
    width = -(-length // 64) * 8  # bytes per packed row, whole words
    members = np.zeros((num_parts, num_groups, width), dtype=np.float32)
    for p, part in enumerate(partitions):
        members[p, : part.num_groups] = part.packed_members
    rows = np.ascontiguousarray(failing, dtype=np.float32).reshape(
        num_parts, int(np.prod(failing.shape[1:-1])), num_groups)
    spread = (rows @ members).astype(np.uint8).view(np.uint64).reshape(
        failing.shape[:-1] + (width // 8,))
    packed = np.packbits(start_mask, axis=-1, bitorder="little")
    start = np.zeros(packed.shape[:-1] + (width,), dtype=np.uint8)
    start[..., : packed.shape[-1]] = packed
    start = start.view(np.uint64)
    masks = np.bitwise_and.accumulate(spread & start, axis=0)
    history = popcount_rows(
        masks.reshape(num_parts * num_faults, start.size)
    ).reshape(num_parts, num_faults)
    unpacked = np.unpackbits(masks[-1].view(np.uint8), axis=-1, count=length,
                             bitorder="little")
    return unpacked.view(bool), history


def _diagnose_chunk(
    responses: Sequence[FaultResponse],
    scan_config: ScanConfig,
    partitions: List[Partition],
    compactor: Optional[LinearCompactor],
    channel_resolution: bool,
) -> DiagnosisPopulation:
    """The kernel proper: one chunk of faults in a handful of ops."""
    num_faults = len(responses)
    num_parts = len(partitions)
    num_channels = scan_config.num_chains
    max_groups = max(part.num_groups for part in partitions)

    with span("diagnose.batch_kernel", faults=num_faults,
              partitions=num_parts) as sp:
        population = collect_population_events(responses, scan_config)
        events = population.events
        METRICS.incr("diagnosis.batch_kernel_calls")
        METRICS.incr("diagnosis.batch_faults", num_faults)
        METRICS.observe("diagnosis.chunk_faults", num_faults)
        METRICS.observe("diagnosis.events_per_launch", len(events))
        METRICS.gauge("diagnosis.last_events_per_launch", len(events))
        sp.add("events", len(events))

        exact = compactor is None
        if exact:
            contributions = None
        else:
            patterns = np.array([r.num_patterns for r in responses], dtype=np.int64)
            total_cycles = scan_config.total_cycles(patterns)[population.fault_of]
            steps = total_cycles - 1 - events.cycles
            if np.any(steps < 0) or np.any(events.cycles < 0):
                raise ValueError("event cycle outside its session")
            contributions = compactor.batch_impulse_responses(
                events.channels, steps
            )

        tensor = np.zeros(
            (num_faults, num_parts, max_groups, num_channels), dtype=np.uint64
        )
        if len(events):
            group_stack = np.stack(
                [np.asarray(part.group_of) for part in partitions]
            )
            scatter_population_signatures(
                tensor, population.fault_of,
                group_stack[:, events.positions], events.channels,
                contributions,
            )
        METRICS.incr(
            "session.sessions_compacted",
            num_faults * sum(part.num_groups for part in partitions),
        )

        # Failing verdicts as [partition, fault, channel, group] for the
        # running-mask sweep; a collapsed channel axis broadcasts over chains.
        if channel_resolution:
            signatures = tensor
            failing = (tensor != 0).transpose(1, 0, 3, 2)
        else:
            if exact:
                collapsed = (tensor != 0).any(axis=3).astype(np.uint64)
            elif num_channels:
                collapsed = np.bitwise_xor.reduce(tensor, axis=3)
            else:
                collapsed = np.zeros(
                    (num_faults, num_parts, max_groups), dtype=np.uint64
                )
            signatures = collapsed[..., np.newaxis]
            failing = (collapsed != 0).transpose(1, 0, 2)[:, :, np.newaxis]
        presence = scan_config.presence_mask()
        masks, history = intersect_partitions(failing, partitions, presence)
        grid = scan_config.cell_id_grid()
        flat = np.flatnonzero(masks)  # [fault, chain, position] order
        candidates = CellSets(
            grid.reshape(-1)[flat % grid.size],
            np.searchsorted(flat, np.arange(num_faults + 1) * grid.size),
        )
        actual = CellSets.from_lists([r.failing_cells for r in responses])

    return DiagnosisPopulation(
        partitions=partitions,
        signatures=signatures,
        masks=masks,
        history=history,
        candidates=candidates,
        actual=actual,
    )
