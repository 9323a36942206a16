"""Superposition-based candidate pruning (Bayraktaroglu & Orailoglu [7]).

The MISR is linear, so the XOR of two sessions' *error signatures* on the
same response channel is the error signature of the errors in the
**symmetric difference** of the two sessions' cell sets.  Equal signatures
(aliasing probability ``2**-width``) thus exonerate every candidate in that
difference at no extra test cost.  Only pairs from different partitions
count: groups of one partition are disjoint, as are channels' supports.

Which pairs qualify depends on the signatures alone, never on the mask, so
one pass is already the fixed point, and it has a closed form.  Group a
fault's failing sessions into classes of equal (channel, signature).  A
position lies in one group per partition, so its *coverage* by a class is
the number of partitions whose session there is in the class.  A class
spanning two or more partitions prunes exactly the positions with
``0 < coverage < class size``; one confined to a partition prunes nothing.
A collapsed signature (``channel_resolution=False``) prunes every chain.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..bist.scan import ScanConfig
from .diagnosis import DiagnosisResult, _cells_from_mask


def superposition_prune_population(
    results: Sequence[DiagnosisResult], scan_config: ScanConfig
) -> List[DiagnosisResult]:
    """Superposition-prune a whole result population at once, returning new
    :class:`DiagnosisResult` objects.

    Exact-mode results (every nonzero signature is 1) carry no MISR
    signatures to compare and are rejected.
    """
    results = list(results)
    if any(result.position_mask is None for result in results):
        raise ValueError("result carries no position mask")
    if len({(tuple(map(id, r.partitions)), r.outcomes[0].num_channels)
            for r in results}) > 1:
        # One kernel call needs one partition list and signature layout.
        return [superposition_prune_population([r], scan_config)[0] for r in results]
    if not results:
        return []
    masks = np.stack([result.position_mask for result in results])
    # Entries are all cells (masks are False off-chain); flat scan: ~5x faster.
    entries = np.unravel_index(np.flatnonzero(masks), masks.shape)
    keep = ~_pruned_entries(results, masks.shape[1], entries)
    masks[entries] = keep
    fault_idx, chain_idx, pos_idx = (index[keep] for index in entries)
    cells = scan_config.cell_id_grid()[chain_idx, pos_idx]
    bounds = np.searchsorted(fault_idx, np.arange(len(results) + 1))
    return [
        DiagnosisResult(
            actual_cells=set(result.actual_cells),
            candidate_cells={int(c) for c in cells[bounds[f]:bounds[f + 1]]},
            outcomes=list(result.outcomes),
            partitions=list(result.partitions),
            candidate_history=list(result.candidate_history),
            position_mask=masks[f],
        )
        for f, result in enumerate(results)
    ]


def apply_superposition(
    result: DiagnosisResult, scan_config: ScanConfig, max_rounds: int = 4
) -> DiagnosisResult:
    """One-result form of :func:`superposition_prune_population`.
    ``max_rounds`` is kept for API compatibility: 0 skips pruning, and any
    value >= 1 gives the same one-pass result."""
    pruned = superposition_prune_population([result], scan_config)[0]
    if max_rounds < 1:
        pruned.position_mask = result.position_mask.copy()
        pruned.candidate_cells = _cells_from_mask(scan_config, pruned.position_mask)
    return pruned


def _pruned_entries(results: Sequence[DiagnosisResult], num_chains: int, entries):
    """Boolean over the mask ``entries`` ``(fault, chain, position)``: True
    where the closed form prunes the entry."""
    partitions = results[0].partitions
    num_parts = len(partitions)
    sigs = np.zeros((len(results), num_parts, max(p.num_groups for p in partitions),
                     results[0].outcomes[0].num_channels), dtype=np.uint64)
    for f, result in enumerate(results):
        for p, outcome in enumerate(result.outcomes):
            sigs[f, p, : outcome.num_groups] = outcome.signature_matrix
    if ((sigs != 0).any(axis=(1, 2, 3)) & ~(sigs > 1).any(axis=(1, 2, 3))).any():
        raise ValueError("superposition pruning needs MISR signatures; run "
                         "diagnosis with a LinearCompactor instead of exact mode")
    f, p, g, c = np.nonzero(sigs)
    # Classes of equal (fault, channel, signature); `spans`: over >1 partition.
    values = sigs[f, p, g, c]
    order = np.lexsort((values, c, f))
    f, p, g, c, values = f[order], p[order], g[order], c[order], values[order]
    new_class = np.ones(f.size, dtype=bool)
    new_class[1:] = (f[1:] != f[:-1]) | (c[1:] != c[:-1]) | (values[1:] != values[:-1])
    starts = np.flatnonzero(new_class)
    class_of = np.cumsum(new_class) - 1
    size = np.diff(np.append(starts, f.size))
    spans = np.minimum.reduceat(p, starts) != np.maximum.reduceat(p, starts)
    label = np.full(sigs.shape, -1, dtype=np.int64)
    label[f, p, g, c] = np.where(spans[class_of], class_of, -1)
    # Each mask entry's class per partition -> its coverage by each class.
    ef, ech, ex = entries
    group_stack = np.stack([np.asarray(part.group_of) for part in partitions])
    channel = ech if sigs.shape[3] == num_chains else np.zeros_like(ech)
    labels = label[ef[:, np.newaxis], np.arange(num_parts),
                   group_stack[:, ex].T, channel[:, np.newaxis]]
    entry, slot = np.nonzero(labels >= 0)
    keys, coverage = np.unique(entry * size.size + labels[entry, slot],
                               return_counts=True)
    pruned = keys[coverage < size[keys % size.size]] // size.size
    return np.bincount(pruned, minlength=ef.size) > 0
