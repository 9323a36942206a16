"""Reference superposition pruning: the per-fault pairwise loop.

This is the original implementation of Bayraktaroglu & Orailoglu's
superposition step, kept verbatim as the oracle for
:func:`repro.core.superposition.superposition_prune_population`.  It
compares every pair of failing sessions of one fault, so it is O(S²) in
the failing-session count and reads the signatures as Python ints.

Known difference from the production kernel: with a single collapsed
signature column (``channel_resolution=False``) on a multi-chain scan,
this loop prunes only mask row 0; the kernel prunes every chain.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bist.session import SessionOutcome
from repro.core.partitions import Partition


def superposition_prune(
    partitions: Sequence[Partition],
    outcomes: Sequence[SessionOutcome],
    candidate_mask: np.ndarray,
    max_rounds: int = 4,
) -> np.ndarray:
    """Refine a candidate mask ``[chain, position]`` using derived
    (superposed) signatures.

    ``outcomes`` must carry real MISR error signatures — the exact
    (alias-free) session mode collapses all failing signatures to 1 and
    would erase the information this pruning relies on.
    """
    _require_real_signatures(outcomes)
    mask = candidate_mask.copy()
    # Failing sessions grouped by channel: only same-channel signatures are
    # comparable (different channels inject at different MISR stages, and
    # their error streams have disjoint support — equal nonzero signatures
    # across channels could only be aliasing).
    by_channel: Dict[int, List[Tuple[int, np.ndarray, int]]] = {}
    for part_idx, (part, outcome) in enumerate(zip(partitions, outcomes)):
        for group, channel in outcome.failing_pairs:
            members = part.group_of == group
            by_channel.setdefault(channel, []).append(
                (part_idx, members, outcome.signatures[group][channel])
            )
    for _round in range(max_rounds):
        changed = False
        for channel, sessions in by_channel.items():
            for i in range(len(sessions)):
                part_i, members_i, sig_i = sessions[i]
                for j in range(i + 1, len(sessions)):
                    part_j, members_j, sig_j = sessions[j]
                    if part_i == part_j:
                        # Groups of one partition are disjoint; their XOR
                        # covers the union and can only be zero through
                        # aliasing.
                        continue
                    if sig_i != sig_j:
                        continue
                    difference = np.logical_xor(members_i, members_j)
                    if (mask[channel] & difference).any():
                        mask[channel] &= ~difference
                        changed = True
        if not changed:
            break
    return mask


def _require_real_signatures(outcomes: Sequence[SessionOutcome]) -> None:
    # Exact-mode outcomes use the placeholder signature 1 for every failing
    # (group, channel); two or more distinct nonzero signatures cannot occur
    # then.
    nonzero = {
        sig
        for outcome in outcomes
        for per_channel in outcome.signatures
        for sig in per_channel
        if sig != 0
    }
    if nonzero and nonzero == {1}:
        raise ValueError(
            "superposition pruning needs MISR signatures; run diagnosis with "
            "a LinearCompactor instead of exact mode"
        )
