"""Partition abstraction: a disjoint grouping of the scan (shift) positions.

A partition assigns every shift position ``0 .. length-1`` to exactly one of
``num_groups`` groups.  One BIST session is spent per group; group sizes may
be uneven (both the random-selection and the interval-based schemes of the
paper produce uneven groups), and groups may be empty (an interval partition
whose drawn lengths cover the chain early leaves trailing groups empty —
their sessions trivially pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence

import numpy as np


class PartitionError(ValueError):
    """Raised on malformed partitions."""


@dataclass(frozen=True)
class Partition:
    """``group_of[p]`` is the group index of shift position ``p``."""

    group_of: np.ndarray
    num_groups: int
    scheme: str = "unspecified"

    def __post_init__(self) -> None:
        groups = np.asarray(self.group_of)
        if groups.ndim != 1 or groups.size == 0:
            raise PartitionError("group_of must be a non-empty 1-D array")
        if self.num_groups < 1:
            raise PartitionError("num_groups must be positive")
        if groups.min() < 0 or groups.max() >= self.num_groups:
            raise PartitionError("group indices out of range")
        object.__setattr__(self, "group_of", groups.astype(np.int32))

    @property
    def length(self) -> int:
        return int(self.group_of.size)

    @cached_property
    def packed_members(self) -> np.ndarray:
        """``[group, byte]``: each group's positions as little-endian
        packed bits, rows padded to whole 64-bit words (built once per
        partition; the diagnosis kernel's intersection reads it)."""
        onehot = np.zeros((self.num_groups, -(-self.length // 64) * 64), dtype=bool)
        onehot[self.group_of, np.arange(self.length)] = True
        return np.packbits(onehot, axis=1, bitorder="little")

    def members(self, group: int) -> np.ndarray:
        """Shift positions belonging to ``group`` (sorted)."""
        return np.flatnonzero(self.group_of == group)

    def group_sizes(self) -> List[int]:
        counts = np.bincount(self.group_of, minlength=self.num_groups)
        return [int(c) for c in counts]

    def is_interval_partition(self) -> bool:
        """True iff every group is a single run of consecutive positions."""
        changes = int(np.count_nonzero(np.diff(self.group_of)))
        nonempty = sum(1 for s in self.group_sizes() if s)
        return changes == nonempty - 1

    def as_intervals(self) -> List[tuple]:
        """``(group, start, end_exclusive)`` runs in position order."""
        runs = []
        start = 0
        groups = self.group_of
        for p in range(1, self.length + 1):
            if p == self.length or groups[p] != groups[start]:
                runs.append((int(groups[start]), start, p))
                start = p
        return runs


def validate_partition_set(partitions: Sequence[Partition]) -> None:
    """Check a diagnosis partition set is self-consistent (equal lengths)."""
    if not partitions:
        raise PartitionError("empty partition set")
    length = partitions[0].length
    for part in partitions:
        if part.length != length:
            raise PartitionError("partitions cover different chain lengths")


def candidate_positions(
    partitions: Sequence[Partition], failing_groups: Sequence[Sequence[int]]
) -> np.ndarray:
    """Intersection pruning (inclusion/exclusion over sessions).

    A position survives iff, in *every* partition, its group is among that
    partition's failing groups.  Returns a boolean mask over positions.
    """
    validate_partition_set(partitions)
    if len(failing_groups) != len(partitions):
        raise PartitionError("failing_groups must align with partitions")
    mask = np.ones(partitions[0].length, dtype=bool)
    for part, failing in zip(partitions, failing_groups):
        failing_set = np.zeros(part.num_groups, dtype=bool)
        for g in failing:
            failing_set[g] = True
        mask &= failing_set[part.group_of]
    return mask
