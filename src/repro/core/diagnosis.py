"""Diagnosis results: multi-session, multi-partition failing-cell identification.

Ties together the fault response (which cells captured errors, under which
patterns), the scan configuration (where each cell sits in the shift
sequence), the partition set (which cells each session observes) and the
compactor (whether a session's signature reveals the errors).

Candidate pruning is the classical inclusion/exclusion: a cell remains a
candidate iff its ``(group, chain)`` signature failed in *every* partition.
The kernel that computes it for a whole fault population is
:func:`repro.core.diagnosis_batch.diagnose_population`; it returns one
:class:`DiagnosisPopulation` of arrays, and :class:`DiagnosisResult` is
the per-fault view built from it on demand.  The optional superposition
post-processing of [7] is in :mod:`repro.core.superposition`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Set, Union

import numpy as np

from ..bist.misr import LinearCompactor
from ..bist.scan import ScanConfig
from ..bist.session import SessionOutcome
from ..sim.faultsim import FaultResponse
from .partitions import Partition


@dataclass
class DiagnosisResult:
    """Outcome of diagnosing one fault with a partition set."""

    actual_cells: Set[int]
    candidate_cells: Set[int]
    outcomes: List[SessionOutcome]
    partitions: List[Partition]
    candidate_history: List[int] = field(default_factory=list)
    #: Candidate mask ``[chain, position]`` after intersection pruning
    #: (pre-superposition); None-presence positions are always False.
    position_mask: Optional[np.ndarray] = None

    @property
    def detected(self) -> bool:
        return bool(self.actual_cells)

    @property
    def sound(self) -> bool:
        """True if no truly failing cell was pruned (soundness can only be
        violated by MISR aliasing)."""
        return self.actual_cells <= self.candidate_cells

    @property
    def num_sessions(self) -> int:
        return sum(p.num_groups for p in self.partitions)


class CellSets(NamedTuple):
    """One cell set per fault in compressed-row form: fault ``f``'s cells
    are ``cells[bounds[f]:bounds[f + 1]]``."""

    cells: np.ndarray
    bounds: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.bounds)

    def of(self, fault: int) -> np.ndarray:
        return self.cells[self.bounds[fault]:self.bounds[fault + 1]]

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "CellSets":
        bounds = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([len(cells) for cells in lists], out=bounds[1:])
        cells = np.fromiter(itertools.chain.from_iterable(lists),
                            dtype=np.int64, count=int(bounds[-1]))
        return cls(cells, bounds)

    @classmethod
    def concat(cls, parts: Sequence["CellSets"]) -> "CellSets":
        offsets = np.cumsum([0] + [part.cells.size for part in parts])
        return cls(
            np.concatenate([part.cells for part in parts]),
            np.concatenate([[0]] + [part.bounds[1:] + offset
                                    for part, offset in zip(parts, offsets)]),
        )


@dataclass(eq=False)
class DiagnosisPopulation:
    """A whole fault population's diagnosis, as the kernel's arrays.

    * ``signatures[fault, partition, group, channel]``: every session's
      error signature (``uint64``; 1/0 flags in exact mode; one collapsed
      channel when ``channel_resolution=False``; zero past a partition's
      ``num_groups``);
    * ``masks[fault, chain, position]``: the final candidate mask;
    * ``history[partition, fault]``: candidate count after each partition;
    * ``candidates`` and ``actual``: per-fault cell sets as
      :class:`CellSets`.

    Population metrics (DR, superposition) read these arrays directly.
    Indexing or iterating builds a :class:`DiagnosisResult` per fault on
    demand, whose outcomes and mask are views into the arrays.
    """

    partitions: List[Partition]
    signatures: np.ndarray
    masks: np.ndarray
    history: np.ndarray
    candidates: CellSets
    actual: CellSets

    def __len__(self) -> int:
        return int(self.masks.shape[0])

    def __getitem__(self, index: int) -> DiagnosisResult:
        f = range(len(self))[index]
        return DiagnosisResult(
            actual_cells=set(self.actual.of(f).tolist()),
            candidate_cells=set(self.candidates.of(f).tolist()),
            outcomes=[
                SessionOutcome(signature_matrix=self.signatures[f, p, : part.num_groups])
                for p, part in enumerate(self.partitions)
            ],
            partitions=self.partitions,
            candidate_history=self.history[:, f].tolist(),
            position_mask=self.masks[f],
        )

    def __iter__(self) -> Iterator[DiagnosisResult]:
        return (self[f] for f in range(len(self)))

    @property
    def num_sessions(self) -> int:
        return sum(part.num_groups for part in self.partitions)

    @classmethod
    def concat(cls, parts: Sequence["DiagnosisPopulation"],
               partitions: List[Partition]) -> "DiagnosisPopulation":
        """Populations of consecutive fault ranges, joined in order."""
        return cls(
            partitions=partitions,
            signatures=np.concatenate([p.signatures for p in parts]),
            masks=np.concatenate([p.masks for p in parts]),
            history=np.concatenate([p.history for p in parts], axis=1),
            candidates=CellSets.concat([p.candidates for p in parts]),
            actual=CellSets.concat([p.actual for p in parts]),
        )

    @classmethod
    def from_results(cls, results: Sequence[DiagnosisResult]) -> "DiagnosisPopulation":
        """Restack per-fault results that share one partition list and
        signature layout (the inverse of indexing)."""
        partitions = results[0].partitions
        signatures = np.zeros(
            (len(results), len(partitions),
             max(part.num_groups for part in partitions),
             results[0].outcomes[0].num_channels),
            dtype=np.uint64,
        )
        for f, result in enumerate(results):
            for p, outcome in enumerate(result.outcomes):
                signatures[f, p, : outcome.num_groups] = outcome.signature_matrix
        return cls(
            partitions=partitions,
            signatures=signatures,
            masks=np.stack([result.position_mask for result in results]),
            history=np.array([result.candidate_history for result in results],
                             dtype=np.int64).T,
            candidates=CellSets.from_lists(
                [sorted(result.candidate_cells) for result in results]),
            actual=CellSets.from_lists(
                [sorted(result.actual_cells) for result in results]),
        )


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
    Figure 5 sweeps, at no extra simulation cost.  This is the one-fault
    form of :func:`repro.core.diagnosis_batch.diagnose_population`.
    """
    from .diagnosis_batch import diagnose_population

    return diagnose_population(
        [response], scan_config, partitions, compactor,
        channel_resolution=channel_resolution, workers=0,
    )[0]


Results = Union[DiagnosisPopulation, Sequence[DiagnosisResult]]


def _detected_counts(results: Results):
    """Candidate counts ``[fault]`` and candidate histories
    ``[fault, partition]`` of the detected faults, and the actual-cell
    total the DR metrics divide by.

    A list of results is read into the same arrays a population holds
    (a shorter history is padded with its last count).  Both DR metrics
    score only detected faults against the same denominator, so the
    filter and the sum are computed once and shared.
    """
    if isinstance(results, DiagnosisPopulation):
        actual = results.actual.counts
        detected = actual > 0
        candidates = results.candidates.counts[detected]
        histories = results.history[:, detected].T
    else:
        detected_results = [result for result in results if result.detected]
        actual = np.array([len(r.actual_cells) for r in detected_results],
                          dtype=np.int64)
        candidates = np.array([len(r.candidate_cells) for r in detected_results],
                              dtype=np.int64)
        rows = [list(r.candidate_history) for r in detected_results]
        width = max(map(len, rows), default=0)
        histories = np.array(
            [row + row[-1:] * (width - len(row)) for row in rows], dtype=np.int64
        ).reshape(len(rows), width)
    total_actual = int(actual.sum())
    if total_actual == 0:
        raise ValueError("no detected faults in the result set")
    return candidates, histories, total_actual


def diagnostic_resolution(results: Results) -> float:
    """The paper's DR metric over a fault population:

    ``DR = (Σ_f |candidates| − Σ_f |actual|) / Σ_f |actual|``

    computed over *detected* faults (undetected faults produce no failing
    cells and no failing sessions).  DR = 0 is ideal.
    """
    candidates, _, total_actual = _detected_counts(results)
    return (int(np.sum(candidates)) - total_actual) / total_actual


def dr_by_partition_count(results: Results, max_partitions: int) -> List[float]:
    """DR after 1, 2, ..., ``max_partitions`` partitions (prefix sweep)."""
    _, histories, total_actual = _detected_counts(results)
    last = histories.shape[1] - 1
    totals = [int(histories[:, min(k, last)].sum()) for k in range(max_partitions)]
    return [(total - total_actual) / total_actual for total in totals]


def partitions_to_reach_dr(
    results: Results,
    target_dr: float,
    max_partitions: int,
) -> Optional[int]:
    """Smallest partition count whose prefix DR is at most ``target_dr``
    (paper Figure 5); ``None`` if the target is never reached."""
    sweep = dr_by_partition_count(results, max_partitions)
    for count, dr in enumerate(sweep, start=1):
        if dr <= target_dr:
            return count
    return None
