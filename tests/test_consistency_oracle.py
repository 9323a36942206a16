"""Exact-mode diagnosis against a brute-force consistency oracle.

After Orvalho et al.'s model-based diagnosis with multiple observations
(PAPERS.md): on a scan small enough to enumerate, a cell set is
*consistent* when simulating it reproduces every observed session
verdict (a session fails iff it observes at least one failing cell).
In exact mode the partition candidates must be exactly the union of all
consistent cell sets — no cell that could explain the observations is
dropped, and no cell that cannot is kept.

The oracle knows nothing of the kernel: it builds each session's cell set
from the chain layout and the partitions' ``group_of`` maps, and checks
every subset of the ≤ 12 cells (≤ 4096 sets).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.scan import ScanConfig
from repro.core.diagnosis_batch import diagnose_population
from repro.core.partitions import Partition
from repro.sim.bitops import pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse

NUM_PATTERNS = 8


@st.composite
def tiny_diagnosis(draw):
    """A scan of ≤ 12 cells on 1–3 chains, 1–4 partitions of its shift
    positions, and 1–3 faults' error responses."""
    num_cells = draw(st.integers(1, 12))
    num_chains = draw(st.integers(1, min(3, num_cells)))
    order = draw(st.permutations(range(num_cells)))
    cuts = sorted(draw(st.lists(st.integers(1, num_cells - 1),
                                min_size=num_chains - 1,
                                max_size=num_chains - 1, unique=True))
                  ) if num_chains > 1 else []
    bounds = [0] + cuts + [num_cells]
    chains = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    length = max(len(chain) for chain in chains)
    partitions = []
    for _ in range(draw(st.integers(1, 4))):
        groups = draw(st.integers(1, 4))
        group_of = draw(st.lists(st.integers(0, groups - 1),
                                 min_size=length, max_size=length))
        partitions.append(Partition(np.array(group_of), groups))
    responses = []
    for index in range(draw(st.integers(1, 3))):
        failing = draw(st.sets(st.integers(0, num_cells - 1)))
        cell_errors = {}
        for cell in failing:
            bits = draw(st.lists(st.booleans(), min_size=NUM_PATTERNS,
                                 max_size=NUM_PATTERNS).filter(any))
            cell_errors[cell] = pack_bits([int(b) for b in bits])
        responses.append(FaultResponse(Fault(f"f{index}", 0), cell_errors,
                                       NUM_PATTERNS))
    return ScanConfig(chains), partitions, responses, draw(st.booleans())


def session_cells(scan, partitions, channel_resolution):
    """Boolean ``[session, cell]``: which cells each session observes,
    sessions in the kernel's ``(partition, group, channel)`` order (one
    channel spanning every chain without channel resolution)."""
    channels = range(scan.num_chains) if channel_resolution else [None]
    max_groups = max(part.num_groups for part in partitions)
    sessions = np.zeros((len(partitions), max_groups, len(channels),
                         scan.num_cells), dtype=bool)
    for p, part in enumerate(partitions):
        for w, chain in enumerate(scan.chains):
            for position, cell in enumerate(chain):
                c = w if channel_resolution else 0
                sessions[p, part.group_of[position], c, cell] = True
    return sessions.reshape(-1, scan.num_cells)


def consistent_union(sessions, observed):
    """Union of every cell set whose simulated verdicts equal ``observed``."""
    num_cells = sessions.shape[1]
    subsets = (np.arange(2 ** num_cells)[:, np.newaxis]
               >> np.arange(num_cells)) & 1
    verdicts = (subsets @ sessions.T.astype(np.int64)) > 0
    consistent = (verdicts == observed).all(axis=1)
    return {int(c) for c in np.flatnonzero(subsets[consistent].any(axis=0))}


@settings(max_examples=150, deadline=None)
@given(case=tiny_diagnosis())
def test_exact_candidates_are_the_union_of_consistent_cell_sets(case):
    scan, partitions, responses, channel_resolution = case
    population = diagnose_population(
        responses, scan, partitions, None,
        channel_resolution=channel_resolution, workers=0,
    )
    sessions = session_cells(scan, partitions, channel_resolution)
    for f, response in enumerate(responses):
        observed = population.signatures[f].reshape(-1) != 0
        actual = np.zeros(scan.num_cells, dtype=bool)
        actual[response.failing_cells] = True
        # The kernel's verdicts are the simulated verdicts of the truly
        # failing cells ...
        np.testing.assert_array_equal(observed, (sessions @ actual) > 0)
        # ... and its candidates are exactly what those verdicts allow.
        assert population[f].candidate_cells == consistent_union(
            sessions, observed)
