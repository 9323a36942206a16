"""The population superposition kernel against the pairwise reference loop,
plus the closed-form corner cases and the soundness property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import SessionOutcome, collect_error_event_arrays
from repro.core.diagnosis import DiagnosisResult, diagnose
from repro.core.diagnosis_batch import diagnose_population
from repro.core.partitions import Partition
from repro.core.superposition import (
    apply_superposition,
    superposition_prune_population,
)
from repro.core.two_step import make_partitioner
from repro.sim.bitops import pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse
from tests.reference.superposition import superposition_prune
from tests.test_properties import build_responses

SCHEMES = ["random", "interval", "two-step", "deterministic"]


def random_population(num_faults, num_cells, seed, num_patterns=8, max_cells=4):
    """Faults with 1..``max_cells`` failing cells, each failing on a few
    random patterns (single-cell faults give equal-signature classes)."""
    rng = np.random.default_rng(seed)
    responses = []
    for index in range(num_faults):
        cells = rng.choice(num_cells, int(rng.integers(1, max_cells + 1)),
                           replace=False)
        cell_errors = {
            int(cell): pack_bits([int(b) for b in rng.integers(0, 2, num_patterns)])
            for cell in cells
        }
        # A cell drawn with no failing pattern captured no error.
        cell_errors = {c: v for c, v in cell_errors.items() if v.any()}
        responses.append(FaultResponse(Fault(f"n{index}", 0), cell_errors,
                                       num_patterns))
    return responses


def population_results(responses, config, scheme, groups=4, count=4, width=16):
    parts = make_partitioner(scheme, config.max_length, groups).partitions(count)
    compactor = LinearCompactor(width, config.num_chains)
    return diagnose_population(responses, config, parts, compactor)


def assert_matches_reference(results, config):
    """Kernel == pairwise loop, mask for mask and cell for cell; returns the
    number of mask entries pruned, so callers can rule out a vacuous run."""
    pruned = superposition_prune_population(results, config)
    assert len(pruned) == len(results)
    removed = 0
    for result, kernel in zip(results, pruned):
        want = superposition_prune(
            result.partitions, result.outcomes, result.position_mask
        )
        np.testing.assert_array_equal(kernel.position_mask, want)
        grid = config.cell_id_grid()
        cells = {int(c) for c in grid[want & (grid >= 0)]}
        assert kernel.candidate_cells == cells
        assert apply_superposition(result, config).candidate_cells == cells
        assert kernel.candidate_history == result.candidate_history
        removed += int(result.position_mask.sum() - want.sum())
    return removed


class TestAgainstReference:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("chains", [1, 8])
    def test_every_scheme_and_chain_count(self, scheme, chains):
        config = ScanConfig.balanced(192, chains)
        responses = random_population(60, 192, seed=chains * 7 + len(scheme))
        results = population_results(responses, config, scheme)
        assert assert_matches_reference(results, config) > 0

    def test_population_beyond_one_chunk(self):
        # 300 faults: more than the 256-fault chunk older kernels split at.
        config = ScanConfig.single_chain(128)
        responses = random_population(300, 128, seed=3)
        results = population_results(responses, config, "random")
        assert assert_matches_reference(results, config) > 0

    def test_real_circuit_population(self):
        compiled, responses = build_responses(5, n_ff=24, max_faults=20)
        config = ScanConfig.single_chain(compiled.num_scan_cells)
        results = population_results(responses, config, "two-step", width=24)
        assert_matches_reference(results, config)

    def test_all_undetected_population(self):
        config = ScanConfig.single_chain(32)
        responses = [FaultResponse(Fault(f"u{i}", 0), {}, 8) for i in range(5)]
        results = population_results(responses, config, "random")
        assert_matches_reference(results, config)
        assert all(not r.candidate_cells
                   for r in superposition_prune_population(results, config))

    def test_mixed_partition_lists(self):
        """Results from different partition sets prune independently."""
        config = ScanConfig.single_chain(64)
        responses = random_population(20, 64, seed=11)
        results = (list(population_results(responses[:10], config, "random"))
                   + list(population_results(responses[10:], config, "interval")))
        assert_matches_reference(results, config)

    def test_empty_population(self):
        assert superposition_prune_population([], ScanConfig.single_chain(4)) == []


def hand_result(partitions, signatures, mask):
    """A result from explicit per-partition ``(group, channel)`` signatures."""
    return DiagnosisResult(
        actual_cells=set(),
        candidate_cells=set(),
        outcomes=[SessionOutcome(signature_matrix=np.asarray(s, dtype=np.uint64))
                  for s in signatures],
        partitions=partitions,
        position_mask=np.asarray(mask, dtype=bool),
    )


class TestClosedForm:
    P1 = Partition(np.array([0, 0, 1, 1, 2, 2, 3, 3]), 4)
    P2 = Partition(np.array([0, 1, 0, 1, 0, 1, 0, 1]), 2)

    def test_same_partition_class_prunes_nothing(self):
        """Two groups of one partition with equal signatures: their XOR
        covers their union, so the class must not prune."""
        config = ScanConfig.single_chain(8)
        result = hand_result(
            [self.P1, self.P2],
            [[[5], [5], [0], [0]], [[7], [9]]],
            np.ones((1, 8), dtype=bool),
        )
        [pruned] = superposition_prune_population([result], config)
        assert pruned.position_mask.all()
        np.testing.assert_array_equal(
            pruned.position_mask,
            superposition_prune(result.partitions, result.outcomes,
                                result.position_mask),
        )

    def test_class_with_two_groups_of_one_partition_spanning_another(self):
        """Class {P1 g0, P1 g1, P2 g0} (size 3): positions covered once or
        twice are pruned, uncovered ones stay."""
        config = ScanConfig.single_chain(8)
        result = hand_result(
            [self.P1, self.P2],
            [[[5], [5], [0], [0]], [[5], [9]]],
            np.ones((1, 8), dtype=bool),
        )
        [pruned] = superposition_prune_population([result], config)
        # Coverage: pos 0,2 -> 2; 1,3 -> 1; 4,6 -> 1 (P2 g0 only); 5,7 -> 0.
        assert pruned.position_mask[0].tolist() == [
            False, False, False, False, False, True, False, True
        ]
        np.testing.assert_array_equal(
            pruned.position_mask,
            superposition_prune(result.partitions, result.outcomes,
                                result.position_mask),
        )

    def test_collapsed_channel_prunes_every_chain(self):
        """One collapsed signature per session on a 4-chain scan: a zero
        derived signature clears its region on all chains, not only chain 0."""
        config = ScanConfig.balanced(16, 4)
        p1 = Partition(np.array([0, 0, 1, 1]), 2)
        p2 = Partition(np.array([0, 1, 1, 0]), 2)
        result = hand_result(
            [p1, p2], [[[9], [4]], [[9], [4]]], np.ones((4, 4), dtype=bool)
        )
        [pruned] = superposition_prune_population([result], config)
        # sig 9: P1 g0 {0,1} ^ P2 g0 {0,3} = {1,3};
        # sig 4: P1 g1 {2,3} ^ P2 g1 {1,2} = {1,3}.
        expected = np.tile([True, False, True, False], (4, 1))
        np.testing.assert_array_equal(pruned.position_mask, expected)
        assert pruned.candidate_cells == {0, 2, 4, 6, 8, 10, 12, 14}

    def test_collapsed_channel_diagnosis_stays_sound(self):
        config = ScanConfig.balanced(64, 4)
        responses = random_population(30, 64, seed=2, max_cells=2)
        parts = make_partitioner("random", config.max_length, 4).partitions(4)
        compactor = LinearCompactor(24, 4)
        results = [
            diagnose(r, config, parts, compactor, channel_resolution=False)
            for r in responses
        ]
        pruned = superposition_prune_population(results, config)
        for before, after in zip(results, pruned):
            assert after.candidate_cells <= before.candidate_cells
            assert after.sound

    @pytest.mark.parametrize("chains", [1, 4])
    def test_max_rounds_one_equals_four_and_zero_disables(self, chains):
        config = ScanConfig.balanced(64, chains)
        responses = random_population(25, 64, seed=9)
        for result in population_results(responses, config, "two-step"):
            one = apply_superposition(result, config, max_rounds=1)
            four = apply_superposition(result, config, max_rounds=4)
            assert one.candidate_cells == four.candidate_cells
            np.testing.assert_array_equal(one.position_mask, four.position_mask)
            none = apply_superposition(result, config, max_rounds=0)
            assert none.candidate_cells == result.candidate_cells

    def test_exact_mode_rejected_population_wide(self):
        config = ScanConfig.single_chain(32)
        responses = random_population(6, 32, seed=4)
        parts = make_partitioner("random", 32, 4).partitions(3)
        results = diagnose_population(responses, config, parts, compactor=None)
        with pytest.raises(ValueError, match="MISR signatures"):
            superposition_prune_population(results, config)

    def test_missing_mask_rejected(self):
        result = DiagnosisResult(set(), set(), [], [], position_mask=None)
        with pytest.raises(ValueError, match="position mask"):
            superposition_prune_population([result], ScanConfig.single_chain(4))


def aliased_pair(result, events):
    """True if some qualifying equal-signature pair of failing sessions
    observes different error events (a zero derived signature of a nonzero
    error stream: true MISR aliasing)."""
    sessions = []
    for p, (part, outcome) in enumerate(zip(result.partitions, result.outcomes)):
        groups = part.group_of[events.positions]
        matrix = outcome.signature_matrix
        for g, c in zip(*np.nonzero(matrix)):
            chosen = (groups == g) & (events.channels == c)
            observed = set(zip(events.positions[chosen].tolist(),
                               events.cycles[chosen].tolist()))
            sessions.append((p, int(c), int(matrix[g, c]), observed))
    return any(
        pa != pb and ca == cb and sa == sb and oa != ob
        for i, (pa, ca, sa, oa) in enumerate(sessions)
        for pb, cb, sb, ob in sessions[i + 1:]
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**10), chains=st.integers(1, 3),
       scheme=st.sampled_from(SCHEMES))
def test_pruning_is_sound_unless_aliased(seed, chains, scheme):
    """Pruned candidates are a subset of the unpruned ones and keep every
    actual failing cell, unless an equal-signature pair truly aliased."""
    compiled, responses = build_responses(seed, max_faults=4)
    config = ScanConfig.balanced(compiled.num_scan_cells, chains)
    parts = make_partitioner(scheme, config.max_length, 4).partitions(4)
    results = diagnose_population(
        responses, config, parts, LinearCompactor(32, chains)
    )
    pruned = superposition_prune_population(results, config)
    for response, before, after in zip(responses, results, pruned):
        assert after.candidate_cells <= before.candidate_cells
        events = collect_error_event_arrays(response, config)
        if before.sound and not aliased_pair(before, events):
            assert after.actual_cells <= after.candidate_cells
