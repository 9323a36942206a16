"""Tests for superposition-based pruning."""

import numpy as np
import pytest

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.core.diagnosis import diagnose
from repro.core.superposition import apply_superposition
from repro.core.two_step import make_partitioner
from repro.sim.bitops import pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse


def make_response(cell_patterns, num_patterns=8):
    cell_errors = {
        cell: pack_bits([1 if p in pats else 0 for p in range(num_patterns)])
        for cell, pats in cell_patterns.items()
    }
    return FaultResponse(Fault("X", 0), cell_errors, num_patterns)


def run(response, config, scheme="random", groups=4, count=3, width=24):
    parts = make_partitioner(scheme, config.max_length, groups).partitions(count)
    compactor = LinearCompactor(width, config.num_chains)
    return diagnose(response, config, parts, compactor)


class TestPruning:
    def test_prunes_hitchhiker_cells(self, rng):
        """A cell that happens to share a failing group with the true
        failing cell in every partition survives intersection but is
        eliminated by a derived zero signature."""
        config = ScanConfig.single_chain(64)
        response = make_response({10: [0, 2], 40: [1, 5]})
        result = run(response, config, count=2)
        pruned = apply_superposition(result, config)
        assert pruned.candidate_cells <= result.candidate_cells
        assert pruned.sound

    def test_never_grows_candidates(self, rng):
        config = ScanConfig.single_chain(80)
        for seed in range(5):
            local = np.random.default_rng(seed)
            response = make_response(
                {int(c): [int(local.integers(0, 8))]
                 for c in local.choice(80, 4, replace=False)}
            )
            result = run(response, config, scheme="two-step", count=3)
            pruned = apply_superposition(result, config)
            assert pruned.candidate_cells <= result.candidate_cells

    def test_sound_at_width_24(self, rng):
        config = ScanConfig.single_chain(100)
        for seed in range(8):
            local = np.random.default_rng(100 + seed)
            response = make_response(
                {int(c): [int(p) for p in local.choice(8, 2, replace=False)]
                 for c in local.choice(100, 6, replace=False)}
            )
            result = run(response, config, scheme="two-step", groups=8, count=4)
            pruned = apply_superposition(result, config)
            assert pruned.sound

    def test_multi_chain_pruning_stays_per_channel(self, rng):
        config = ScanConfig.balanced(40, 4)
        response = make_response({5: [0], 25: [3]})
        result = run(response, config, scheme="two-step", count=3)
        pruned = apply_superposition(result, config)
        assert pruned.sound
        assert pruned.candidate_cells <= result.candidate_cells


class TestHandCrafted:
    def test_identical_failing_groups_prune_difference(self):
        """Two failing sessions observing the same single failing cell have
        equal signatures; everything in their symmetric difference must be
        pruned."""
        config = ScanConfig.single_chain(8)
        response = make_response({3: [0]})
        from repro.core.partitions import Partition

        p1 = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        p2 = Partition(np.array([1, 1, 0, 0, 0, 0, 1, 1]), 2)
        compactor = LinearCompactor(16, 1)
        result = diagnose(response, config, [p1, p2], compactor)
        # Intersection keeps positions {2, 3} (both failing groups).
        assert result.candidate_cells == {2, 3}
        pruned = apply_superposition(result, config)
        # Derived signature of {0,1} ∪ {4,5} is zero -> already outside the
        # mask; the informative pair is (group0 of p1, group0 of p2) whose
        # difference {0,1,4,5} is error-free.  Cell 2 is in neither failing
        # group's difference, so it can only be removed if some failing
        # pair separates 2 from 3 — here none does.
        assert pruned.candidate_cells == {2, 3}

    def test_separating_pair_removes_cell(self):
        config = ScanConfig.single_chain(8)
        response = make_response({3: [0]})
        from repro.core.partitions import Partition

        p1 = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        p2 = Partition(np.array([1, 1, 0, 0, 0, 0, 1, 1]), 2)
        p3 = Partition(np.array([0, 1, 0, 1, 0, 1, 0, 1]), 2)
        compactor = LinearCompactor(16, 1)
        result = diagnose(response, config, [p1, p2, p3], compactor)
        assert result.candidate_cells == {3}

    def test_exact_mode_rejected(self):
        config = ScanConfig.single_chain(16)
        response = make_response({3: [0]})
        parts = make_partitioner("random", 16, 4).partitions(2)
        result = diagnose(response, config, parts, compactor=None)
        with pytest.raises(ValueError, match="MISR signatures"):
            apply_superposition(result, config)

    def test_missing_mask_rejected(self):
        from repro.core.diagnosis import DiagnosisResult

        result = DiagnosisResult(set(), set(), [], [], position_mask=None)
        with pytest.raises(ValueError, match="position mask"):
            apply_superposition(result, ScanConfig.single_chain(4))
