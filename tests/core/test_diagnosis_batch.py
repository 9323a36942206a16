"""Equivalence tests for the population diagnosis kernel.

The kernel is a pure optimization: for any worker count, compactor and
channel-resolution setting it must return bit-identical
:class:`DiagnosisResult` views to the per-fault session loop kept in
``tests/reference/diagnosis.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import collect_error_event_arrays, collect_population_events
from repro.core.diagnosis import (
    DiagnosisPopulation,
    diagnose,
    diagnostic_resolution,
    dr_by_partition_count,
)
from repro.core import diagnosis_batch
from repro.core.diagnosis_batch import diagnose_population
from repro.core.superposition import superposition_prune_population
from repro.core.two_step import make_partitioner
from repro.core.vector_diagnosis import (
    diagnose_vectors,
    diagnose_vectors_population,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_circuit_workload, scheme_partitions
from repro.sim.bitops import pack_bits
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultResponse
from repro.telemetry.export import ENV_KNOBS
from tests.reference.diagnosis import diagnose as reference_diagnose

#: s27 is a real netlist (cannot be scaled); the synthetic benchmarks run
#: shrunk so the three-circuit sweep stays fast.
CONFIGS = {
    "s27": ExperimentConfig(num_faults=12, num_faults_large=6),
    "s953": ExperimentConfig(num_faults=16, num_faults_large=8, scale=0.3),
    "s5378": ExperimentConfig(num_faults=12, num_faults_large=6, scale=0.15),
}
CIRCUITS = tuple(CONFIGS)


def circuit_population(circuit):
    config = CONFIGS[circuit]
    workload = build_circuit_workload(circuit, config)
    partitions = scheme_partitions(
        "two-step", workload.scan_config.max_length, 4, 5,
        lfsr_degree=config.lfsr_degree,
    )
    return workload, partitions, config


def make_compactor(kind, config, num_chains):
    return None if kind == "exact" else LinearCompactor(
        config.misr_width, num_chains
    )


def assert_results_identical(oracle, fused):
    assert len(oracle) == len(fused)
    for a, b in zip(oracle, fused):
        assert a.actual_cells == b.actual_cells
        assert a.candidate_cells == b.candidate_cells
        assert a.candidate_history == b.candidate_history
        np.testing.assert_array_equal(a.position_mask, b.position_mask)
        assert len(a.outcomes) == len(b.outcomes)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.signatures == ob.signatures


def diagnose_in_chunks(responses, chunk, *args, **kwargs):
    """Diagnose consecutive slices of ``chunk`` faults and join them, the
    way the fork pool reassembles its workers' populations."""
    partitions = list(args[1])
    parts = [
        diagnose_population(responses[lo:lo + chunk], *args, **kwargs)
        for lo in range(0, len(responses), chunk)
    ]
    return DiagnosisPopulation.concat(parts, partitions)


def random_response(rng, num_cells, num_patterns, max_cells=5):
    n_cells = int(rng.integers(1, max_cells + 1))
    cells = rng.choice(num_cells, n_cells, replace=False)
    cell_errors = {}
    for cell in cells:
        n_pats = int(rng.integers(1, min(num_patterns, 8)))
        pats = {int(p) for p in rng.choice(num_patterns, n_pats, replace=False)}
        cell_errors[int(cell)] = pack_bits(
            [1 if p in pats else 0 for p in range(num_patterns)]
        )
    return FaultResponse(Fault("X", 0), cell_errors, num_patterns)


class TestPopulationEvents:
    """The one-nonzero extractor must slice back to per-fault events."""

    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_per_fault_slices_match_single_extraction(self, circuit):
        workload, _, _ = circuit_population(circuit)
        population = collect_population_events(
            workload.responses, workload.scan_config
        )
        assert population.num_faults == len(workload.responses)
        for f, response in enumerate(workload.responses):
            single = collect_error_event_arrays(response, workload.scan_config)
            sliced = population.fault_events(f)
            np.testing.assert_array_equal(sliced.positions, single.positions)
            np.testing.assert_array_equal(sliced.channels, single.channels)
            np.testing.assert_array_equal(sliced.cycles, single.cycles)

    def test_empty_population(self):
        config = ScanConfig.single_chain(6)
        population = collect_population_events([], config)
        assert population.num_faults == 0
        assert len(population.events) == 0


class TestFusedEquivalence:
    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    @pytest.mark.parametrize("circuit", CIRCUITS)
    def test_matches_per_fault_oracle(self, circuit, compactor_kind):
        workload, partitions, config = circuit_population(circuit)
        compactor = make_compactor(
            compactor_kind, config, workload.scan_config.num_chains
        )
        oracle = [
            reference_diagnose(r, workload.scan_config, partitions, compactor)
            for r in workload.responses
        ]
        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            workers=0,
        )
        assert_results_identical(oracle, fused)
        assert diagnostic_resolution(oracle) == diagnostic_resolution(fused)
        assert (dr_by_partition_count(oracle, 7)
                == dr_by_partition_count(fused, 7))

    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_channel_resolution_off(self, rng, compactor_kind):
        config = ScanConfig.balanced(36, 3)
        responses = [random_response(rng, 36, 16) for _ in range(8)]
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(4)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), config.num_chains
        )
        oracle = [
            reference_diagnose(r, config, partitions, compactor,
                               channel_resolution=False)
            for r in responses
        ]
        fused = diagnose_population(
            responses, config, partitions, compactor,
            channel_resolution=False, workers=0,
        )
        assert_results_identical(oracle, fused)

    def test_chunked_matches_unchunked(self):
        """Faults diagnose independently: slices of the population, joined,
        equal the whole population."""
        workload, partitions, config = circuit_population("s953")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        whole = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            workers=0,
        )
        for chunk in (1, 3, 7):
            chunked = diagnose_in_chunks(
                workload.responses, chunk, workload.scan_config, partitions,
                compactor, workers=0,
            )
            assert_results_identical(whole, chunked)
            np.testing.assert_array_equal(whole.signatures, chunked.signatures)
            np.testing.assert_array_equal(whole.history, chunked.history)

    def test_forked_matches_serial(self, monkeypatch):
        # Populations this small never fork at the measured threshold;
        # drop it so every worker gets a chunk.
        monkeypatch.setattr(diagnosis_batch, "MIN_CHUNK_FAULTS", 1)
        workload, partitions, config = circuit_population("s953")
        assert len(workload.responses) >= 8  # large enough to split
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        serial = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            workers=0,
        )
        for workers in (2, 3):
            forked = diagnose_population(
                workload.responses, workload.scan_config, partitions,
                compactor, workers=workers,
            )
            assert_results_identical(serial, forked)
            assert forked.partitions == serial.partitions

    def test_forks_only_from_min_chunk_faults_per_worker(self, monkeypatch):
        workload, partitions, config = circuit_population("s953")
        calls = []

        def recording_map(task, num_items, workers, min_items):
            calls.append(num_items)
            return [task(i) for i in range(num_items)]

        monkeypatch.setattr(diagnosis_batch, "parallel_map", recording_map)
        responses = workload.responses[:8]
        for threshold, chunks in ((diagnosis_batch.MIN_CHUNK_FAULTS, []),
                                  (5, []), (4, [2]), (2, [3])):
            monkeypatch.setattr(diagnosis_batch, "MIN_CHUNK_FAULTS", threshold)
            calls.clear()
            diagnose_population(responses, workload.scan_config, partitions,
                                None, workers=3)
            assert calls == chunks, threshold

    def test_empty_population(self):
        workload, partitions, _ = circuit_population("s27")
        empty = diagnose_population([], workload.scan_config, partitions, None)
        assert len(empty) == 0 and list(empty) == []

    def test_undetected_fault_in_population(self):
        workload, partitions, config = circuit_population("s27")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        silent = FaultResponse(Fault("silent", 0), {}, workload.num_patterns)
        population = [silent] + list(workload.responses) + [silent]
        oracle = [
            reference_diagnose(r, workload.scan_config, partitions, compactor)
            for r in population
        ]
        fused = diagnose_population(
            population, workload.scan_config, partitions, compactor, workers=0
        )
        assert_results_identical(oracle, fused)
        assert not fused[0].detected
        assert fused[0].candidate_history[-1] == 0

    def test_scalar_only_compactor_falls_back(self):
        """The reference loop falls back to the scalar ``impulse_response``
        protocol for a compactor without the batch one, and still agrees
        with the kernel run on the batch-capable compactor."""
        workload, partitions, config = circuit_population("s27")
        inner = LinearCompactor(config.misr_width, workload.scan_config.num_chains)

        class ScalarOnly:
            def compact(self, *args, **kwargs):
                return inner.compact(*args, **kwargs)

            def impulse_response(self, channel, steps):
                return inner.impulse_response(channel, steps)

        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, inner,
            workers=0,
        )
        oracle = [
            reference_diagnose(r, workload.scan_config, partitions, ScalarOnly())
            for r in workload.responses
        ]
        assert_results_identical(oracle, fused)

    def test_mixed_pattern_counts_match_oracle(self, rng):
        config = ScanConfig.single_chain(20)
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(3)
        responses = [
            random_response(rng, 20, 16),
            random_response(rng, 20, 32),
            random_response(rng, 20, 100),
        ]
        for compactor in (None, LinearCompactor(16, 1)):
            fused = diagnose_population(responses, config, partitions,
                                        compactor, workers=0)
            oracle = [reference_diagnose(r, config, partitions, compactor)
                      for r in responses]
            assert_results_identical(oracle, fused)

    def test_one_fault_diagnose_is_the_population_kernel(self, rng):
        config = ScanConfig.balanced(24, 3)
        partitions = make_partitioner("random", config.max_length, 4).partitions(3)
        response = random_response(rng, 24, 16)
        compactor = LinearCompactor(16, 3)
        assert_results_identical(
            [reference_diagnose(response, config, partitions, compactor)],
            [diagnose(response, config, partitions, compactor)],
        )

    def test_stale_env_knob_is_ignored(self, monkeypatch):
        """The removed ``REPRO_DIAGNOSIS_BATCH`` chunk knob no longer
        changes anything and is not listed as a knob."""
        workload, partitions, _ = circuit_population("s27")
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "0")
        via_env = diagnose_population(
            workload.responses, workload.scan_config, partitions, None, workers=0
        )
        monkeypatch.delenv("REPRO_DIAGNOSIS_BATCH")
        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, None, workers=0
        )
        assert_results_identical(via_env, fused)
        assert "REPRO_DIAGNOSIS_BATCH" not in ENV_KNOBS


class TestRaggedChains:
    """Unequal chains leave trailing positions with no cell; the fused
    kernel must clip them exactly as the per-fault oracle does."""

    SCAN = ScanConfig([list(range(0, 11)), list(range(11, 18)),
                       list(range(18, 21))])

    def population(self, rng):
        responses = [random_response(rng, 21, 16) for _ in range(10)]
        silent = FaultResponse(Fault("silent", 0), {}, 16)
        partitions = make_partitioner(
            "two-step", self.SCAN.max_length, 4
        ).partitions(4)
        return [silent] + responses, partitions

    @pytest.mark.parametrize("chunk", [1, 3, 1000])
    @pytest.mark.parametrize("channel_resolution", [True, False])
    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_matches_per_fault_oracle(self, rng, compactor_kind,
                                      channel_resolution, chunk):
        responses, partitions = self.population(rng)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), self.SCAN.num_chains
        )
        oracle = [
            reference_diagnose(r, self.SCAN, partitions, compactor,
                               channel_resolution=channel_resolution)
            for r in responses
        ]
        fused = diagnose_in_chunks(
            responses, chunk, self.SCAN, partitions, compactor,
            channel_resolution=channel_resolution, workers=0,
        )
        assert_results_identical(oracle, fused)

    @pytest.mark.parametrize("channel_resolution", [True, False])
    def test_masks_never_mark_missing_cells(self, rng, channel_resolution):
        responses, partitions = self.population(rng)
        compactor = make_compactor("misr", ExperimentConfig(), self.SCAN.num_chains)
        fused = diagnose_population(
            responses, self.SCAN, partitions, compactor,
            channel_resolution=channel_resolution, workers=0,
        )
        per_fault = [
            reference_diagnose(r, self.SCAN, partitions, compactor,
                               channel_resolution=channel_resolution)
            for r in responses
        ]
        pruned = superposition_prune_population(fused, self.SCAN)
        absent = ~self.SCAN.presence_mask()
        for r in list(fused) + per_fault + list(pruned):
            assert not (r.position_mask & absent).any()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), num_parts=st.integers(1, 6),
       scheme=st.sampled_from(["random", "interval", "two-step"]),
       compactor_kind=st.sampled_from(["exact", "misr"]),
       channel_resolution=st.booleans())
def test_candidate_history_never_grows(seed, num_parts, scheme, compactor_kind,
                                       channel_resolution):
    """Both fused kernels: one history entry per partition, non-increasing,
    ending at the final candidate count."""
    rng = np.random.default_rng(seed)
    scan = ScanConfig([list(range(0, 13)), list(range(13, 22))])
    responses = [random_response(rng, 22, 16) for _ in range(6)]
    compactor = make_compactor(compactor_kind, ExperimentConfig(), scan.num_chains)
    cell_parts = make_partitioner(scheme, scan.max_length, 4).partitions(num_parts)
    vector_parts = make_partitioner(scheme, 16, 4).partitions(num_parts)
    cells = diagnose_population(
        responses, scan, cell_parts, compactor,
        channel_resolution=channel_resolution, workers=0,
    )
    vectors = diagnose_vectors_population(responses, scan, vector_parts, compactor)
    for history, final in (
        [(r.candidate_history, r.candidate_cells) for r in cells]
        + [(r.candidate_history, r.candidate_vectors) for r in vectors]
    ):
        assert len(history) == num_parts
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert history[-1] == len(final)


class TestFusedVectorDiagnosis:
    def vector_setup(self, rng, num_patterns=24):
        config = ScanConfig.balanced(30, 2)
        responses = [random_response(rng, 30, num_patterns) for _ in range(9)]
        partitions = make_partitioner("two-step", num_patterns, 4).partitions(4)
        return config, responses, partitions

    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_matches_per_fault_loop(self, rng, compactor_kind):
        config, responses, partitions = self.vector_setup(rng)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), config.num_chains
        )
        oracle = [
            diagnose_vectors(r, config, partitions, compactor) for r in responses
        ]
        fused = diagnose_vectors_population(responses, config, partitions, compactor)
        assert len(fused) == len(oracle)
        for a, b in zip(oracle, fused):
            assert a.actual_vectors == b.actual_vectors
            assert a.candidate_vectors == b.candidate_vectors
            assert a.candidate_history == b.candidate_history

    def test_undetected_fault(self, rng):
        config, responses, partitions = self.vector_setup(rng)
        silent = FaultResponse(Fault("silent", 0), {}, responses[0].num_patterns)
        fused = diagnose_vectors_population(
            [silent] + responses, config, partitions, None
        )
        assert not fused[0].detected
        assert fused[0].candidate_vectors == set()

    def test_empty_population(self, rng):
        config, _, partitions = self.vector_setup(rng)
        assert diagnose_vectors_population([], config, partitions, None) == []
