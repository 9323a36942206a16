"""Equivalence tests for the population-fused diagnosis kernel (PR 9).

The fused kernel is a pure optimization: for any chunk size, worker
count, compactor and channel-resolution setting it must return
bit-identical :class:`DiagnosisResult` objects to the per-fault
:func:`repro.core.diagnosis.diagnose` oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import collect_error_event_arrays, collect_population_events
from repro.core.diagnosis import diagnose, diagnostic_resolution
from repro.core.diagnosis_batch import (
    DEFAULT_CHUNK,
    diagnose_population,
    resolve_diagnosis_chunk,
)
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
            diagnose(r, workload.scan_config, partitions, compactor)
            for r in workload.responses
        ]
        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            workers=0,
        )
        assert_results_identical(oracle, fused)
        assert diagnostic_resolution(oracle) == diagnostic_resolution(fused)

    @pytest.mark.parametrize("compactor_kind", ["exact", "misr"])
    def test_channel_resolution_off(self, rng, compactor_kind):
        config = ScanConfig.balanced(36, 3)
        responses = [random_response(rng, 36, 16) for _ in range(8)]
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(4)
        compactor = make_compactor(
            compactor_kind, ExperimentConfig(), config.num_chains
        )
        oracle = [
            diagnose(r, config, partitions, compactor, channel_resolution=False)
            for r in responses
        ]
        fused = diagnose_population(
            responses, config, partitions, compactor,
            channel_resolution=False, workers=0,
        )
        assert_results_identical(oracle, fused)

    def test_chunked_matches_unchunked(self):
        workload, partitions, config = circuit_population("s953")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        whole = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            chunk=1000, workers=0,
        )
        for chunk in (1, 3, 7):
            chunked = diagnose_population(
                workload.responses, workload.scan_config, partitions, compactor,
                chunk=chunk, workers=0,
            )
            assert_results_identical(whole, chunked)

    def test_forked_matches_serial(self):
        workload, partitions, config = circuit_population("s953")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        serial = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            chunk=3, workers=0,
        )
        forked = diagnose_population(
            workload.responses, workload.scan_config, partitions, compactor,
            chunk=3, workers=2,
        )
        assert_results_identical(serial, forked)

    def test_empty_population(self):
        workload, partitions, _ = circuit_population("s27")
        assert diagnose_population(
            [], workload.scan_config, partitions, None
        ) == []

    def test_undetected_fault_in_population(self):
        workload, partitions, config = circuit_population("s27")
        compactor = make_compactor("misr", config, workload.scan_config.num_chains)
        silent = FaultResponse(Fault("silent", 0), {}, workload.num_patterns)
        population = [silent] + list(workload.responses) + [silent]
        oracle = [
            diagnose(r, workload.scan_config, partitions, compactor)
            for r in population
        ]
        fused = diagnose_population(
            population, workload.scan_config, partitions, compactor, workers=0
        )
        assert_results_identical(oracle, fused)
        assert not fused[0].detected
        assert fused[0].candidate_history[-1] == 0

    def test_scalar_only_compactor_falls_back(self):
        workload, partitions, config = circuit_population("s27")
        inner = LinearCompactor(config.misr_width, workload.scan_config.num_chains)

        class ScalarOnly:
            def compact(self, *args, **kwargs):
                return inner.compact(*args, **kwargs)

            def impulse_response(self, channel, steps):
                return inner.impulse_response(channel, steps)

        fused = diagnose_population(
            workload.responses, workload.scan_config, partitions, ScalarOnly(),
            workers=0,
        )
        oracle = [
            diagnose(r, workload.scan_config, partitions, inner)
            for r in workload.responses
        ]
        for a, b in zip(oracle, fused):
            assert a.candidate_cells == b.candidate_cells
            assert a.candidate_history == b.candidate_history

    def test_mixed_pattern_counts_fall_back(self, rng):
        config = ScanConfig.single_chain(20)
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(3)
        responses = [
            random_response(rng, 20, 16),
            random_response(rng, 20, 32),
        ]
        fused = diagnose_population(responses, config, partitions, None, workers=0)
        oracle = [diagnose(r, config, partitions, None) for r in responses]
        assert_results_identical(oracle, fused)

    def test_env_zero_selects_per_fault_path(self, monkeypatch):
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
            diagnose(r, self.SCAN, partitions, compactor,
                     channel_resolution=channel_resolution)
            for r in responses
        ]
        fused = diagnose_population(
            responses, self.SCAN, partitions, compactor,
            channel_resolution=channel_resolution, chunk=chunk, workers=0,
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
            diagnose(r, self.SCAN, partitions, compactor,
                     channel_resolution=channel_resolution)
            for r in responses
        ]
        pruned = superposition_prune_population(fused, self.SCAN)
        absent = ~self.SCAN.presence_mask()
        for r in fused + per_fault + pruned:
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
        for chunk in (None, 2, 1000):
            fused = diagnose_vectors_population(
                responses, config, partitions, compactor, chunk=chunk
            )
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


class TestResolveDiagnosisChunk:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_DIAGNOSIS_BATCH", raising=False)
        assert resolve_diagnosis_chunk() == DEFAULT_CHUNK

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "0")
        assert resolve_diagnosis_chunk() == 0

    def test_negative_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "-4")
        assert resolve_diagnosis_chunk() == 0

    def test_explicit_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "17")
        assert resolve_diagnosis_chunk() == 17

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "17")
        assert resolve_diagnosis_chunk(8) == 8
        assert resolve_diagnosis_chunk(0) == 0

    def test_garbage_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "banana")
        assert resolve_diagnosis_chunk() == DEFAULT_CHUNK

    def test_garbage_env_warns_once(self, monkeypatch, capsys):
        import importlib

        # repro.telemetry re-exports the log *function* under the submodule
        # name, so attribute-style imports resolve to the function — go
        # through importlib to reach the module that owns _WARNED_ENV.
        telemetry_log = importlib.import_module("repro.telemetry.log")

        monkeypatch.setenv("REPRO_LOG", "info")
        monkeypatch.setenv("REPRO_DIAGNOSIS_BATCH", "banana")
        monkeypatch.setattr(telemetry_log, "_WARNED_ENV", set())
        assert resolve_diagnosis_chunk() == DEFAULT_CHUNK
        err = capsys.readouterr().err
        assert "REPRO_DIAGNOSIS_BATCH" in err and "'banana'" in err
        # The warning names the bad value exactly once per process.
        assert resolve_diagnosis_chunk() == DEFAULT_CHUNK
        assert capsys.readouterr().err == ""
