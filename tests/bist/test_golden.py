"""Integration tests: the literal tester flow (full streams through the
real MISR) agrees with the linear error-signature shortcut the experiment
harness uses — per session, per partition, with multiple chains."""

import numpy as np
import pytest

from repro.bist.golden import (
    faulty_captured,
    good_captured_matrix,
    response_stream,
    run_tester_partition,
    run_tester_session,
)
from repro.bist.misr import LinearCompactor
from repro.bist.scan import ScanConfig
from repro.bist.session import collect_error_events, run_partition_sessions
from repro.core.two_step import make_partitioner
from repro.sim.faults import collapse_faults
from repro.sim.faultsim import FaultSimulator

MISR_WIDTH = 16


@pytest.fixture(scope="module")
def fault_setup(small_compiled, small_good):
    sim = FaultSimulator(small_compiled, small_good)
    faults = collapse_faults(small_compiled.netlist)
    rng = np.random.default_rng(11)
    picks = rng.choice(len(faults), size=30, replace=False)
    responses = [
        r for r in sim.simulate_faults([faults[i] for i in picks]) if r.detected
    ][:8]
    assert responses, "need detected faults"
    captured = good_captured_matrix(small_good)
    return captured, responses


class TestStreamConstruction:
    def test_stream_shape(self, small_compiled, small_good):
        config = ScanConfig.single_chain(small_compiled.num_scan_cells)
        captured = good_captured_matrix(small_good)
        stream = response_stream(captured, config, small_good.num_patterns)
        assert len(stream) == small_good.num_patterns * config.max_length
        assert all(len(inputs) == 1 for inputs in stream)

    def test_mask_zeroes_deselected_cycles(self, small_compiled, small_good):
        config = ScanConfig.single_chain(small_compiled.num_scan_cells)
        captured = good_captured_matrix(small_good)
        mask = np.zeros(config.max_length, dtype=bool)
        stream = response_stream(captured, config, small_good.num_patterns, mask)
        assert all(inputs == [0] for inputs in stream)

    def test_faulty_captured_flips_only_error_bits(self, fault_setup):
        captured, responses = fault_setup
        response = responses[0]
        faulty = faulty_captured(captured, response)
        diff_rows = [
            cell
            for cell in range(captured.shape[0])
            if not np.array_equal(captured[cell], faulty[cell])
        ]
        assert diff_rows == response.failing_cells


class TestEquivalenceWithLinearShortcut:
    @pytest.mark.parametrize("chains", [1, 3])
    def test_session_mismatch_equals_nonzero_error_signature(
        self, fault_setup, small_compiled, chains
    ):
        captured, responses = fault_setup
        config = ScanConfig.balanced(small_compiled.num_scan_cells, chains)
        compactor = LinearCompactor(MISR_WIDTH, chains)
        rng = np.random.default_rng(5)
        for response in responses[:4]:
            events = collect_error_events(response, config)
            total = config.total_cycles(response.num_patterns)
            mask = rng.random(config.max_length) < 0.5
            tester = run_tester_session(
                captured, response, config, mask, MISR_WIDTH
            )
            selected = [
                (ch, cyc) for (pos, ch, cyc) in events if mask[pos]
            ]
            error_sig = 0
            for ch, cyc in selected:
                error_sig ^= compactor.impulse_response(ch, total - 1 - cyc)
            assert (tester.golden ^ tester.observed) == error_sig
            assert tester.mismatch == (error_sig != 0)

    def test_partition_flow_matches_session_runner(
        self, fault_setup, small_compiled
    ):
        captured, responses = fault_setup
        config = ScanConfig.single_chain(small_compiled.num_scan_cells)
        part = make_partitioner("two-step", config.max_length, 4).next_partition()
        compactor = LinearCompactor(MISR_WIDTH, 1)
        for response in responses[:4]:
            tester_sessions = run_tester_partition(
                captured, response, config, part.group_of, 4, MISR_WIDTH
            )
            events = collect_error_events(response, config)
            outcome = run_partition_sessions(
                events,
                part.group_of,
                4,
                config.total_cycles(response.num_patterns),
                compactor,
            )
            for group, session in enumerate(tester_sessions):
                assert (session.golden ^ session.observed) == outcome.signatures[
                    group
                ][0]

    def test_nonzero_init_cancels_in_comparison(self, fault_setup, small_compiled):
        captured, responses = fault_setup
        config = ScanConfig.single_chain(small_compiled.num_scan_cells)
        mask = np.ones(config.max_length, dtype=bool)
        a = run_tester_session(captured, responses[0], config, mask, init=0)
        b = run_tester_session(captured, responses[0], config, mask, init=0xBEEF)
        # Different seeds shift both signatures identically (linearity).
        assert (a.golden ^ a.observed) == (b.golden ^ b.observed)
