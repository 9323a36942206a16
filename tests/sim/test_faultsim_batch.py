"""Equivalence tests: fault-batched cone kernel vs the event-driven oracle.

The batched kernel must produce bit-identical error matrices to the
event-driven single-fault loop (``tests/reference/faultsim.py``) for
randomized fault populations, on multiple ISCAS circuits, serially and
through the fork pool — including the empty, one-fault and gate-free
populations that only reach the kernel through ``simulate_faults``.
"""

import numpy as np
import pytest

from repro.bist.patterns import fast_pattern_matrices
from repro.circuit.bench import parse_bench
from repro.circuit.library import get_circuit
from repro.parallel import fork_available
from repro.sim.faults import collapse_faults
from repro.sim.faultsim import FaultSimulator
from repro.sim.faultsim_batch import (
    DEFAULT_BATCH,
    plan_batches,
    simulate_batch,
    simulate_faults_batched,
)
from repro.sim.logicsim import CompiledCircuit
from repro.soc.core_wrapper import EmbeddedCore
from repro.telemetry import METRICS
from tests.reference.faultsim import simulate_fault
from tests.reference.logicsim import simulate_pergate

#: PI -> DFF -> DFF: a scan path with no combinational gate at all.
GATE_FREE_BENCH = """
INPUT(A)
OUTPUT(F1)
F0 = DFF(A)
F1 = DFF(F0)
"""


def assert_identical(event, batched):
    assert len(event) == len(batched)
    for a, b in zip(event, batched):
        assert a.fault == b.fault
        assert a.num_patterns == b.num_patterns
        assert set(a.cell_errors) == set(b.cell_errors)
        for cell in a.cell_errors:
            assert np.array_equal(a.cell_errors[cell], b.cell_errors[cell])


def sampled_population(name, num_patterns, count, seed):
    core = EmbeddedCore(get_circuit(name), num_patterns=num_patterns)
    faults = collapse_faults(core.netlist)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(faults), size=min(count, len(faults)), replace=False)
    return core.fault_simulator, [faults[i] for i in idx]


class TestPlanBatches:
    def test_covers_every_fault_once(self):
        sim, faults = sampled_population("s27", 64, 30, seed=3)
        batches = plan_batches(sim, faults, 8)
        flat = sorted(i for batch in batches for i in batch)
        assert flat == list(range(len(faults)))
        assert all(len(batch) <= 8 for batch in batches)

    def test_deterministic(self):
        sim, faults = sampled_population("s27", 64, 30, seed=3)
        assert plan_batches(sim, faults, 8) == plan_batches(sim, faults, 8)

    def test_sorted_by_site_topology(self):
        sim, faults = sampled_population("s27", 64, 30, seed=3)
        net_index = sim.compiled.net_index
        order = [i for batch in plan_batches(sim, faults, 8) for i in batch]
        sites = [net_index[faults[i].site] for i in order]
        assert sites == sorted(sites)


class TestBatchedEquivalence:
    @pytest.mark.parametrize("name,patterns", [("s27", 100), ("s953", 128)])
    def test_bit_identical_to_event_driven(self, name, patterns):
        sim, faults = sampled_population(name, patterns, 120, seed=11)
        event = [simulate_fault(sim, f) for f in faults]
        for batch_size in (2, 7, 32):
            batched = simulate_faults_batched(sim, faults, batch_size, workers=0)
            assert_identical(event, batched)

    def test_single_batch_kernel(self):
        sim, faults = sampled_population("s27", 64, 12, seed=5)
        event = [simulate_fault(sim, f) for f in faults]
        batched = simulate_batch(sim, faults)
        assert_identical(event, batched)

    def test_non_word_multiple_patterns_tail_clean(self):
        # 100 patterns leaves 28 unused tail bits; no error vector may
        # ever set them.
        from repro.sim.bitops import pattern_mask

        sim, faults = sampled_population("s953", 100, 60, seed=23)
        mask = pattern_mask(100)
        for response in simulate_faults_batched(sim, faults, 16, workers=0):
            for vec in response.cell_errors.values():
                assert np.array_equal(vec & mask, vec)

    def test_simulate_faults_dispatches_to_batched(self):
        sim, faults = sampled_population("s27", 64, 20, seed=9)
        before = METRICS.snapshot()
        via_dispatch = sim.simulate_faults(faults, workers=0)
        delta = METRICS.diff(before)
        expected = len(plan_batches(sim, faults, DEFAULT_BATCH))
        assert delta["counters"].get("faultsim.batches") == expected
        assert delta["counters"].get("faultsim.faults") == len(faults)
        event = [simulate_fault(sim, f) for f in faults]
        assert_identical(event, via_dispatch)

    def test_removed_kernel_knobs_are_ignored(self, monkeypatch):
        # REPRO_SOA / REPRO_FAULT_BATCH used to select other kernels.
        monkeypatch.setenv("REPRO_SOA", "0")
        monkeypatch.setenv("REPRO_FAULT_BATCH", "0")
        sim, faults = sampled_population("s27", 64, 20, seed=9)
        before = METRICS.snapshot()
        responses = sim.simulate_faults(faults, workers=0)
        assert METRICS.diff(before)["counters"].get("faultsim.batches") == 1
        assert_identical([simulate_fault(sim, f) for f in faults], responses)


class TestPopulationEdges:
    """Inputs that reach the batched kernel only since it became the
    single fault-simulation path."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_empty_population(self, workers):
        sim, _faults = sampled_population("s27", 64, 1, seed=1)
        assert sim.simulate_faults([], workers=workers) == []

    @pytest.mark.parametrize("name,patterns", [("s27", 100), ("s953", 128)])
    def test_one_fault_population(self, name, patterns):
        sim, faults = sampled_population(name, patterns, 40, seed=31)
        for fault in faults:
            assert_identical([simulate_fault(sim, fault)],
                             sim.simulate_faults([fault], workers=0))

    def test_gate_free_netlist(self):
        compiled = CompiledCircuit(parse_bench(GATE_FREE_BENCH, name="gate-free"))
        assert not compiled._ops
        pi, ff = fast_pattern_matrices(
            compiled.num_inputs, compiled.num_scan_cells, 100, seed=3
        )
        good = compiled.simulate(pi, ff, 100)
        np.testing.assert_array_equal(
            good.values, simulate_pergate(compiled, pi, ff, 100).values
        )
        sim = FaultSimulator(compiled, good)
        faults = collapse_faults(compiled.netlist)
        responses = sim.simulate_faults(faults, workers=0)
        assert any(r.detected for r in responses)
        assert_identical([simulate_fault(sim, f) for f in faults], responses)


@pytest.mark.skipif(not fork_available(), reason="fork pool unavailable")
class TestBatchedForked:
    @pytest.mark.parametrize("name,patterns", [("s27", 100), ("s953", 128)])
    def test_forked_bit_identical(self, name, patterns):
        sim, faults = sampled_population(name, patterns, 120, seed=17)
        serial = simulate_faults_batched(sim, faults, 16, workers=0)
        forked = simulate_faults_batched(sim, faults, 16, workers=2)
        assert_identical(serial, forked)

    def test_env_workers_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        sim, faults = sampled_population("s953", 128, 100, seed=29)
        forked = sim.simulate_faults(faults)
        event = [simulate_fault(sim, f) for f in faults]
        assert_identical(event, forked)
