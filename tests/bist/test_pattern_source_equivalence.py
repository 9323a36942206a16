"""The claim in repro.bist.patterns: the LFSR-stepped PRPG and the seeded
numpy source are interchangeable for diagnosis behaviour.  They produce
different bits, but every diagnosis-level property (soundness, DR regime,
clustering) holds identically — pinned here for a small circuit."""

import numpy as np
import pytest

from repro.bist.misr import LinearCompactor
from repro.bist.patterns import PRPG, fast_pattern_matrices
from repro.bist.scan import ScanConfig
from repro.circuit.library import get_circuit
from repro.core.diagnosis import diagnose, diagnostic_resolution
from repro.core.two_step import make_partitioner
from repro.sim.faults import collapse_faults
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import CompiledCircuit

NUM_PATTERNS = 64


def responses_for(source, compiled, num_faults=30):
    if source == "lfsr":
        pi, ff = PRPG(degree=32, seed=0xACE1).pattern_matrices(
            compiled.num_inputs, compiled.num_scan_cells, NUM_PATTERNS
        )
    else:
        pi, ff = fast_pattern_matrices(
            compiled.num_inputs, compiled.num_scan_cells, NUM_PATTERNS, seed=0xACE1
        )
    good = compiled.simulate(pi, ff, NUM_PATTERNS)
    sim = FaultSimulator(compiled, good)
    faults = collapse_faults(compiled.netlist)
    rng = np.random.default_rng(7)
    picks = rng.choice(len(faults), size=num_faults, replace=False)
    responses = sim.simulate_faults([faults[i] for i in sorted(picks)])
    return [r for r in responses if r.detected]


@pytest.fixture(scope="module")
def compiled():
    return CompiledCircuit(get_circuit("s953"))


class TestSourceEquivalence:
    def test_detection_rates_comparable(self, compiled):
        lfsr = responses_for("lfsr", compiled)
        fast = responses_for("fast", compiled)
        assert lfsr and fast
        # Pseudo-random sources of the same quality detect comparable
        # fractions of the same fault sample.
        assert abs(len(lfsr) - len(fast)) <= 8

    def test_diagnosis_regime_matches(self, compiled):
        config = ScanConfig.single_chain(compiled.num_scan_cells)
        partitions = make_partitioner("two-step", config.max_length, 4).partitions(4)
        compactor = LinearCompactor(24, 1)
        drs = {}
        for source in ("lfsr", "fast"):
            results = [
                diagnose(r, config, partitions, compactor)
                for r in responses_for(source, compiled)
            ]
            assert all(r.sound for r in results)
            drs[source] = diagnostic_resolution(results)
        # The DR regime must agree within a factor; bit-identical values
        # are not expected (different pattern bits).
        hi, lo = max(drs.values()), min(drs.values())
        assert hi <= max(4 * lo, lo + 1.5)

    def test_clustering_property_holds_for_both(self, compiled):
        for source in ("lfsr", "fast"):
            spans = []
            for response in responses_for(source, compiled):
                cells = response.failing_cells
                spans.append((max(cells) - min(cells) + 1) / compiled.num_scan_cells)
            assert np.mean(spans) < 0.5
