"""Bench: raw substrate throughput — logic simulation, fault simulation,
partition generation and PODEM — the costs behind every experiment."""

import numpy as np

from repro.atpg.podem import atpg_campaign
from repro.bist.patterns import fast_pattern_matrices
from repro.circuit.library import get_circuit
from repro.core.two_step import make_partitioner
from repro.sim.faults import collapse_faults
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import CompiledCircuit

CIRCUIT = "s9234"
NUM_PATTERNS = 128


def test_logic_simulation_throughput(benchmark):
    netlist = get_circuit(CIRCUIT)
    compiled = CompiledCircuit(netlist)
    pi, ff = fast_pattern_matrices(
        compiled.num_inputs, compiled.num_scan_cells, NUM_PATTERNS, seed=1
    )
    result = benchmark(compiled.simulate, pi, ff, NUM_PATTERNS)
    assert result.captured.shape[0] == compiled.num_scan_cells


def test_fault_simulation_throughput(benchmark):
    netlist = get_circuit(CIRCUIT)
    compiled = CompiledCircuit(netlist)
    pi, ff = fast_pattern_matrices(
        compiled.num_inputs, compiled.num_scan_cells, NUM_PATTERNS, seed=1
    )
    good = compiled.simulate(pi, ff, NUM_PATTERNS)
    sim = FaultSimulator(compiled, good)
    faults = collapse_faults(netlist)
    rng = np.random.default_rng(0)
    sample = [faults[i] for i in rng.choice(len(faults), 50, replace=False)]

    def run():
        return sum(1 for r in sim.simulate_faults(sample) if r.detected)

    detected = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0 < detected <= 50


def test_partition_generation_throughput(benchmark):
    def run():
        gen = make_partitioner("two-step", 6173, 32)
        return gen.partitions(8)

    parts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(parts) == 8


def test_podem_throughput(benchmark):
    netlist = get_circuit("s953")
    faults = collapse_faults(netlist)
    rng = np.random.default_rng(2)
    sample = [faults[i] for i in rng.choice(len(faults), 25, replace=False)]

    def run():
        _cubes, stats = atpg_campaign(netlist, sample, backtrack_limit=80)
        return stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.detected + stats.untestable == 25
