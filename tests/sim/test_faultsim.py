"""Tests for fault simulation, validated against a brute-force reference
that re-evaluates the whole circuit with the fault forced.  The brute
force checks both the production kernel and the event-driven oracle in
``tests/reference/faultsim.py``."""

import numpy as np
import pytest

from repro.circuit.bench import parse_bench
from repro.circuit.netlist import GateType
from repro.sim.bitops import pack_bits, unpack_bits
from repro.sim.faults import Fault, collapse_faults
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import CompiledCircuit
from tests.reference import faultsim as reference


def faulty_reference(netlist, assignment, fault):
    """Single-pattern interpreter with the fault forced."""
    cache = {}

    def value(net):
        if net in cache:
            return cache[net]
        if net in assignment and not (fault.pin is None and fault.net == net):
            out = assignment[net]
            cache[net] = out
            return out
        if fault.pin is None and fault.net == net:
            cache[net] = fault.stuck_at
            return fault.stuck_at
        gate = netlist.gates[net]
        ins = []
        for pos, src in enumerate(gate.fanins):
            if fault.pin is not None and fault.pin == (net, pos):
                ins.append(fault.stuck_at)
            else:
                ins.append(value(src))
        out = _eval(gate.gtype, ins)
        cache[net] = out
        return out

    return value


def simulate_one(sim, fault):
    """A one-fault population through the production kernel."""
    (response,) = sim.simulate_faults([fault])
    return response


def _eval(gtype, ins):
    if gtype is GateType.AND:
        return int(all(ins))
    if gtype is GateType.NAND:
        return int(not all(ins))
    if gtype is GateType.OR:
        return int(any(ins))
    if gtype is GateType.NOR:
        return int(not any(ins))
    if gtype is GateType.XOR:
        return sum(ins) & 1
    if gtype is GateType.XNOR:
        return 1 - (sum(ins) & 1)
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return 1 - ins[0]
    raise AssertionError(gtype)


CHAIN = """
INPUT(A)
INPUT(B)
OUTPUT(N3)
F0 = DFF(D0)
F1 = DFF(D1)
N1 = AND(A, F0)
N2 = OR(N1, B)
N3 = NOT(N2)
D0 = XOR(N2, F1)
D1 = NAND(N1, N3)
"""


class TestHandBuilt:
    def setup_method(self):
        self.net = parse_bench(CHAIN, name="chain")
        self.compiled = CompiledCircuit(self.net)

    def run_patterns(self, bits_pi, bits_ff):
        num_patterns = len(bits_pi[0])
        pi = np.vstack([pack_bits(b) for b in bits_pi])
        ff = np.vstack([pack_bits(b) for b in bits_ff])
        good = self.compiled.simulate(pi, ff, num_patterns)
        return FaultSimulator(self.compiled, good), num_patterns

    def test_stem_fault_detected_where_expected(self):
        # A=1, F0=1 makes N1=1; N1/sa0 flips N1, changing D0 and D1.
        sim, n = self.run_patterns([[1], [0]], [[1], [0]])
        response = simulate_one(sim, Fault("N1", 0))
        assert response.detected
        # good: N1=1, N2=1, N3=0, D0=1^0=1, D1=not(1 and 0)=1
        # faulty: N1=0, N2=1 (B=0? N2=OR(0,0)=0!), N3=1, D0=0^0=0, D1=1
        # With B=0: N2 good = OR(1,0)=1 -> D0 good = 1.  Faulty N2=0 -> D0=0.
        # D1 good = NAND(1, 0) = 1; faulty D1 = NAND(0, 1) = 1 (no change).
        assert response.failing_cells == [0]

    def test_undetectable_when_stuck_equals_value(self):
        sim, n = self.run_patterns([[1], [0]], [[1], [0]])
        # N1 is already 1 under this pattern: sa1 produces no error.
        response = simulate_one(sim, Fault("N1", 1))
        assert not response.detected

    def test_pin_fault_differs_from_stem_fault(self):
        # Stem fault N1/sa0: N1=0 -> N2=0 -> N3=1; D0 flips, but
        # D1 = NAND(N1=0, N3=1) = 1 stays correct -> only cell 0 fails.
        # Pin fault on N2's input from N1: N1 itself stays 1, so
        # D1 = NAND(N1=1, N3=1) = 0 flips too -> cells 0 and 1 fail.
        sim, n = self.run_patterns([[1], [0]], [[1], [0]])
        stem = simulate_one(sim, Fault("N1", 0))
        pin = simulate_one(sim, Fault("N1", 0, pin=("N2", 0)))
        assert stem.failing_cells == [0]
        assert pin.failing_cells == [0, 1]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("source", ["s27", "generated"])
    def test_error_matrices_match_reference(
        self, source, s27_netlist, small_netlist, rng
    ):
        netlist = s27_netlist if source == "s27" else small_netlist
        compiled = CompiledCircuit(netlist)
        num_patterns = 24
        n_pi, n_ff = compiled.num_inputs, compiled.num_scan_cells
        bits_pi = rng.integers(0, 2, size=(n_pi, num_patterns))
        bits_ff = rng.integers(0, 2, size=(n_ff, num_patterns))
        pi = np.vstack([pack_bits(bits_pi[i]) for i in range(n_pi)])
        ff = np.vstack([pack_bits(bits_ff[i]) for i in range(n_ff)])
        good = compiled.simulate(pi, ff, num_patterns)
        sim = FaultSimulator(compiled, good)

        faults = collapse_faults(netlist)
        picks = rng.choice(len(faults), size=min(25, len(faults)), replace=False)
        sample = [faults[i] for i in picks]
        production = sim.simulate_faults(sample)
        oracle = [reference.simulate_fault(sim, fault) for fault in sample]
        for fault, response, ref_response in zip(sample, production, oracle):
            for p in range(num_patterns):
                assignment = {
                    net: int(bits_pi[i][p])
                    for i, net in enumerate(netlist.inputs)
                }
                for i, ff_gate in enumerate(netlist.flip_flops):
                    assignment[ff_gate.output] = int(bits_ff[i][p])
                ref = faulty_reference(netlist, assignment, fault)
                for cell, ff_gate in enumerate(netlist.flip_flops):
                    d_net = ff_gate.fanins[0]
                    good_bit = unpack_bits(good.values[compiled.net_index[d_net]],
                                           num_patterns)[p]
                    fault_bit = ref(d_net)
                    expect_error = good_bit != fault_bit
                    for got in (response, ref_response):
                        got_error = bool(
                            unpack_bits(got.errors_at(cell), num_patterns)[p]
                        )
                        assert got_error == expect_error, (str(fault), cell, p)


class TestFaultResponse:
    def test_error_count_and_errors_at(self, small_compiled, small_good, rng):
        sim = FaultSimulator(small_compiled, small_good)
        faults = collapse_faults(small_compiled.netlist)
        response = next(r for r in sim.simulate_faults(faults) if r.detected)
        assert response.error_count() > 0
        total = sum(
            sum(unpack_bits(response.errors_at(c), response.num_patterns))
            for c in response.failing_cells
        )
        assert total == response.error_count()
        missing = max(response.failing_cells) + 1
        if missing < small_compiled.num_scan_cells:
            assert not response.errors_at(
                small_compiled.num_scan_cells - 1
            ).any() or (small_compiled.num_scan_cells - 1) in response.failing_cells


class TestInsort:
    def test_inserts_keeping_sorted_tail(self):
        from tests.reference.faultsim import _insort

        schedule = [1, 3, 5, 9]
        _insort(schedule, 4, 0)
        assert schedule == [1, 3, 4, 5, 9]
        _insort(schedule, 7, 2)
        assert schedule == [1, 3, 4, 5, 7, 9]

    def test_respects_lo_bound(self):
        from tests.reference.faultsim import _insort

        # The visited prefix may be unsorted; only the tail from ``lo``
        # participates in the binary search.
        schedule = [9, 2, 4, 6]
        _insort(schedule, 5, 1)
        assert schedule == [9, 2, 4, 5, 6]

    def test_random_sequences_stay_sorted(self):
        import random

        from tests.reference.faultsim import _insort

        rand = random.Random(7)
        for _ in range(50):
            schedule = sorted(rand.sample(range(1000), 20))
            for value in rand.sample(range(1000), 30):
                if value not in schedule:
                    _insort(schedule, value, 0)
            assert schedule == sorted(schedule)

    def test_bisect_imported_at_module_scope(self):
        # The hot loop must not pay a per-call ``import bisect``.
        import inspect

        import tests.reference.faultsim as faultsim

        assert hasattr(faultsim, "bisect")
        assert "import bisect" not in inspect.getsource(faultsim._insort)
