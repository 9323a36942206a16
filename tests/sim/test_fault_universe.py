"""The array-backed fault universe against the original collapse loop
(``tests/reference/faults.py``), and core fault sampling against the
original shuffle-and-slab sampler."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.circuit.bench import parse_bench
from repro.circuit.levelize import index_netlist
from repro.circuit.library import get_circuit
from repro.sim import faults as faults_module
from repro.sim.faults import Fault, FaultUniverse, collapse_faults, fault_universe
from repro.sim.faultsim import FaultSimulator
from repro.soc.core_wrapper import EmbeddedCore
from tests.circuit.netlist_strategies import netlists
from tests.reference.faults import collapse_faults as reference_collapse
from tests.sim.test_faults import SIMPLE


def assert_universe_matches(netlist):
    expected = reference_collapse(netlist)
    universe = fault_universe(index_netlist(netlist))
    assert isinstance(universe, FaultUniverse)
    assert len(universe) == len(expected)
    assert list(universe) == expected
    assert collapse_faults(netlist) == expected


def test_s27(s27_netlist):
    assert_universe_matches(s27_netlist)


def test_simple():
    assert_universe_matches(parse_bench(SIMPLE, name="simple"))


def test_generated(small_netlist, tiny_netlist):
    assert_universe_matches(small_netlist)
    assert_universe_matches(tiny_netlist)


@pytest.mark.parametrize("name", ["s953", "s5378"])
def test_library(name):
    assert_universe_matches(get_circuit(name))


@settings(max_examples=60, deadline=None)
@given(netlist=netlists())
def test_random_netlists(netlist):
    assert_universe_matches(netlist)


class TestIndexing:
    @pytest.fixture(scope="class")
    def pair(self, s27_netlist):
        return fault_universe(index_netlist(s27_netlist)), reference_collapse(s27_netlist)

    def test_positive_and_negative_indices(self, pair):
        universe, expected = pair
        for i in range(-len(expected), len(expected)):
            assert universe[i] == expected[i]
        assert universe[np.int64(3)] == expected[3]

    def test_out_of_range(self, pair):
        universe, expected = pair
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                universe[i]

    @pytest.mark.parametrize("item", [slice(None), slice(2, 9), slice(None, None, -1),
                                      slice(-5, None), slice(1, 20, 3), slice(9, 2)])
    def test_slices(self, pair, item):
        universe, expected = pair
        assert universe[item] == expected[item]

    def test_take(self, pair):
        universe, expected = pair
        picks = np.array([5, 0, -1, 5, 2])
        assert universe.take(picks) == [expected[i] for i in picks]
        assert universe.take([]) == []
        assert universe.take(slice(3, 6)) == expected[3:6]

    def test_sequence_api(self, pair):
        universe, expected = pair
        assert expected[4] in universe
        assert Fault("no-such-net", 0) not in universe
        assert universe.index(expected[7]) == 7
        assert list(reversed(universe)) == expected[::-1]

    def test_read_only(self, pair):
        universe, _ = pair
        for array in (universe.net, universe.stuck_at, universe.pin_gate, universe.pin_pos):
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_net_faults_have_no_pin(self, pair):
        universe, _ = pair
        net_faults = universe.pin_gate < 0
        assert (universe.pin_pos[net_faults] == -1).all()
        assert all(f.pin is None for f in universe.take(np.flatnonzero(net_faults)))


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
@pytest.mark.parametrize("seed", [0, 1, 7, 20030301, 2**31 - 1])
def test_permutation_draws_the_shuffle_order(n, seed):
    shuffled = list(range(n))
    by_shuffle = np.random.default_rng(seed)
    by_shuffle.shuffle(shuffled)
    by_permutation = np.random.default_rng(seed)
    assert by_permutation.permutation(n).tolist() == shuffled
    # Both consumed the same draws, so the streams stay in step.
    assert by_permutation.integers(2**62) == by_shuffle.integers(2**62)


def reference_sample(core, count, rng, detected_only=True, slab_min=32):
    """The original ``sample_fault_responses``: shuffle the whole
    collapsed list, then simulate it a slab at a time."""
    universe = list(reference_collapse(core.netlist))
    rng.shuffle(universe)
    responses = []
    pos = 0
    while pos < len(universe) and len(responses) < count:
        need = count - len(responses)
        slab = universe[pos:pos + max(need, slab_min)]
        pos += len(slab)
        for response in core.fault_simulator.simulate_faults(slab):
            if detected_only and not response.detected:
                continue
            responses.append(response)
            if len(responses) >= count:
                break
    return responses


def assert_same_responses(actual, expected):
    assert [r.fault for r in actual] == [r.fault for r in expected]
    for a, b in zip(actual, expected):
        assert a.cell_errors.keys() == b.cell_errors.keys()
        for cell in a.cell_errors:
            np.testing.assert_array_equal(a.cell_errors[cell], b.cell_errors[cell])


class TestSampling:
    @pytest.fixture(scope="class")
    def core(self, small_netlist):
        return EmbeddedCore(small_netlist, num_patterns=48)

    @pytest.mark.parametrize("count", [1, 5, 40, 100])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_reference_sampler(self, core, count, seed):
        actual = core.sample_fault_responses(count, np.random.default_rng(seed))
        expected = reference_sample(core, count, np.random.default_rng(seed))
        assert len(actual) == count
        assert_same_responses(actual, expected)

    def test_undetected_kept_when_asked(self, core):
        actual = core.sample_fault_responses(50, np.random.default_rng(2), detected_only=False)
        expected = reference_sample(core, 50, np.random.default_rng(2), detected_only=False)
        assert_same_responses(actual, expected)

    def test_universe_runs_out(self, s27_netlist):
        # Few patterns leave some faults undetected, so the whole universe
        # is simulated before ``count`` detected faults are found.
        core = EmbeddedCore(s27_netlist, num_patterns=2)
        count = len(core.collapsed_faults())
        actual = core.sample_fault_responses(count, np.random.default_rng(5))
        expected = reference_sample(core, count, np.random.default_rng(5))
        assert 0 < len(actual) < count
        assert_same_responses(actual, expected)

    def test_builds_faults_only_for_simulated_slabs(self, small_netlist, monkeypatch):
        core = EmbeddedCore(small_netlist, num_patterns=48)
        built, simulated = [], []
        make = faults_module._trusted_fault
        monkeypatch.setattr(faults_module, "_trusted_fault",
                            lambda *args: built.append(1) or make(*args))
        simulate = FaultSimulator.simulate_faults
        monkeypatch.setattr(FaultSimulator, "simulate_faults",
                            lambda self, faults, **kw: simulated.append(len(faults))
                            or simulate(self, faults, **kw))
        core.sample_fault_responses(10, np.random.default_rng(0))
        assert len(built) == sum(simulated) < len(core.collapsed_faults())
