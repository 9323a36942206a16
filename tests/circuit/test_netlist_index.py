"""The one structural pass (``index_netlist``) against the original
string-keyed walks in ``tests/reference/levelize.py``: same order, levels,
compiled rows and ops, fanout index and SoA digest, and the same
``NetlistError`` cases."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings

from repro.bist.patterns import fast_pattern_matrices
from repro.circuit.levelize import index_netlist, levelize, topological_order
from repro.circuit.library import get_circuit
from repro.circuit.netlist import GateType, Netlist, NetlistError
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import CompiledCircuit
from repro.sim.soa import build_schedule, structural_digest
from tests.circuit.netlist_strategies import netlists
from tests.reference import levelize as ref

#: SoA structural digests of the library circuits before the structural
#: pass was rewritten; equal digests keep disk-cached schedules valid.
LIBRARY_DIGESTS = {
    "s27": "b89241eb75b0051f089e63a9117174b2",
    "s953": "d2fd358d4a81e2c1c5edd3b06060c21b",
    "s5378": "4eeac27865f37e2f6dc64c2a32ca51d0",
}


def assert_matches_reference(netlist: Netlist) -> CompiledCircuit:
    expected = ref.compile_netlist(netlist)
    assert topological_order(netlist) == ref.topological_order(netlist)
    levels = levelize(netlist)
    assert list(levels.items()) == list(ref.levelize(netlist).items())

    compiled = CompiledCircuit(netlist)
    assert compiled.net_order == expected["net_order"]
    assert compiled.net_index == expected["net_index"]
    assert compiled.scan_cells == expected["scan_cells"]
    for rows in ("pi_rows", "ff_rows", "ff_capture_rows", "po_rows"):
        assert getattr(compiled, rows).tolist() == expected[rows], rows
    assert compiled._ops == expected["ops"]
    assert repr(compiled._ops) == repr(expected["ops"])  # Python ints, not numpy

    pi, ff = fast_pattern_matrices(compiled.num_inputs, compiled.num_scan_cells, 8, seed=1)
    simulator = FaultSimulator(compiled, compiled.simulate(pi, ff, 8))
    assert simulator._fanout == ref.fanout_index(netlist, expected["net_index"])

    schedule = build_schedule(compiled)
    assert schedule.level_of.tolist() == [levels[n] for n in compiled.net_order]
    old = SimpleNamespace(num_nets=len(expected["net_order"]), _ops=expected["ops"])
    assert structural_digest(compiled) == structural_digest(old)
    return compiled


@pytest.mark.parametrize("name", sorted(LIBRARY_DIGESTS))
def test_library_circuits_match_reference(name):
    compiled = assert_matches_reference(get_circuit(name))
    assert structural_digest(compiled) == LIBRARY_DIGESTS[name]


@settings(max_examples=60, deadline=None)
@given(netlist=netlists())
def test_random_netlists_match_reference(netlist):
    assert_matches_reference(netlist)


def on_a_loop(netlist: Netlist, net: str) -> bool:
    """Whether ``net`` reaches itself through combinational fanins."""
    seen, stack = set(), [net]
    while stack:
        gate = netlist.gates[stack.pop()]
        if not gate.gtype.is_combinational:
            continue
        for src in gate.fanins:
            if src == net:
                return True
            if src not in seen:
                seen.add(src)
                stack.append(src)
    return False


@settings(max_examples=80, deadline=None)
@given(netlist=netlists(max_gates=12, cyclic=True))
def test_validate_agrees_with_reference_on_cyclic_netlists(netlist):
    try:
        ref.validate(netlist)
    except NetlistError:
        with pytest.raises(NetlistError, match="loop through net") as info:
            netlist.validate()
        named = str(info.value).split("'")[1]
        assert on_a_loop(netlist, named)
    else:
        netlist.validate()
        assert_matches_reference(netlist)


def base_netlist() -> Netlist:
    net = Netlist("bad")
    net.add_input("A")
    net.add_input("B")
    net.add_gate("N1", GateType.AND, ["A", "B"])
    net.add_dff("F0", "N1")
    net.add_output("N1")
    return net


def self_loop():
    net = base_netlist()
    net.add_gate("X", GateType.AND, ["A", "X"])
    return net, "X"


def three_gate_cycle():
    net = base_netlist()
    net.add_gate("X", GateType.AND, ["A", "Z"])
    net.add_gate("Y", GateType.OR, ["X", "B"])
    net.add_gate("Z", GateType.NOT, ["Y"])
    return net, "[XYZ]"


def cycle_feeding_downstream():
    # D1 and D2 sit downstream of the X<->Y loop (and are inserted first),
    # so Kahn leaves them unordered too; only X or Y may be named.
    net = base_netlist()
    net.add_gate("D2", GateType.NAND, ["D1", "A"])
    net.add_gate("D1", GateType.XOR, ["Y", "B"])
    net.add_gate("X", GateType.AND, ["A", "Y"])
    net.add_gate("Y", GateType.OR, ["X", "B"])
    net.add_dff("F1", "D2")
    net.add_output("D2")
    return net, "[XY]"


def dangling_fanin():
    net = base_netlist()
    net.add_gate("N3", GateType.AND, ["A", "GHOST"])
    return net, "GHOST"


def dangling_dff_input():
    net = base_netlist()
    net.add_dff("F9", "NOWHERE")
    return net, "NOWHERE"


def undeclared_input():
    net = base_netlist()
    net.inputs.append("N1")  # declared as an input, driven by an AND
    return net, "N1"


def undriven_output():
    net = base_netlist()
    net.add_output("MISSING")
    return net, "MISSING"


BROKEN = [self_loop, three_gate_cycle, cycle_feeding_downstream, dangling_fanin,
          dangling_dff_input, undeclared_input, undriven_output]


@pytest.mark.parametrize("build", BROKEN, ids=lambda f: f.__name__)
@pytest.mark.parametrize("check", [Netlist.validate, CompiledCircuit, index_netlist],
                         ids=["validate", "CompiledCircuit", "index_netlist"])
def test_broken_netlists_raise(build, check):
    netlist, net = build()
    with pytest.raises(NetlistError, match=rf"'{net}'"):
        check(netlist)


@pytest.mark.parametrize("build", [dangling_fanin, dangling_dff_input,
                                   undeclared_input, undriven_output],
                         ids=lambda f: f.__name__)
def test_non_loop_errors_keep_their_messages(build):
    netlist, _ = build()
    with pytest.raises(NetlistError) as expected:
        ref.validate(netlist)
    with pytest.raises(NetlistError) as actual:
        netlist.validate()
    assert str(actual.value) == str(expected.value)


def test_index_layout(s27_netlist):
    index = index_netlist(s27_netlist)
    ids = {net: gid for gid, net in enumerate(index.names)}
    assert index.names == list(s27_netlist.gates)
    assert sorted(index.order.tolist()) == list(range(index.num_gates))
    assert index.rank[index.order].tolist() == list(range(index.num_gates))
    consumers = {gid: [] for gid in range(index.num_gates)}
    for gid, net in enumerate(index.names):
        gate = s27_netlist.gates[net]
        row = index.fanin_ids[index.fanin_ptr[gid]:index.fanin_ptr[gid + 1]]
        expected = [ids[src] for src in gate.fanins] if gate.gtype.is_combinational else []
        assert row.tolist() == expected
        for src in expected:
            consumers[src].append(gid)
    for gid, expected in consumers.items():
        row = index.fanout_ids[index.fanout_ptr[gid]:index.fanout_ptr[gid + 1]]
        assert row.tolist() == expected


def test_empty_netlist():
    index = index_netlist(Netlist("empty"))
    assert index.num_gates == 0
    assert CompiledCircuit(Netlist("empty"))._ops == []
