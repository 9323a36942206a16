"""Reference structural passes: the original string-keyed walks.

Kept verbatim as the oracles for :func:`repro.circuit.levelize.index_netlist`
and everything derived from it: Kahn's topological order, levelization,
the DFS combinational-loop check of ``Netlist.validate``, the per-gate
compile of ``CompiledCircuit`` and the fault simulator's fanout index.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.circuit.netlist import GateType, Netlist, NetlistError
from repro.sim.logicsim import _BASE_OP


def topological_order(netlist: Netlist) -> List[str]:
    """Nets in an order where every combinational gate follows its fanins.

    ``INPUT`` and ``DFF`` nets (the combinational sources) come first.
    Kahn's algorithm; deterministic given the netlist insertion order.
    """
    indegree: Dict[str, int] = {}
    fanout: Dict[str, List[str]] = {net: [] for net in netlist.gates}
    for net, gate in netlist.gates.items():
        if gate.gtype.is_combinational:
            indegree[net] = len(gate.fanins)
            for src in gate.fanins:
                fanout[src].append(net)
        else:
            indegree[net] = 0
    ready = deque(net for net, deg in indegree.items() if deg == 0)
    order: List[str] = []
    while ready:
        net = ready.popleft()
        order.append(net)
        for succ in fanout[net]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(netlist.gates):
        raise ValueError("netlist has a combinational loop")
    return order


def levelize(netlist: Netlist) -> Dict[str, int]:
    """Combinational depth of each net (sources at level 0)."""
    levels: Dict[str, int] = {}
    for net in topological_order(netlist):
        gate = netlist.gates[net]
        if gate.gtype.is_combinational:
            levels[net] = 1 + max(levels[src] for src in gate.fanins)
        else:
            levels[net] = 0
    return levels


def validate(netlist: Netlist) -> None:
    """Raise :class:`NetlistError` on dangling nets, combinational loops,
    or malformed I/O declarations."""
    for net in netlist.outputs:
        if net not in netlist.gates:
            raise NetlistError(f"output {net!r} has no driver")
    for gate in netlist.gates.values():
        for src in gate.fanins:
            if src not in netlist.gates:
                raise NetlistError(
                    f"net {src!r} (fanin of {gate.output!r}) has no driver"
                )
    for net in netlist.inputs:
        gate = netlist.gates.get(net)
        if gate is None or gate.gtype is not GateType.INPUT:
            raise NetlistError(f"declared input {net!r} is not an INPUT gate")
    check_combinational_loops(netlist)


def check_combinational_loops(netlist: Netlist) -> None:
    # DFF outputs and primary inputs break cycles; only combinational
    # gates participate.  Iterative DFS with explicit stack (circuits can
    # be tens of thousands of gates deep in pathological cases).
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    for root, root_gate in netlist.gates.items():
        if not root_gate.gtype.is_combinational or color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            net, idx = stack[-1]
            fanins = netlist.gates[net].fanins
            if idx == len(fanins):
                color[net] = BLACK
                stack.pop()
                continue
            stack[-1] = (net, idx + 1)
            child = fanins[idx]
            child_gate = netlist.gates[child]
            if not child_gate.gtype.is_combinational:
                continue
            state = color.get(child, WHITE)
            if state == GRAY:
                raise NetlistError(f"combinational loop through net {child!r}")
            if state == WHITE:
                color[child] = GRAY
                stack.append((child, 0))


def compile_netlist(netlist: Netlist) -> dict:
    """The original ``CompiledCircuit.__init__``: validate, order, then
    compile rows and per-gate ops by string lookups."""
    validate(netlist)
    topo = topological_order(netlist)
    net_index = {net: i for i, net in enumerate(topo)}
    scan_cells = [g.output for g in netlist.flip_flops]
    ops = []
    for net in topo:
        gate = netlist.gates[net]
        if not gate.gtype.is_combinational:
            continue
        op, invert = _BASE_OP[gate.gtype]
        fanin_idx = tuple(net_index[f] for f in gate.fanins)
        ops.append((net_index[net], op, invert, fanin_idx))
    return dict(
        net_order=topo,
        net_index=net_index,
        scan_cells=scan_cells,
        pi_rows=[net_index[n] for n in netlist.inputs],
        ff_rows=[net_index[n] for n in scan_cells],
        ff_capture_rows=[net_index[netlist.gates[n].fanins[0]] for n in scan_cells],
        po_rows=[net_index[n] for n in netlist.outputs],
        ops=ops,
    )


def fanout_index(netlist: Netlist, net_index: Dict[str, int]) -> Dict[int, List[int]]:
    """The original ``FaultSimulator._build_fanout_index``."""
    fanout: Dict[int, List[int]] = {}
    for net, gate in netlist.gates.items():
        if not gate.gtype.is_combinational:
            continue
        out_idx = net_index[net]
        for src in gate.fanins:
            fanout.setdefault(net_index[src], []).append(out_idx)
    return fanout
