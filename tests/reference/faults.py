"""Reference fault collapsing: the original per-gate loop over the netlist.

Kept verbatim as the oracle for :func:`repro.sim.faults.fault_universe`,
which applies the same rules with numpy over the netlist index and must
return the same faults in the same order.
"""

from __future__ import annotations

from typing import List, Optional

from repro.circuit.netlist import GateType, Netlist
from repro.sim.faults import Fault


def collapse_faults(netlist: Netlist) -> List[Fault]:
    """Equivalence-collapsed fault list.

    Keeps one representative per equivalence class, preferring net faults
    over pin faults (net faults simulate faster).
    """
    fanout_counts: dict = {}
    for gate in netlist.gates.values():
        if not gate.gtype.is_combinational:
            continue
        for src in gate.fanins:
            fanout_counts[src] = fanout_counts.get(src, 0) + 1

    kept: List[Fault] = []
    for net, gate in netlist.gates.items():
        if gate.gtype is GateType.DFF:
            continue
        # Net faults always kept as class representatives.
        kept.append(Fault(net, 0))
        kept.append(Fault(net, 1))
    for net, gate in netlist.gates.items():
        if not gate.gtype.is_combinational:
            continue
        controlling = _controlling_value(gate.gtype)
        for pos, src in enumerate(gate.fanins):
            single_branch = fanout_counts.get(src, 0) == 1
            for sa in (0, 1):
                if single_branch:
                    continue  # pin fault == stem fault on a single-fanout net
                if gate.gtype in (GateType.BUF, GateType.NOT):
                    continue  # equivalent to the output fault
                if controlling is not None and sa == controlling:
                    continue  # controlling-value input fault == output fault
                kept.append(Fault(src, sa, pin=(net, pos)))
    return kept


def _controlling_value(gtype: GateType) -> Optional[int]:
    if gtype in (GateType.AND, GateType.NAND):
        return 0
    if gtype in (GateType.OR, GateType.NOR):
        return 1
    return None
