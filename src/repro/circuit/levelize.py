"""Topological ordering, levelization and fanout-cone analysis.

All algorithms operate on the *combinational view* of a full-scan circuit:
primary inputs and flip-flop outputs are sources, primary outputs and
flip-flop D inputs are sinks.  Cycles through flip-flops are therefore cut.

:func:`index_netlist` is the one structural pass over a netlist: a single
walk validates it, orders it and levels it over integer gate ids.
``Netlist.validate``, :func:`topological_order`, :func:`levelize`, the
compiled simulator and the fault universe all derive from its
:class:`NetlistIndex`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from ..telemetry import span
from .netlist import GateType, Netlist, NetlistError

#: Gate-type codes: ``NetlistIndex.codes[g]`` indexes this tuple.
GATE_TYPES = tuple(GateType)
_CODE = {gtype: code for code, gtype in enumerate(GATE_TYPES)}
_COMBINATIONAL = tuple(gtype.is_combinational for gtype in GATE_TYPES)


@dataclass(frozen=True)
class NetlistIndex:
    """A validated netlist as integer arrays.

    Gate ids are positions in the netlist's insertion order.  Only
    combinational gates have fanin rows; ``INPUT`` and ``DFF`` gates are
    the sources of the combinational view.
    """

    #: Gate output nets by gate id.
    names: List[str]
    #: ``(n,)`` int8 — :data:`GATE_TYPES` code per gate id.
    codes: np.ndarray
    #: ``(n + 1,)`` int64 — fanin CSR offsets: gate ``g`` reads
    #: ``fanin_ids[fanin_ptr[g]:fanin_ptr[g + 1]]``, in pin order.
    fanin_ptr: np.ndarray
    #: ``(fanin_ptr[-1],)`` int64 — flat fanin gate ids.
    fanin_ids: np.ndarray
    #: ``(n,)`` int64 — gate ids in Kahn order: sources first in
    #: insertion order, every combinational gate after all of its fanins.
    order: np.ndarray
    #: ``(n,)`` int64 — position of each gate id in :attr:`order`.
    rank: np.ndarray
    #: ``(n,)`` int32 — combinational depth per gate id (sources at 0).
    level: np.ndarray
    #: ``(n + 1,)`` int64 — fanout CSR offsets: gate ``g`` feeds the
    #: combinational gates ``fanout_ids[fanout_ptr[g]:fanout_ptr[g + 1]]``,
    #: one entry per pin, in gate insertion order.
    fanout_ptr: np.ndarray
    #: ``(fanin_ptr[-1],)`` int64 — flat fanout gate ids.
    fanout_ids: np.ndarray

    @property
    def num_gates(self) -> int:
        return len(self.names)


def index_netlist(netlist: Netlist) -> NetlistIndex:
    """Validate, order and level ``netlist`` in one structural pass.

    Raises :class:`NetlistError` on an undriven output, a dangling fanin,
    a declared input that is not an ``INPUT`` gate, or a combinational
    loop (naming a net on the loop).
    """
    with span("netlist.index", circuit=netlist.name):
        return _index(netlist)


def _index(netlist: Netlist) -> NetlistIndex:
    gates = netlist.gates
    names = list(gates)
    ids = {net: gid for gid, net in enumerate(names)}
    for net in netlist.outputs:
        if net not in ids:
            raise NetlistError(f"output {net!r} has no driver")
    n = len(names)
    codes = [0] * n
    counts = [0] * n
    flat: List[int] = []
    fanout: List[List[int]] = [[] for _ in range(n)]
    code_of = _CODE
    combinational = _COMBINATIONAL
    for gid, gate in enumerate(gates.values()):
        code = code_of[gate.gtype]
        codes[gid] = code
        try:
            fanins = [ids[src] for src in gate.fanins]
        except KeyError as missing:
            raise NetlistError(
                f"net {missing.args[0]!r} (fanin of {gate.output!r}) has no driver"
            ) from None
        if combinational[code]:
            counts[gid] = len(fanins)
            flat.extend(fanins)
            for src in fanins:
                fanout[src].append(gid)
    for net in netlist.inputs:
        gate = gates.get(net)
        if gate is None or gate.gtype is not GateType.INPUT:
            raise NetlistError(f"declared input {net!r} is not an INPUT gate")

    # Kahn's algorithm.  The order list doubles as the FIFO queue, and a
    # gate joins it only after all of its fanins, so its level is final.
    indegree = counts[:]
    order = [gid for gid in range(n) if not indegree[gid]]
    level = [0] * n
    head = 0
    while head < len(order):
        gid = order[head]
        head += 1
        succ_level = level[gid] + 1
        for succ in fanout[gid]:
            if level[succ] < succ_level:
                level[succ] = succ_level
            indegree[succ] -= 1
            if not indegree[succ]:
                order.append(succ)
    if len(order) != n:
        raise NetlistError(
            f"combinational loop through net {_net_on_loop(netlist, ids, indegree)!r}"
        )

    fanin_ptr = np.zeros(n + 1, dtype=np.int64)
    fanin_ptr[1:] = np.cumsum(counts)
    fanin_ids = np.array(flat, dtype=np.int64)
    order_ids = np.array(order, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order_ids] = np.arange(n, dtype=np.int64)
    # Fanout CSR: the fanin slots grouped by source; the stable sort keeps
    # the consumers of one source in slot (= gate insertion) order.
    fanout_ptr = np.zeros(n + 1, dtype=np.int64)
    fanout_ptr[1:] = np.cumsum(np.bincount(fanin_ids, minlength=n))
    consumer = np.repeat(np.arange(n, dtype=np.int64), counts)
    return NetlistIndex(
        names=names,
        codes=np.array(codes, dtype=np.int8),
        fanin_ptr=fanin_ptr,
        fanin_ids=fanin_ids,
        order=order_ids,
        rank=rank,
        level=np.array(level, dtype=np.int32),
        fanout_ptr=fanout_ptr,
        fanout_ids=consumer[np.argsort(fanin_ids, kind="stable")],
    )


def _net_on_loop(netlist: Netlist, ids: Dict[str, int], indegree: List[int]) -> str:
    """A net on a combinational loop, given Kahn's leftover in-degrees.

    Every gate Kahn never ordered has a fanin it never ordered either, so
    walking such fanins backwards from the first one must revisit a gate,
    and that gate lies on a loop.
    """
    names = list(netlist.gates)
    net = names[next(gid for gid, deg in enumerate(indegree) if deg)]
    seen: Set[str] = set()
    while net not in seen:
        seen.add(net)
        net = next(src for src in netlist.gates[net].fanins if indegree[ids[src]])
    return net


def topological_order(netlist: Netlist) -> List[str]:
    """Nets in an order where every combinational gate follows its fanins.

    ``INPUT`` and ``DFF`` nets (the combinational sources) come first.
    Kahn's algorithm; deterministic given the netlist insertion order.
    """
    index = index_netlist(netlist)
    return [index.names[gid] for gid in index.order.tolist()]


def levelize(netlist: Netlist) -> Dict[str, int]:
    """Combinational depth of each net (sources at level 0), in
    topological order."""
    index = index_netlist(netlist)
    levels = index.level.tolist()
    return {index.names[gid]: levels[gid] for gid in index.order.tolist()}


def fanout_cone(netlist: Netlist, root: str) -> Set[str]:
    """All nets reachable from ``root`` through combinational gates.

    The cone stops at flip-flop D inputs and primary outputs: a ``DFF`` net
    is *not* in the cone of its own D input (the capture edge ends the
    pattern).  ``root`` itself is included.
    """
    fanout = netlist.fanout_map()
    cone: Set[str] = {root}
    frontier = deque([root])
    while frontier:
        net = frontier.popleft()
        for succ in fanout.get(net, ()):
            if succ in cone:
                continue
            if not netlist.gates[succ].gtype.is_combinational:
                continue  # DFF: the D value is captured, not propagated
            cone.add(succ)
            frontier.append(succ)
    return cone


def observing_cells(netlist: Netlist, root: str, scan_order: Sequence[str]) -> List[int]:
    """Scan-chain positions of the flip-flops whose D input lies in the
    fanout cone of ``root`` (i.e. the cells that *can* capture an error from
    a fault on ``root``).

    ``scan_order`` is the list of DFF output nets in chain order; the return
    value is sorted positions into that list.
    """
    cone = fanout_cone(netlist, root)
    positions = [
        idx
        for idx, ff_net in enumerate(scan_order)
        if netlist.gates[ff_net].fanins[0] in cone
    ]
    return positions


def cone_gate_schedule(netlist: Netlist, root: str, topo: Sequence[str]) -> List[str]:
    """Combinational gates in the fanout cone of ``root``, in topological
    order — the exact evaluation schedule for event-driven fault simulation.
    """
    cone = fanout_cone(netlist, root)
    return [
        net
        for net in topo
        if net in cone and netlist.gates[net].gtype.is_combinational
    ]


def cone_span(positions: Sequence[int]) -> int:
    """Span (max - min + 1) of a set of scan positions; 0 if empty.

    Used to quantify the clustering of failing scan cells (paper Fig. 2).
    """
    if not positions:
        return 0
    return max(positions) - min(positions) + 1
