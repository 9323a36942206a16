"""Single stuck-at fault universe and structural equivalence collapsing.

A fault is either a *net* (gate output / stem) fault or an *input-pin*
(branch) fault of a specific gate.  Collapsing applies the textbook
gate-local equivalence rules:

* ``BUF``/``NOT``: every input fault is equivalent to an output fault.
* ``AND``/``NAND``: input stuck-at-0 is equivalent to output stuck-at-0/1.
* ``OR``/``NOR``: input stuck-at-1 is equivalent to output stuck-at-1/0.
* A net with exactly one fanout pin makes the pin fault equivalent to the
  net fault.

``XOR``/``XNOR`` inputs do not collapse.

:func:`fault_universe` applies these rules with numpy over a
:class:`~repro.circuit.levelize.NetlistIndex` and keeps the result as index
arrays (:class:`FaultUniverse`); :func:`collapse_faults` is its list form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.levelize import GATE_TYPES, NetlistIndex, index_netlist
from ..circuit.netlist import GateType, Netlist


@dataclass(frozen=True, order=True)
class Fault:
    """A single stuck-at fault.

    ``net`` is the faulty signal.  For a net (stem/output) fault ``pin`` is
    ``None``; for an input-pin fault, ``pin = (gate_output, fanin_position)``
    identifies the branch where the fault sits.
    """

    net: str
    stuck_at: int
    pin: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        if self.stuck_at not in (0, 1):
            raise ValueError("stuck_at must be 0 or 1")

    @property
    def site(self) -> str:
        """The gate whose output starts the fault's propagation cone."""
        return self.pin[0] if self.pin is not None else self.net

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = self.net if self.pin is None else f"{self.net}->{self.pin[0]}[{self.pin[1]}]"
        return f"{where}/sa{self.stuck_at}"


def full_fault_list(netlist: Netlist) -> List[Fault]:
    """All net faults plus all input-pin faults (the uncollapsed universe)."""
    faults: List[Fault] = []
    for net, gate in netlist.gates.items():
        if gate.gtype is GateType.DFF:
            continue  # scan cells themselves assumed fault-free (chain tested separately)
        faults.append(Fault(net, 0))
        faults.append(Fault(net, 1))
    for net, gate in netlist.gates.items():
        if not gate.gtype.is_combinational:
            continue
        for pos, src in enumerate(gate.fanins):
            faults.append(Fault(src, 0, pin=(net, pos)))
            faults.append(Fault(src, 1, pin=(net, pos)))
    return faults


_DFF = GATE_TYPES.index(GateType.DFF)
#: Per gate-type code: True for BUF/NOT, whose input faults all equal
#: output faults.
_UNARY = np.array([g in (GateType.BUF, GateType.NOT) for g in GATE_TYPES])
#: Per gate-type code: the controlling input value, -1 where none.
_CONTROLLING = np.array(
    [
        0 if g in (GateType.AND, GateType.NAND)
        else 1 if g in (GateType.OR, GateType.NOR)
        else -1
        for g in GATE_TYPES
    ],
    dtype=np.int8,
)


class FaultUniverse(Sequence[Fault]):
    """The collapsed fault list as four parallel index arrays.

    Read-only and ordered exactly like :func:`collapse_faults`; a
    :class:`Fault` object is built only when an entry is read, so callers
    that simulate a sample never materialize the rest.  Pin-less (net)
    faults hold ``-1`` in ``pin_gate`` and ``pin_pos``.
    """

    def __init__(
        self,
        names: Sequence[str],
        net: np.ndarray,
        stuck_at: np.ndarray,
        pin_gate: np.ndarray,
        pin_pos: np.ndarray,
    ):
        self.names = names
        self.net = net
        self.stuck_at = stuck_at
        self.pin_gate = pin_gate
        self.pin_pos = pin_pos
        for array in (net, stuck_at, pin_gate, pin_pos):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.net)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.take(item)
        return self.take([item])[0]

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.take(slice(None)))

    def take(self, indices) -> List[Fault]:
        """The faults at ``indices`` (any numpy index: ints, negative ints,
        an index array or a slice), in that order."""
        names = self.names
        return [
            _trusted_fault(names[net], sa, None if gate < 0 else (names[gate], pos))
            for net, sa, gate, pos in zip(
                self.net[indices].tolist(),
                self.stuck_at[indices].tolist(),
                self.pin_gate[indices].tolist(),
                self.pin_pos[indices].tolist(),
            )
        ]


_new_object = object.__new__
_set_field = object.__setattr__


def _trusted_fault(net: str, stuck_at: int, pin: Optional[Tuple[str, int]]) -> Fault:
    """``Fault(net, stuck_at, pin)`` without ``__post_init__``'s check, for
    stuck-at values already known to be 0 or 1; it roughly halves the cost
    of materializing a large universe as a list."""
    fault = _new_object(Fault)
    _set_field(fault, "net", net)
    _set_field(fault, "stuck_at", stuck_at)
    _set_field(fault, "pin", pin)
    return fault


def fault_universe(index: NetlistIndex) -> FaultUniverse:
    """Equivalence-collapsed fault universe of an indexed netlist.

    Keeps one representative per equivalence class, preferring net faults
    over pin faults (net faults simulate faster): both stuck-at values of
    every non-DFF net in insertion order, then the surviving pin faults
    gate by gate, pin by pin, stuck-at 0 before 1.
    """
    codes = index.codes
    nets = np.flatnonzero(codes != _DFF)
    n_net = 2 * len(nets)

    counts = np.diff(index.fanin_ptr)
    gate = np.repeat(np.arange(len(codes), dtype=np.int64), counts)
    src = index.fanin_ids
    pos = np.arange(len(src), dtype=np.int64) - index.fanin_ptr[gate]
    fanout = np.diff(index.fanout_ptr)
    # A pin fault survives unless the net has one fanout pin (pin == stem)
    # or the gate is a buffer/inverter (pin == output); of the rest, the
    # controlling-value fault equals an output fault.
    branch = (fanout[src] != 1) & ~_UNARY[codes[gate]]
    controlling = _CONTROLLING[codes[gate]]
    keep = np.stack([branch & (controlling != 0), branch & (controlling != 1)], axis=1)
    slot, stuck = np.nonzero(keep)

    return FaultUniverse(
        index.names,
        net=np.concatenate([np.repeat(nets, 2), src[slot]]),
        stuck_at=np.concatenate([np.tile(np.array([0, 1], np.int8), len(nets)),
                                 stuck.astype(np.int8)]),
        pin_gate=np.concatenate([np.full(n_net, -1, np.int64), gate[slot]]),
        pin_pos=np.concatenate([np.full(n_net, -1, np.int64), pos[slot]]),
    )


def collapse_faults(netlist: Netlist) -> List[Fault]:
    """Equivalence-collapsed fault list (see :func:`fault_universe`)."""
    return list(fault_universe(index_netlist(netlist)))


def sample_faults(
    faults: List[Fault], count: int, rng: np.random.Generator
) -> List[Fault]:
    """Uniform sample without replacement (the paper injects 500 faults per
    circuit; smaller runs sample fewer)."""
    if count >= len(faults):
        return list(faults)
    idx = rng.choice(len(faults), size=count, replace=False)
    return [faults[i] for i in sorted(idx)]
