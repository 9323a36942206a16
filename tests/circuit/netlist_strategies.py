"""Hypothesis strategies for random full-scan netlists.

Gates are inserted in a random order (a gate may name fanins inserted
after it), fanins may repeat, and n-ary gates may have a single fanin —
the corners that insertion-order-sensitive passes and fanout counting
must get right.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.circuit.netlist import GateType, Netlist

COMBINATIONAL = [g for g in GateType if g.is_combinational]


@st.composite
def netlists(draw, max_gates: int = 30, cyclic: bool = False) -> Netlist:
    """A random netlist.  Acyclic unless ``cyclic``, in which case any gate
    may read any net, so combinational loops are likely."""
    n_pi = draw(st.integers(1, 4))
    n_ff = draw(st.integers(0, 4))
    n_gates = draw(st.integers(1, max_gates))
    sources = [f"I{i}" for i in range(n_pi)] + [f"F{i}" for i in range(n_ff)]
    gate_names = [f"G{i}" for i in range(n_gates)]
    every_net = sources + gate_names
    specs = {}
    for i, name in enumerate(gate_names):
        gtype = draw(st.sampled_from(COMBINATIONAL))
        pool = every_net if cyclic else sources + gate_names[:i]
        arity = 1 if gtype in (GateType.NOT, GateType.BUF) else draw(st.integers(1, 4))
        fanins = draw(st.lists(st.sampled_from(pool), min_size=arity, max_size=arity))
        specs[name] = (gtype, fanins)
    d_inputs = {f"F{i}": draw(st.sampled_from(every_net)) for i in range(n_ff)}

    netlist = Netlist("hyp")
    for net in draw(st.permutations(every_net)):
        if net in specs:
            netlist.add_gate(net, *specs[net])
        elif net in d_inputs:
            netlist.add_dff(net, d_inputs[net])
        else:
            netlist.add_input(net)
    for net in draw(st.lists(st.sampled_from(every_net), max_size=4, unique=True)):
        netlist.add_output(net)
    return netlist
