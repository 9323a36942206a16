"""Embedded core wrapper: a reusable module with internal scan cells.

In the paper's SOC scenario each core is a full-scan ISCAS-89 circuit whose
internal scan chain segments are threaded onto SOC-level meta scan chains
(TestRail daisy-chain architecture [10]).  The wrapper owns the core's
compiled circuit and pattern set and produces fault responses in *local*
cell coordinates; the :class:`repro.soc.testrail.TestRail` maps those onto
the meta chains.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..bist.patterns import fast_pattern_matrices
from ..circuit.netlist import Netlist
# ``collapse_faults`` (the list form) stays importable from here; cores
# sample from the lazy ``fault_universe`` instead.
from ..sim.faults import FaultUniverse, collapse_faults, fault_universe  # noqa: F401
from ..sim.faultsim import FaultResponse, FaultSimulator
from ..sim.logicsim import CompiledCircuit
from ..telemetry import span

#: Smallest fault slab worth handing to ``simulate_faults`` while sampling
#: for detected faults — keeps the batched kernel fed near the tail.
_SAMPLE_SLAB_MIN = 32


class EmbeddedCore:
    """One core of the SOC, with its own BIST pattern expansion.

    The TestRail transports one shared pseudo-random stream, but because
    each core's scan segment occupies a fixed slice of the meta chains, the
    values any core receives are statistically independent pseudo-random
    bits; modelling them as a per-core seeded stream is equivalent and lets
    the cores simulate independently.
    """

    def __init__(
        self,
        netlist: Netlist,
        num_patterns: int = 128,
        pattern_seed: int = 0xACE1,
    ):
        self.netlist = netlist
        self.name = netlist.name
        self.compiled = CompiledCircuit(netlist)
        self.num_patterns = num_patterns
        pi_values, ff_values = fast_pattern_matrices(
            self.compiled.num_inputs,
            self.compiled.num_scan_cells,
            num_patterns,
            seed=pattern_seed ^ hash_name(netlist.name),
        )
        self._good = self.compiled.simulate(pi_values, ff_values, num_patterns)
        self._fault_simulator = FaultSimulator(self.compiled, self._good)
        self._collapsed: Optional[FaultUniverse] = None

    @property
    def num_cells(self) -> int:
        return self.compiled.num_scan_cells

    @property
    def fault_simulator(self) -> FaultSimulator:
        return self._fault_simulator

    def collapsed_faults(self) -> FaultUniverse:
        """The core's collapsed fault universe (built once, from the
        compiled circuit's structural index)."""
        if self._collapsed is None:
            with span("fault.universe", circuit=self.name):
                self._collapsed = fault_universe(self.compiled.index)
        return self._collapsed

    def sample_fault_responses(
        self,
        count: int,
        rng: np.random.Generator,
        detected_only: bool = True,
    ) -> List[FaultResponse]:
        """Inject ``count`` sampled stuck-at faults and return their error
        matrices (local cell ids).  With ``detected_only`` the sample is
        drawn until ``count`` detected faults are found or the collapsed
        list is exhausted — mirroring the paper's "inject 500 single
        stuck-at faults" protocol, where undetected faults contribute
        nothing to DR."""
        universe = self.collapsed_faults()
        # ``permutation(n)`` draws exactly the swaps ``shuffle`` makes on
        # a length-n list, so this is the shuffled collapsed list's order
        # without building a Fault for every entry.
        order = rng.permutation(len(universe))
        responses: List[FaultResponse] = []
        pos = 0
        while pos < len(order) and len(responses) < count:
            # Simulate a slab at a time so the fault-batched kernel (and
            # the worker pool) serve the sampling loop; selection still
            # follows shuffle order exactly, so the chosen responses are
            # bit-identical to the one-at-a-time loop.  A slab may
            # simulate a few faults past ``count`` — undetected faults
            # make that unavoidable anyway.
            need = count - len(responses)
            slab = universe.take(order[pos:pos + max(need, _SAMPLE_SLAB_MIN)])
            pos += len(slab)
            for response in self._fault_simulator.simulate_faults(slab):
                if detected_only and not response.detected:
                    continue
                responses.append(response)
                if len(responses) >= count:
                    break
        return responses


def hash_name(name: str) -> int:
    """A stable 31-bit hash of a circuit or core name, used to derive
    per-circuit seeds (patterns here, fault samples in the runners)."""
    value = 0
    for ch in name:
        value = (value * 131 + ord(ch)) & 0x7FFFFFFF
    return value
