"""Gate-level circuit substrate: netlist model, .bench I/O, graph analysis,
and the benchmark library (real s27 + synthetic ISCAS-89 stand-ins)."""

from .bench import BenchFormatError, load_bench, parse_bench, save_bench, write_bench
from .generate import CircuitProfile, generate_circuit
from .levelize import (
    NetlistIndex,
    cone_gate_schedule,
    cone_span,
    fanout_cone,
    index_netlist,
    levelize,
    observing_cells,
    topological_order,
)
from .library import D695_MODULES, PROFILES, SIX_LARGEST, get_circuit
from .netlist import Gate, GateType, Netlist, NetlistError, merge_disjoint
from .stats import StructuralStats, compare_stats, structural_stats

__all__ = [
    "BenchFormatError",
    "CircuitProfile",
    "D695_MODULES",
    "Gate",
    "GateType",
    "Netlist",
    "NetlistError",
    "NetlistIndex",
    "PROFILES",
    "SIX_LARGEST",
    "cone_gate_schedule",
    "cone_span",
    "fanout_cone",
    "generate_circuit",
    "get_circuit",
    "index_netlist",
    "levelize",
    "load_bench",
    "merge_disjoint",
    "observing_cells",
    "parse_bench",
    "save_bench",
    "StructuralStats",
    "compare_stats",
    "structural_stats",
    "topological_order",
    "write_bench",
]
