"""Gate-level netlist data structures, analysis and emitters."""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".cif": ("floorplan_to_cif", "layout_to_cif", "parse_cif_boxes"),
    ".gates": ("GateInstance", "GateNetlist", "NetInfo", "NetlistError"),
    ".graph": (
        "combinational_order",
        "driver_of",
        "fanout_counts",
        "logic_depth",
        "transitive_fanin",
        "transitive_fanout",
    ),
    ".structural": ("ComponentRef", "StructuralNetlist", "flatten_to_gates"),
    ".vhdl": (
        "gate_netlist_architecture_body",
        "gate_netlist_to_vhdl",
        "structural_vhdl",
        "vhdl_component_declaration",
        "vhdl_entity",
    ),
})
