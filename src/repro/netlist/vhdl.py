"""VHDL netlist emission.

A generated component is represented as "a VHDL netlist for logic level
structure" (Section 2.2); synthesis tools also ask for the component's
"VHDL head" (entity/component declaration) so they can assemble a netlist of
ICDB components for simulation (Section 3.3).  This module emits both, plus
structural VHDL for composed designs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .gates import GateNetlist


def _vhdl_identifier(name: str) -> str:
    """Turn a flat signal name (``Q[3]``) into a legal VHDL identifier."""
    out = []
    for char in name:
        if char.isalnum():
            out.append(char)
        else:
            out.append("_")
    text = "".join(out).strip("_")
    while "__" in text:
        text = text.replace("__", "_")
    if not text or not text[0].isalpha():
        text = "s_" + text
    return text.lower()


def _port_declarations(inputs: Sequence[str], outputs: Sequence[str]) -> List[str]:
    lines = []
    ports = [(name, "in") for name in inputs] + [(name, "out") for name in outputs]
    for index, (name, direction) in enumerate(ports):
        separator = ";" if index < len(ports) - 1 else ""
        lines.append(f"    {_vhdl_identifier(name)} : {direction} bit{separator}")
    return lines


def vhdl_port_block(inputs: Sequence[str], outputs: Sequence[str]) -> str:
    """The rendered port-declaration block shared by entity and head.

    The block never mentions the component name, so cached component clones
    render it once per synthesized netlist and reuse it for every emission.
    """
    return "\n".join(_port_declarations(inputs, outputs))


def vhdl_component_declaration(
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    ports: Optional[str] = None,
) -> str:
    """The "VHDL head": a component declaration for use in other netlists.

    ``ports`` optionally supplies a pre-rendered :func:`vhdl_port_block`.
    """
    if ports is None:
        ports = vhdl_port_block(inputs, outputs)
    return (
        f"component {_vhdl_identifier(name)}\n  port (\n"
        f"{ports}\n  );\nend component;\n"
    )


def vhdl_entity(
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    ports: Optional[str] = None,
) -> str:
    """Entity declaration of a component (``ports`` as above)."""
    if ports is None:
        ports = vhdl_port_block(inputs, outputs)
    identifier = _vhdl_identifier(name)
    return (
        f"entity {identifier} is\n  port (\n{ports}\n  );\nend {identifier};\n"
    )


def gate_netlist_to_vhdl(
    netlist: GateNetlist,
    name: Optional[str] = None,
    body: Optional[str] = None,
    ports: Optional[str] = None,
) -> str:
    """Structural VHDL of a mapped gate netlist.

    Cells are instantiated as components from an ``icdb_cells`` library; the
    instance sizes chosen by the transistor sizing tool are recorded as
    generics so the layout generator downstream can honour them.

    ``name`` overrides the entity name (a cached component clone shares the
    template's netlist but must be emitted under its own instance name);
    ``body`` supplies a pre-rendered architecture body from
    :func:`gate_netlist_architecture_body`, which is name-independent and
    therefore shareable between such clones.
    """
    display = name or netlist.name
    entity_name = _vhdl_identifier(display)
    lines: List[str] = []
    lines.append(f"-- structural netlist of {display} (generated by ICDB)")
    lines.append("library icdb_cells;")
    lines.append(
        vhdl_entity(display, netlist.inputs, netlist.outputs, ports=ports).rstrip()
    )
    lines.append("")
    lines.append(f"architecture structure of {entity_name} is")
    if body is None:
        body = gate_netlist_architecture_body(netlist)
    return "\n".join(lines) + "\n" + body


def gate_netlist_architecture_body(netlist: GateNetlist) -> str:
    """The architecture body of :func:`gate_netlist_to_vhdl`.

    Signal declarations, cell component declarations and instantiations --
    everything between ``architecture ... is`` and the end of the file.  The
    text never mentions the entity name, so it can be rendered once per
    synthesized netlist and reused by every instance sharing it.
    """
    lines: List[str] = []

    port_nets = set(netlist.inputs) | set(netlist.outputs)
    internal_nets = sorted(
        {
            net
            for instance in netlist.all_instances()
            for net in instance.nets
            if net not in port_nets
        }
    )
    for net in internal_nets:
        lines.append(f"  signal {_vhdl_identifier(net)} : bit;")

    cell_names = sorted({inst.cell.name for inst in netlist.all_instances()})
    for cell_name in cell_names:
        sample = next(
            inst.cell for inst in netlist.all_instances() if inst.cell.name == cell_name
        )
        lines.append(f"  component {cell_name.lower()}")
        lines.append("    generic (drive : real := 1.0);")
        lines.append("    port (")
        pins = list(sample.inputs) + list(sample.outputs)
        for index, pin in enumerate(pins):
            separator = ";" if index < len(pins) - 1 else ""
            direction = "in" if pin in sample.inputs else "out"
            lines.append(f"      {_vhdl_identifier(pin)} : {direction} bit{separator}")
        lines.append("    );")
        lines.append("  end component;")

    lines.append("begin")
    for instance in netlist.all_instances():
        lines.append(f"  {_vhdl_identifier(instance.name)} : {instance.cell.name.lower()}")
        lines.append(f"    generic map (drive => {instance.size:.3f})")
        mappings = [
            f"{_vhdl_identifier(pin)} => {_vhdl_identifier(net)}"
            for pin, net in zip(instance.cell.pins, instance.nets)
        ]
        lines.append("    port map (" + ", ".join(mappings) + ");")
    lines.append("end structure;")
    return "\n".join(lines) + "\n"


def structural_vhdl(
    name: str,
    inputs: Sequence[str],
    outputs: Sequence[str],
    instances: Sequence[Tuple[str, str, Mapping[str, str]]],
    internal_nets: Sequence[str] = (),
    component_heads: Sequence[str] = (),
) -> str:
    """Structural VHDL for a design composed of ICDB component instances.

    ``instances`` is a sequence of ``(instance_label, component_name,
    port_map)`` tuples; ``component_heads`` are the VHDL component
    declarations of the referenced components (as returned by the
    ``VHDL_head`` instance query).
    """
    entity_name = _vhdl_identifier(name)
    lines: List[str] = [f"-- structural netlist of {name} (generated by ICDB)"]
    lines.append(vhdl_entity(name, inputs, outputs).rstrip())
    lines.append("")
    lines.append(f"architecture structure of {entity_name} is")
    for head in component_heads:
        for head_line in head.rstrip().splitlines():
            lines.append("  " + head_line)
    for net in internal_nets:
        lines.append(f"  signal {_vhdl_identifier(net)} : bit;")
    lines.append("begin")
    for label, component, port_map in instances:
        lines.append(f"  {_vhdl_identifier(label)} : {_vhdl_identifier(component)}")
        mappings = [
            f"{_vhdl_identifier(pin)} => {_vhdl_identifier(net)}"
            for pin, net in port_map.items()
        ]
        lines.append("    port map (" + ", ".join(mappings) + ");")
    lines.append("end structure;")
    return "\n".join(lines) + "\n"
