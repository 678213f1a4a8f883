"""VHDL netlist emission.

A generated component is represented as "a VHDL netlist for logic level
structure" (Section 2.2); synthesis tools also ask for the component's
"VHDL head" (entity/component declaration) so they can assemble a netlist of
ICDB components for simulation (Section 3.3).  This module emits both, plus
structural VHDL for composed designs.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .gates import GateNetlist

#: A run of characters that are not letters or digits (``str.isalnum``).
_NOT_ALNUM_RE = re.compile(r"[\W_]+")


def _vhdl_identifier(name: str) -> str:
    """Turn a flat signal name (``Q[3]``) into a legal VHDL identifier.

    Every run of characters other than letters and digits becomes one
    underscore, leading and trailing ones are dropped, and a name that
    does not start with a letter gets an ``s_`` prefix.
    """
    text = _NOT_ALNUM_RE.sub("_", name).strip("_")
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


def gate_netlist_to_vhdl(netlist: GateNetlist, name: Optional[str] = None) -> str:
    """Structural VHDL of a mapped gate netlist.

    Cells are instantiated as components from an ``icdb_cells`` library; the
    instance sizes chosen by the transistor sizing tool are recorded as
    generics so the layout generator downstream can honour them.

    ``name`` overrides the entity name (a cached component clone shares the
    template's netlist but must be emitted under its own instance name).
    """
    return gate_netlist_vhdl_header(netlist, name=name) + "".join(
        gate_netlist_architecture_body(netlist)
    )


def gate_netlist_vhdl_header(
    netlist: GateNetlist,
    name: Optional[str] = None,
    ports: Optional[str] = None,
) -> str:
    """The text of :func:`gate_netlist_to_vhdl` before the architecture body:
    the library clause, the entity and the ``architecture ... is`` line
    (``ports`` as for :func:`vhdl_entity`)."""
    display = name or netlist.name
    entity = vhdl_entity(display, netlist.inputs, netlist.outputs, ports=ports)
    return (
        f"-- structural netlist of {display} (generated by ICDB)\n"
        f"library icdb_cells;\n{entity}\n"
        f"architecture structure of {_vhdl_identifier(display)} is\n"
    )


def gate_netlist_architecture_body(netlist: GateNetlist) -> Iterator[str]:
    """The architecture body of :func:`gate_netlist_to_vhdl`, in pieces.

    Signal declarations, cell component declarations and instantiations --
    everything between ``architecture ... is`` and the end of the file --
    yielded one declaration or gate at a time, so a file can take the text
    without anyone holding all of it.  The text never mentions the entity
    name, so it can be rendered once per synthesized netlist and reused by
    every instance sharing it.
    """
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
        yield f"  signal {_vhdl_identifier(net)} : bit;\n"

    cells = {}
    for instance in netlist.all_instances():
        cells.setdefault(instance.cell.name, instance.cell)
    for cell_name in sorted(cells):
        sample = cells[cell_name]
        lines = [
            f"  component {cell_name.lower()}",
            "    generic (drive : real := 1.0);",
            "    port (",
        ]
        pins = list(sample.inputs) + list(sample.outputs)
        for index, pin in enumerate(pins):
            separator = ";" if index < len(pins) - 1 else ""
            direction = "in" if pin in sample.inputs else "out"
            lines.append(f"      {_vhdl_identifier(pin)} : {direction} bit{separator}")
        lines += ["    );", "  end component;"]
        yield "\n".join(lines) + "\n"

    yield "begin\n"
    # Each cell's pin identifiers in ``Cell.pins`` order, by cell object.
    pin_names: Dict[int, List[str]] = {}
    for instance in netlist.all_instances():
        cell = instance.cell
        pins = pin_names.get(id(cell))
        if pins is None:
            pins = pin_names[id(cell)] = [_vhdl_identifier(pin) for pin in cell.pins]
        mappings = ", ".join(
            f"{pin} => {_vhdl_identifier(net)}" for pin, net in zip(pins, instance.nets)
        )
        yield (
            f"  {_vhdl_identifier(instance.name)} : {cell.name.lower()}\n"
            f"    generic map (drive => {instance.size:.3f})\n"
            f"    port map ({mappings});\n"
        )
    yield "end structure;\n"


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
