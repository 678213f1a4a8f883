"""Structural netlists of ICDB component instances.

Synthesis tools (the microarchitecture optimizer, the partitioner, the
floorplanner) manipulate netlists whose leaves are ICDB component instances
rather than gates.  The paper's ``request_component`` accepts such a "VHDL
net list" to get delay and area estimates for a *cluster* of instances; the
floorplanner uses the same structure to try different partitionings.

:class:`StructuralNetlist` holds the composition; :func:`flatten_to_gates`
merges the gate netlists of the referenced instances into one
:class:`~repro.netlist.gates.GateNetlist` so the ordinary estimators can be
applied to the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..wire import Wire
from .gates import GateNetlist, NetlistError
from .vhdl import structural_vhdl


@dataclass
class ComponentRef(Wire):
    """One instantiation of an ICDB component inside a structural netlist."""

    label: str
    component: str
    port_map: Dict[str, str] = field(default_factory=dict)

    def nets(self) -> List[str]:
        return list(self.port_map.values())


@dataclass
class StructuralNetlist(Wire):
    """A netlist whose instances are ICDB component instances."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    refs: List[ComponentRef] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Labels name the cluster's instances: a netlist built in one go
        # (as the wire codec builds it) gets the check that add() makes.
        seen: Set[str] = set()
        for ref in self.refs:
            if ref.label in seen:
                raise NetlistError(
                    f"instance label {ref.label!r} already used in {self.name}"
                )
            seen.add(ref.label)

    def add(self, label: str, component: str, port_map: Mapping[str, str]) -> ComponentRef:
        if any(ref.label == label for ref in self.refs):
            raise NetlistError(f"instance label {label!r} already used in {self.name}")
        ref = ComponentRef(label=label, component=component, port_map=dict(port_map))
        self.refs.append(ref)
        return ref

    def instance_labels(self) -> List[str]:
        return [ref.label for ref in self.refs]

    def components_used(self) -> List[str]:
        seen: List[str] = []
        for ref in self.refs:
            if ref.component not in seen:
                seen.append(ref.component)
        return seen

    def internal_nets(self) -> List[str]:
        boundary = set(self.inputs) | set(self.outputs)
        nets: List[str] = []
        for ref in self.refs:
            for net in ref.nets():
                if net not in boundary and net not in nets:
                    nets.append(net)
        return nets

    def to_vhdl(self, component_heads: Sequence[str] = ()) -> str:
        return structural_vhdl(
            self.name,
            self.inputs,
            self.outputs,
            [(ref.label, ref.component, ref.port_map) for ref in self.refs],
            internal_nets=self.internal_nets(),
            component_heads=component_heads,
        )


def flatten_to_gates(
    structure: StructuralNetlist,
    resolver: Callable[[ComponentRef], GateNetlist],
) -> GateNetlist:
    """Merge the gate netlists of all referenced instances into one netlist.

    ``resolver`` maps a :class:`ComponentRef` to the gate netlist of the
    referenced component instance.  Component-internal nets are prefixed
    with the instance label; component ports are renamed onto the nets of
    the structural netlist (unconnected ports keep a prefixed name).
    """
    merged = GateNetlist(
        name=structure.name,
        inputs=list(structure.inputs),
        outputs=list(structure.outputs),
    )
    for ref in structure.refs:
        child = resolver(ref)
        rename: Dict[str, str] = {}
        for port in list(child.inputs) + list(child.outputs):
            rename[port] = ref.port_map.get(port, f"{ref.label}.{port}")
        for instance in child.all_instances():
            pins = {
                pin: rename.get(net, f"{ref.label}.{net}")
                for pin, net in zip(instance.cell.pins, instance.nets)
            }
            merged.add_instance(
                instance.cell,
                pins,
                name=f"{ref.label}.{instance.name}",
                size=instance.size,
            )
        if merged.library is None:
            merged.library = child.library
    return merged
