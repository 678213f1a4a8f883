"""Structural netlists of ICDB component instances.

Synthesis tools (the microarchitecture optimizer, the partitioner, the
floorplanner) manipulate netlists whose leaves are ICDB component instances
rather than gates.  The paper's ``request_component`` accepts such a "VHDL
net list" to get delay and area estimates for a *cluster* of instances; the
floorplanner uses the same structure to try different partitionings.

:class:`StructuralNetlist` holds the composition.  It is request data, like
:mod:`repro.constraints`: a client builds it and the wire codec decodes it
without loading the gate-level layer, which
:func:`repro.netlist.structural.flatten_to_gates` brings in to merge a
cluster's gate netlists for the estimators.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set

from .wire import Wire, field


def _duplicate_label(label: str, netlist: str) -> Exception:
    from .netlist.gates import NetlistError

    return NetlistError(f"instance label {label!r} already used in {netlist}")


class ComponentRef(Wire):
    """One instantiation of an ICDB component inside a structural netlist."""

    label: str
    component: str
    port_map: Dict[str, str] = field(default_factory=dict)

    def nets(self) -> List[str]:
        return list(self.port_map.values())


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
                raise _duplicate_label(ref.label, self.name)
            seen.add(ref.label)

    def add(self, label: str, component: str, port_map: Mapping[str, str]) -> ComponentRef:
        if any(ref.label == label for ref in self.refs):
            raise _duplicate_label(label, self.name)
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
        from .netlist.vhdl import structural_vhdl

        return structural_vhdl(
            self.name,
            self.inputs,
            self.outputs,
            [(ref.label, ref.component, ref.port_map) for ref in self.refs],
            internal_nets=self.internal_nets(),
            component_heads=component_heads,
        )
