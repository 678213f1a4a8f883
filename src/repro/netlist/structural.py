"""Flattening structural netlists of ICDB component instances.

A :class:`~repro.structure.StructuralNetlist` describes a *cluster* of
ICDB component instances (the paper's "VHDL net list" argument of
``request_component``).  :func:`flatten_to_gates` merges the gate netlists
of the referenced instances into one :class:`~repro.netlist.gates.GateNetlist`
so the ordinary estimators can be applied to the cluster.  The netlist
classes themselves live in :mod:`repro.structure`, which the request layer
imports without this gate-level one; they are re-exported here.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..structure import ComponentRef, StructuralNetlist
from .gates import GateNetlist

__all__ = ["ComponentRef", "StructuralNetlist", "flatten_to_gates"]


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
