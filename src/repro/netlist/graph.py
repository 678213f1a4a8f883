"""Netlist graph analysis: topological ordering, fanout and path queries.

The delay estimator and the transistor-sizing tool both traverse the
combinational portion of a :class:`~repro.netlist.gates.GateNetlist` in
topological order; this module provides that ordering plus a handful of
structural queries (combinational cycles are rejected, registers break the
cycles as usual).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .gates import GateInstance, GateNetlist, NetlistError


def combinational_order(netlist: GateNetlist) -> List[GateInstance]:
    """Topological order of the combinational instances.

    Sequential cell outputs and primary inputs are the sources; a cycle
    through combinational cells raises :class:`NetlistError` (the paper's
    components never contain one -- feedback always goes through a
    flip-flop or latch).  So does a net driven twice, first.
    """
    drivers = netlist.drivers()
    comb = netlist.combinational_instances()
    # A gate waits on each input pin whose net a combinational gate drives;
    # primary inputs, register outputs and undriven nets (tie-offs
    # handled upstream) are ready from the start, so a dangling constant
    # does not deadlock the ordering.
    waiting = [0] * len(comb)
    readers: Dict[str, List[int]] = {}
    for index, instance in enumerate(comb):
        nets = instance.nets
        for i in instance.cell.input_indices:
            driver = drivers.get(nets[i])
            if driver is not None and not driver.is_sequential:
                waiting[index] += 1
                readers.setdefault(nets[i], []).append(index)

    queue = deque(index for index, count in enumerate(waiting) if not count)
    order: List[GateInstance] = []
    while queue:
        instance = comb[queue.popleft()]
        order.append(instance)
        nets = instance.nets
        for i in instance.cell.output_indices:
            for index in readers.pop(nets[i], ()):
                waiting[index] -= 1
                if not waiting[index]:
                    queue.append(index)
    if len(order) != len(comb):
        unresolved = sorted(
            instance.name for instance, count in zip(comb, waiting) if count
        )
        raise NetlistError(
            f"combinational cycle involving instances {unresolved[:5]}"
        )
    return order


def fanout_counts(netlist: GateNetlist) -> Dict[str, int]:
    """Fanout (number of sink pins) of every net."""
    return {net: info.fanout for net, info in netlist.nets().items()}


def driver_of(netlist: GateNetlist, net: str) -> Optional[GateInstance]:
    """Instance driving ``net`` or ``None`` for primary inputs / undriven nets."""
    info = netlist.nets().get(net)
    if info is None or info.driver_instance is None:
        return None
    return netlist.instances[info.driver_instance]


def transitive_fanin(netlist: GateNetlist, nets: Iterable[str]) -> Set[str]:
    """All nets in the transitive fanin cone of ``nets`` (including them)."""
    table = netlist.nets()
    seen: Set[str] = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        info = table.get(net)
        if info is None or info.driver_instance is None:
            continue
        driver = netlist.instances[info.driver_instance]
        stack.extend(driver.input_nets())
    return seen


def transitive_fanout(netlist: GateNetlist, nets: Iterable[str]) -> Set[str]:
    """All nets in the transitive fanout cone of ``nets`` (including them)."""
    table = netlist.nets()
    seen: Set[str] = set()
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        info = table.get(net)
        if info is None:
            continue
        for sink_name, _pin in info.sinks:
            sink = netlist.instances[sink_name]
            if sink.is_sequential:
                continue
            for i in sink.cell.output_indices:
                stack.append(sink.nets[i])
    return seen


def logic_depth(netlist: GateNetlist) -> int:
    """Maximum number of combinational cells on any input-to-output path."""
    depth: Dict[str, int] = {}
    for instance in combinational_order(netlist):
        level = 0
        for net in instance.input_nets():
            level = max(level, depth.get(net, 0))
        for i in instance.cell.output_indices:
            depth[instance.nets[i]] = level + 1
    return max(depth.values(), default=0)
