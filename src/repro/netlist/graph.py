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
    flip-flop or latch).
    """
    table = netlist.nets()
    comb = netlist.combinational_instances()
    ready_nets: Set[str] = set(netlist.inputs)
    for instance in netlist.sequential_instances():
        for i in instance.cell.output_indices:
            ready_nets.add(instance.nets[i])
    # Nets with no driver at all (tie-offs handled upstream) count as ready so
    # a dangling constant does not deadlock the ordering.
    for net, entry in table.items():
        if entry.driver_instance is None and not entry.is_primary_input:
            ready_nets.add(net)

    remaining: Dict[str, Set[str]] = {}
    consumers: Dict[str, List[str]] = {}
    for instance in comb:
        pending = {
            net for net in instance.input_nets() if net not in ready_nets
        }
        remaining[instance.name] = pending
        for net in pending:
            consumers.setdefault(net, []).append(instance.name)

    queue = deque(name for name, pending in remaining.items() if not pending)
    order: List[GateInstance] = []
    done: Set[str] = set()
    while queue:
        name = queue.popleft()
        if name in done:
            continue
        done.add(name)
        instance = netlist.instances[name]
        order.append(instance)
        for i in instance.cell.output_indices:
            net = instance.nets[i]
            if net in ready_nets:
                continue
            ready_nets.add(net)
            for consumer in consumers.get(net, []):
                pending = remaining[consumer]
                pending.discard(net)
                if not pending and consumer not in done:
                    queue.append(consumer)
    if len(order) != len(comb):
        unresolved = sorted(set(remaining) - done)
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
