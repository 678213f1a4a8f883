"""Resource allocation and binding against ICDB components.

Section 2.1: "When doing resource allocation, ICDB informs the synthesis
tool which components perform the requested functions.  Thus, the tools can
select appropriate components according to the delay requirements."  The
allocator here asks ICDB which implementations perform each function,
requests one component instance per functional unit, and binds operations
to units such that operations busy in the same control step never share a
unit.  Multi-function components (an ALU performing ADD and SUB) are reused
across functions whenever possible.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..constraints import Constraints
from ..core.icdb import ICDB
from ..core.instances import ComponentInstance
from ..wire import Record, field
from .dfg import DataFlowGraph, Operation
from .scheduling import Schedule


class AllocationError(RuntimeError):
    """Raised when operations cannot be bound to components."""


class FunctionalUnit(Record):
    """One allocated component instance and the operations bound to it."""

    name: str
    instance: ComponentInstance
    functions: Tuple[str, ...]
    bound_operations: List[str] = field(default_factory=list)
    busy_steps: Set[int] = field(default_factory=set)

    @property
    def area(self) -> float:
        return self.instance.area


class Allocation(Record):
    """The result of binding a schedule to ICDB component instances."""

    schedule: Schedule
    units: List[FunctionalUnit] = field(default_factory=list)
    binding: Dict[str, str] = field(default_factory=dict)  # operation -> unit name

    def unit(self, name: str) -> FunctionalUnit:
        for unit in self.units:
            if unit.name == name:
                return unit
        raise AllocationError(f"no functional unit named {name!r}")

    def unit_of(self, operation_name: str) -> FunctionalUnit:
        return self.unit(self.binding[operation_name])

    def total_area(self) -> float:
        return sum(unit.area for unit in self.units)

    def units_for_function(self, function: str) -> List[FunctionalUnit]:
        return [unit for unit in self.units if function in unit.functions]

    def sharing_factor(self) -> float:
        """Average number of operations per functional unit."""
        if not self.units:
            return 0.0
        return len(self.binding) / len(self.units)

    def render(self) -> str:
        lines = [f"allocation for {self.schedule.dfg.name}: {len(self.units)} units"]
        for unit in self.units:
            operations = ", ".join(unit.bound_operations) or "-"
            lines.append(
                f"  {unit.name:24s} [{'/'.join(unit.functions)}] "
                f"area={unit.area:,.0f} um^2 ops: {operations}"
            )
        return "\n".join(lines)


def _steps_of(schedule: Schedule, operation: Operation) -> Set[int]:
    entry = schedule.entry(operation.name)
    return set(range(entry.start_step, entry.end_step + 1))


def allocate(
    icdb: ICDB,
    schedule: Schedule,
    width: int = 8,
    constraints: Optional[Constraints] = None,
    prefer_multifunction: bool = True,
) -> Allocation:
    """Bind every scheduled operation to an ICDB component instance.

    Operations are processed in schedule order.  An operation is bound to an
    existing unit when the unit performs the operation's function and is not
    busy in any of the operation's control steps; otherwise a new component
    instance is requested from ICDB.  With ``prefer_multifunction`` the
    request asks for a component covering *all* functions still unbound in
    the graph (so an ALU gets picked over separate adders and subtractors
    when one exists).
    """
    allocation = Allocation(schedule=schedule)
    dfg = schedule.dfg
    ordered = sorted(
        dfg.topological_order(), key=lambda op: schedule.entry(op.name).start_step
    )
    remaining_functions = [op.function for op in ordered]

    for operation in ordered:
        steps = _steps_of(schedule, operation)
        remaining_functions.remove(operation.function)
        unit = _find_free_unit(allocation, operation.function, steps)
        if unit is None:
            functions = [operation.function]
            if prefer_multifunction:
                # Ask for a component that also covers other pending functions
                # if a single implementation exists for the combination.
                extras = [
                    function
                    for function in dict.fromkeys(remaining_functions)
                    if function != operation.function
                ]
                for extra in extras:
                    if icdb.function_query(functions + [extra]):
                        functions.append(extra)
            instance = icdb.request_component(
                functions=functions,
                attributes={"size": width},
                constraints=constraints,
                instance_name=icdb.instances.new_name(
                    f"fu_{'_'.join(f.lower() for f in functions)}"
                ),
            )
            unit = FunctionalUnit(
                name=instance.name,
                instance=instance,
                functions=tuple(instance.functions),
            )
            allocation.units.append(unit)
        unit.bound_operations.append(operation.name)
        unit.busy_steps |= steps
        allocation.binding[operation.name] = unit.name
    return allocation


def _find_free_unit(
    allocation: Allocation, function: str, steps: Set[int]
) -> Optional[FunctionalUnit]:
    for unit in allocation.units:
        if function in unit.functions and not (unit.busy_steps & steps):
            return unit
    return None


def storage_requirements(schedule: Schedule) -> Dict[str, Tuple[int, int]]:
    """Values that must be registered: produced in one step, used in a later one.

    Returns ``value -> (producing step, last consuming step)``; the datapath
    builder allocates a register (an ICDB STORAGE component) per entry.
    """
    dfg = schedule.dfg
    lifetime: Dict[str, Tuple[int, int]] = {}
    for operation in dfg.operations:
        entry = schedule.entry(operation.name)
        produced = entry.end_step
        for consumer in dfg.successors(operation):
            consumer_entry = schedule.entry(consumer.name)
            if consumer_entry.start_step > produced or operation.result in dfg.outputs:
                first = lifetime.get(operation.result, (produced, produced))
                lifetime[operation.result] = (
                    produced,
                    max(first[1], consumer_entry.start_step),
                )
        if operation.result in dfg.outputs and operation.result not in lifetime:
            lifetime[operation.result] = (produced, produced + 1)
    return lifetime
