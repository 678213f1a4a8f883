"""Operation scheduling using ICDB delay information.

Section 2.1: "During operator scheduling, a synthesis tool can use the
component delay time to determine the proper clock width ...  A behavioral
synthesis tool can also use the information to decide whether to chain two
operations together in a single clock, or whether to place an operation in
a multiple clock step."  The list scheduler here does exactly that: it asks
ICDB for the worst delay of a component executing each function, chains
operations while the accumulated path delay fits in the clock width, and
spills an operation into several clock steps when its delay exceeds one
clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints import Constraints
from ..core.icdb import ICDB
from .dfg import DataFlowGraph, Operation


class SchedulingError(RuntimeError):
    """Raised when a schedule cannot be built."""


@dataclass
class ScheduledOperation:
    """One operation with its control-step assignment."""

    operation: Operation
    start_step: int
    end_step: int
    delay: float
    chained_after: Tuple[str, ...] = ()

    @property
    def steps(self) -> int:
        return self.end_step - self.start_step + 1


@dataclass
class Schedule:
    """The result of scheduling a data-flow graph."""

    dfg: DataFlowGraph
    clock_width: float
    entries: List[ScheduledOperation] = field(default_factory=list)
    function_delays: Dict[str, float] = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return max((entry.end_step for entry in self.entries), default=0) + 1

    def entry(self, operation_name: str) -> ScheduledOperation:
        for entry in self.entries:
            if entry.operation.name == operation_name:
                return entry
        raise SchedulingError(f"operation {operation_name!r} is not scheduled")

    def functions_per_step(self) -> List[Dict[str, int]]:
        """How many units of each function are busy in every step."""
        usage: List[Dict[str, int]] = [dict() for _ in range(self.steps)]
        for entry in self.entries:
            for step in range(entry.start_step, entry.end_step + 1):
                function = entry.operation.function
                usage[step][function] = usage[step].get(function, 0) + 1
        return usage

    def render(self) -> str:
        lines = [
            f"schedule of {self.dfg.name}: {self.steps} control steps at "
            f"{self.clock_width:.1f} ns"
        ]
        for step in range(self.steps):
            names = [
                f"{e.operation.name}({e.operation.function})"
                for e in self.entries
                if e.start_step == step
            ]
            lines.append(f"  step {step}: " + (", ".join(names) if names else "-"))
        return "\n".join(lines)


def function_delay_table(
    icdb: ICDB,
    functions: Sequence[str],
    width: int,
    constraints: Optional[Constraints] = None,
) -> Dict[str, float]:
    """Worst output delay of an ICDB component for each function.

    One component instance is generated per function (at the requested bit
    width) and its worst input-to-output delay recorded; the instances are
    regular ICDB instances and stay available for the allocation phase.
    """
    table: Dict[str, float] = {}
    for function in functions:
        instance = icdb.request_component(
            functions=[function],
            attributes={"size": width},
            constraints=constraints,
            instance_name=icdb.instances.new_name(f"sched_{function.lower()}"),
        )
        table[function] = instance.worst_delay()
    return table


def schedule_asap(
    dfg: DataFlowGraph,
    clock_width: float,
    function_delays: Mapping[str, float],
    allow_chaining: bool = True,
) -> Schedule:
    """ASAP list scheduling with optional operation chaining.

    Every operation starts as early as its operands allow.  When chaining is
    enabled an operation may share the control step of its predecessors as
    long as the accumulated combinational delay stays within the clock
    width; multi-cycle operations occupy ``ceil(delay / clock_width)``
    steps.
    """
    if clock_width <= 0:
        raise SchedulingError("clock width must be positive")
    schedule = Schedule(dfg=dfg, clock_width=clock_width, function_delays=dict(function_delays))
    #: per produced value: (step it becomes available in, accumulated delay inside that step)
    available: Dict[str, Tuple[int, float]] = {name: (0, 0.0) for name in dfg.inputs}

    for operation in dfg.topological_order():
        delay = float(function_delays.get(operation.function, clock_width))
        earliest_step = 0
        start_offset = 0.0
        chained: List[str] = []
        for operand in operation.operands:
            step, offset = available.get(operand, (0, 0.0))
            if step > earliest_step or (step == earliest_step and offset > start_offset):
                earliest_step, start_offset = step, offset
        if not allow_chaining:
            start_offset = 0.0
            producers = [dfg.producer_of(op) for op in operation.operands]
            if any(p is not None for p in producers):
                earliest_step = max(
                    schedule.entry(p.name).end_step + 1 for p in producers if p is not None
                )
        elif start_offset > 0 and start_offset + delay > clock_width:
            # Cannot chain: move to the next step boundary.
            earliest_step += 1
            start_offset = 0.0
        else:
            chained = [
                operand
                for operand in operation.operands
                if available.get(operand, (0, 0.0))[0] == earliest_step
                and available.get(operand, (0, 0.0))[1] > 0
            ]

        total = start_offset + delay
        extra_steps = max(0, int(math.ceil(total / clock_width)) - 1)
        end_step = earliest_step + extra_steps
        end_offset = total - extra_steps * clock_width
        if extra_steps:
            chained = []
        schedule.entries.append(
            ScheduledOperation(
                operation=operation,
                start_step=earliest_step,
                end_step=end_step,
                delay=delay,
                chained_after=tuple(chained),
            )
        )
        available[operation.result] = (end_step, max(end_offset, 0.0))
    return schedule


def choose_clock_width(function_delays: Mapping[str, float], slack: float = 1.1) -> float:
    """Pick a clock width from component delays (Section 2.1's use case).

    The slowest single-function delay times a small slack factor; this is
    the simplest of the clock-selection policies the paper alludes to.
    """
    if not function_delays:
        raise SchedulingError("no function delays supplied")
    return max(function_delays.values()) * slack
