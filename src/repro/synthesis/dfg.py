"""Data-flow graphs for the behavioral synthesis client.

ICDB itself is a component server; to demonstrate its role in a behavioral
synthesis system (Figure 1 of the paper) the repository includes a small
high-level-synthesis client.  Behaviour is captured as a data-flow graph of
GENUS function nodes; the scheduler and allocator in the sibling modules
turn it into a microarchitecture using components requested from ICDB.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..components import genus
from ..wire import Record, field


class DfgError(ValueError):
    """Raised on malformed data-flow graphs."""


class Operation(Record):
    """One operation node: a GENUS function applied to named values."""

    name: str
    function: str
    operands: Tuple[str, ...]
    result: str
    width: int = 8

    def __post_init__(self) -> None:
        self.function = genus.normalize_function(self.function)


class DataFlowGraph(Record):
    """A behavioural description: primary values and operations over them."""

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    operations: List[Operation] = field(default_factory=list)
    widths: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ build

    def add_input(self, name: str, width: int = 8) -> str:
        if name in self.inputs:
            raise DfgError(f"input {name!r} already declared")
        self.inputs.append(name)
        self.widths[name] = width
        return name

    def add_output(self, name: str) -> str:
        if name not in self.widths:
            raise DfgError(f"output {name!r} is not produced by any operation or input")
        if name not in self.outputs:
            self.outputs.append(name)
        return name

    def add_operation(
        self,
        name: str,
        function: str,
        operands: Sequence[str],
        result: Optional[str] = None,
        width: Optional[int] = None,
    ) -> Operation:
        if any(op.name == name for op in self.operations):
            raise DfgError(f"operation {name!r} already exists")
        for operand in operands:
            if operand not in self.widths:
                raise DfgError(f"operand {operand!r} of {name!r} is not defined yet")
        result_name = result or f"{name}_out"
        if result_name in self.widths:
            raise DfgError(f"value {result_name!r} already produced")
        if width is None:
            width = max(self.widths[operand] for operand in operands)
        operation = Operation(
            name=name,
            function=function,
            operands=tuple(operands),
            result=result_name,
            width=width,
        )
        self.operations.append(operation)
        self.widths[result_name] = width
        return operation

    # ------------------------------------------------------------------ query

    def operation(self, name: str) -> Operation:
        for operation in self.operations:
            if operation.name == name:
                return operation
        raise DfgError(f"no operation named {name!r}")

    def producer_of(self, value: str) -> Optional[Operation]:
        for operation in self.operations:
            if operation.result == value:
                return operation
        return None

    def predecessors(self, operation: Operation) -> List[Operation]:
        preds = []
        for operand in operation.operands:
            producer = self.producer_of(operand)
            if producer is not None:
                preds.append(producer)
        return preds

    def successors(self, operation: Operation) -> List[Operation]:
        return [
            candidate
            for candidate in self.operations
            if operation.result in candidate.operands
        ]

    def functions_used(self) -> List[str]:
        seen: List[str] = []
        for operation in self.operations:
            if operation.function not in seen:
                seen.append(operation.function)
        return seen

    def topological_order(self) -> List[Operation]:
        """Operations in dependency order (raises on cycles)."""
        order: List[Operation] = []
        placed: Set[str] = set()
        remaining = list(self.operations)
        guard = len(remaining) + 1
        while remaining and guard:
            guard -= 1
            progress = False
            for operation in list(remaining):
                ready = all(
                    self.producer_of(operand) is None or operand in placed
                    for operand in operation.operands
                )
                if ready:
                    order.append(operation)
                    placed.add(operation.result)
                    remaining.remove(operation)
                    progress = True
            if not progress:
                raise DfgError(f"data-flow graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        self.topological_order()
        for output in self.outputs:
            if output not in self.widths:
                raise DfgError(f"output {output!r} is never produced")


def expression_dfg(name: str = "sample") -> DataFlowGraph:
    """A small example DFG: ``y = (a + b) * (c - d); flag = (a + b) > c``.

    Used by the quickstart example and the Figure 1 benchmark.
    """
    dfg = DataFlowGraph(name)
    for value in ("a", "b", "c", "d"):
        dfg.add_input(value, width=4)
    dfg.add_operation("add1", "ADD", ("a", "b"), result="sum")
    dfg.add_operation("sub1", "SUB", ("c", "d"), result="diff")
    dfg.add_operation("mul1", "MUL", ("sum", "diff"), result="y")
    dfg.add_operation("cmp1", "GT", ("sum", "c"), result="flag", width=1)
    dfg.add_output("y")
    dfg.add_output("flag")
    return dfg
