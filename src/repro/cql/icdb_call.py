"""The ``ICDB()`` call interface.

The paper's synthesis tools are C programs calling::

    ICDB("command: request_component; component_name: %s; size: %d; "
         "strategy: fastest; component_instance: ?s",
         comp_name, bit_length, &adder_instance);

This module reproduces that calling convention in Python: ``%`` slots
consume the next positional argument as an input, ``?`` slots either fill a
caller-supplied :class:`OutParam` (the ``&variable`` analogue) or are simply
returned.  The call always returns the output values in slot order (a single
value when there is exactly one output), so idiomatic Python callers can
ignore :class:`OutParam` entirely.

Every call executes through the typed request objects of
:mod:`repro.api.messages` (via :class:`~repro.cql.executor.CqlExecutor`),
and the callable can be bound either to the legacy
:class:`~repro.core.icdb.ICDB` facade or to one client's
:class:`~repro.api.service.Session`, so several tools can issue ``ICDB()``
calls against the same server concurrently.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from ..api.service import Session
from ..core.icdb import ICDB
from ..wire import Record, field
from .executor import CqlExecutionError, CqlExecutor
from .parser import CqlCommand, VariableSlot, parse_command


class OutParam(Record):
    """A mutable output holder, the analogue of passing ``&variable`` in C."""

    value: Any = None

    def __bool__(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutParam({self.value!r})"


def _coerce(value: Any, slot: VariableSlot) -> Any:
    """Coerce an output value to the slot's declared type."""
    if value is None:
        return None
    if slot.is_array:
        items = value if isinstance(value, (list, tuple)) else [value]
        return [slot.python_type(item) for item in items]
    if isinstance(value, (list, tuple)):
        value = value[0] if value else None
        if value is None:
            return None
    return slot.python_type(value)


class IcdbCall:
    """Callable implementing the paper's ``ICDB()`` function interface."""

    def __init__(self, server: Union[ICDB, Session]):
        self.server = server
        self.executor = CqlExecutor(server)

    def __call__(self, command_string: str, *variables: Any):
        command = parse_command(command_string)
        slots = command.slots()
        inputs: List[Any] = []
        out_params: List[Optional[OutParam]] = []
        cursor = 0
        for term in slots:
            slot = term.value
            assert isinstance(slot, VariableSlot)
            if slot.direction == "in":
                if cursor >= len(variables):
                    raise CqlExecutionError(
                        f"ICDB(): missing input variable for {term.keyword!r}"
                    )
                inputs.append(variables[cursor])
                cursor += 1
            else:
                # Output slots optionally consume an OutParam holder.
                holder = variables[cursor] if cursor < len(variables) else None
                if isinstance(holder, OutParam):
                    out_params.append(holder)
                    cursor += 1
                else:
                    out_params.append(None)

        outputs = self.executor.execute(command, inputs)

        results: List[Any] = []
        out_index = 0
        for term in slots:
            slot = term.value
            if slot.direction != "out":
                continue
            value = _coerce(outputs.get(term.keyword), slot)
            holder = out_params[out_index]
            if holder is not None:
                holder.value = value
            results.append(value)
            out_index += 1
        if not results:
            return outputs
        if len(results) == 1:
            return results[0]
        return tuple(results)


def make_icdb_call(server: Optional[Union[ICDB, Session]] = None) -> IcdbCall:
    """Create an ``ICDB()``-style callable bound to a server or session."""
    return IcdbCall(server or ICDB())
