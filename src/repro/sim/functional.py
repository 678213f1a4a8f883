"""Functional (flat-level) simulation of IIF components.

The paper verifies generated components with a VHDL simulator; here a small
event-style simulator works directly on the flat IIF form: combinational
equations are settled to a fixpoint, edge-triggered assignments update on
clock edges of their (possibly gated or rippled) clock expressions, latches
are transparent while their level clock is active, and asynchronous
set/reset terms override everything.

Ripple counters work naturally: when a flip-flop output toggles, any
flip-flop clocked by that output sees the edge during the same settling
pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..iif.flat import CombAssign, FlatComponent, SeqAssign
from ..logic import expr as E
from .gatesim import read_bus


class SimulationError(RuntimeError):
    """Raised when the simulator cannot settle or inputs are missing."""


#: Safety bound for the combinational / edge settling loop.
MAX_SETTLE_ITERATIONS = 1000


@dataclass
class FlatSimulator:
    """Cycle-accurate simulator over a :class:`FlatComponent`."""

    component: FlatComponent
    initial_state: int = 0

    def __post_init__(self) -> None:
        self._comb: List[CombAssign] = self.component.combinational()
        self._seq: List[SeqAssign] = self.component.sequential()
        self.values: Dict[str, int] = {}
        for signal in self.component.signals():
            self.values[signal] = self.initial_state
        for name in self.component.inputs:
            self.values[name] = 0
        self._previous_clock: Dict[str, int] = {}
        self._settle()
        for assign in self._seq:
            self._previous_clock[assign.target] = self._clock_value(assign)

    # ----------------------------------------------------------------- basics

    def _clock_value(self, assign: SeqAssign) -> int:
        return assign.clock.evaluate(self.values)

    def state(self) -> Dict[str, int]:
        """Current values of all state (flip-flop / latch) signals."""
        return {assign.target: self.values[assign.target] for assign in self._seq}

    def output_values(self) -> Dict[str, int]:
        return {name: self.values[name] for name in self.component.outputs}

    def value(self, signal: str) -> int:
        return self.values[signal]

    def bus_value(self, base: str, width: int) -> int:
        """Read ``base[width-1 .. 0]`` as an unsigned integer."""
        return read_bus(self.values, base, width)

    # ------------------------------------------------------------------ drive

    def apply(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Apply new primary-input values and settle the component.

        Edge-triggered state updates happen for every flip-flop whose clock
        expression transitions as a result; ripple chains settle within the
        same call.  Returns the output values after settling.
        """
        if inputs:
            unknown = [name for name in inputs if name not in self.component.inputs]
            if unknown:
                raise SimulationError(f"unknown input signals: {unknown}")
            for name, value in inputs.items():
                self.values[name] = 1 if value else 0
        self._settle()
        return self.output_values()

    def _settle(self) -> None:
        for _ in range(MAX_SETTLE_ITERATIONS):
            changed = self._propagate_combinational()
            changed |= self._apply_async()
            changed |= self._apply_latches()
            changed |= self._apply_edges()
            if not changed:
                return
        raise SimulationError(
            f"{self.component.name}: simulation did not settle "
            f"(possible combinational loop)"
        )

    def _propagate_combinational(self) -> bool:
        changed = False
        for _ in range(MAX_SETTLE_ITERATIONS):
            pass_changed = False
            for assign in self._comb:
                new_value = assign.expr.evaluate(self.values)
                if self.values.get(assign.target) != new_value:
                    self.values[assign.target] = new_value
                    pass_changed = True
            if not pass_changed:
                return changed
            changed = True
        raise SimulationError(
            f"{self.component.name}: combinational logic did not settle"
        )

    def _apply_async(self) -> bool:
        changed = False
        for assign in self._seq:
            for term in assign.asyncs:
                if term.condition.evaluate(self.values):
                    if self.values[assign.target] != term.value:
                        self.values[assign.target] = term.value
                        changed = True
                    break
        return changed

    def _apply_latches(self) -> bool:
        changed = False
        for assign in self._seq:
            if not assign.is_latch:
                continue
            clock = self._clock_value(assign)
            transparent = clock == 1 if assign.edge == "h" else clock == 0
            if transparent:
                new_value = assign.data.evaluate(self.values)
                if self.values[assign.target] != new_value:
                    self.values[assign.target] = new_value
                    changed = True
            self._previous_clock[assign.target] = clock
        return changed

    def _apply_edges(self) -> bool:
        # All flip-flops triggered by the same settling pass sample their D
        # inputs before any of them updates (two-phase commit), otherwise a
        # synchronous counter would race through several states per edge.
        updates: List[Tuple[str, int]] = []
        for assign in self._seq:
            if assign.is_latch:
                continue
            clock = self._clock_value(assign)
            previous = self._previous_clock.get(assign.target, clock)
            rising = previous == 0 and clock == 1
            falling = previous == 1 and clock == 0
            triggered = rising if assign.edge == "r" else falling
            self._previous_clock[assign.target] = clock
            if not triggered or self._async_dominates(assign):
                continue
            updates.append((assign.target, assign.data.evaluate(self.values)))
        changed = False
        for target, new_value in updates:
            if self.values[target] != new_value:
                self.values[target] = new_value
                changed = True
        return changed

    def _async_dominates(self, assign: SeqAssign) -> bool:
        return any(term.condition.evaluate(self.values) for term in assign.asyncs)

    # ------------------------------------------------------------------ clock

    def clock_cycle(self, clock: str = "CLK", inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Drive one full clock cycle (low phase, then rising edge).

        ``inputs`` are applied during the low phase so set-up is respected.
        Returns the outputs after the rising edge has settled.
        """
        low = dict(inputs or {})
        low[clock] = 0
        self.apply(low)
        high = {clock: 1}
        return self.apply(high)

    def run(self, clock: str, cycles: int, inputs: Optional[Mapping[str, int]] = None) -> List[Dict[str, int]]:
        """Run several clock cycles with constant inputs; returns outputs per cycle."""
        trace: List[Dict[str, int]] = []
        for _ in range(cycles):
            trace.append(dict(self.clock_cycle(clock, inputs)))
        return trace
