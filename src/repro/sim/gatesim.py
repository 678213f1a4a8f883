"""Gate-level simulation of mapped netlists.

Used to check that the output of the MILO-like synthesis flow is
functionally equivalent to the flat IIF description it came from (the
paper runs a VHDL simulator for the same purpose).  Cell behaviour is
defined per cell *kind*; sequential cells react to clock edges / levels on
their clock pin and to asynchronous set / reset pins.

Tri-state / wired-or resolution model
-------------------------------------

The simulator is two-valued (0/1, no ``Z`` or ``X``), so shared buses
resolve like this:

* A ``TRIBUF`` drives its data input onto its output net while ``EN`` is
  1.  While ``EN`` is 0 the output net *holds its previous settled
  value* (a bus-keeper model): the cell evaluates to whatever the net
  last carried, initially the simulator's reset value 0.  A disabled
  tri-state therefore never floats and never fights an enabled driver.
* A net is still single-driver (:meth:`GateNetlist.nets` rejects
  multiple drivers): several tri-state drivers sharing a bus must be
  merged through an explicit ``WIREOR`` cell, which resolves as the
  logical OR of its inputs -- an inactive (disabled, holding-0) driver
  contributes nothing, matching a precharged-low wired-OR bus.

The batch (bit-parallel) engine in :mod:`repro.sim.batch` implements the
same model lane for lane; ``tests/test_sim_batch.py`` pins both down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.gates import GateInstance, GateNetlist
from ..netlist.graph import combinational_order


class GateSimulationError(RuntimeError):
    """Raised on unknown cells or missing input values."""


def read_bus(values: Mapping[str, int], base: str, width: int) -> int:
    """Read ``base[width-1 .. 0]`` out of a name->value mapping.

    The one shared bus unpacker behind ``GateSimulator.bus_value``,
    ``FlatSimulator.bus_value`` and the vector helpers; a missing bit net
    raises :class:`GateSimulationError` naming the net instead of a bare
    ``KeyError``.
    """
    total = 0
    for index in range(width):
        net = f"{base}[{index}]"
        try:
            bit = values[net]
        except KeyError:
            raise GateSimulationError(
                f"no net named {net!r} while reading bus "
                f"{base}[{width - 1}..0]"
            ) from None
        total |= (bit & 1) << index
    return total


def _all(values: Sequence[int]) -> int:
    return 1 if all(values) else 0


def _any(values: Sequence[int]) -> int:
    return 1 if any(values) else 0


#: Combinational cell evaluation functions, keyed by cell kind.
_COMBINATIONAL_KINDS: Dict[str, Callable[[List[int]], int]] = {
    "INV": lambda v: 1 - v[0],
    "BUF": lambda v: v[0],
    "BUFH": lambda v: v[0],
    "SCHMITT": lambda v: v[0],
    "DELAY": lambda v: v[0],
    "AND2": _all,
    "AND3": _all,
    "AND4": _all,
    "OR2": _any,
    "OR3": _any,
    "OR4": _any,
    "NAND2": lambda v: 1 - _all(v),
    "NAND3": lambda v: 1 - _all(v),
    "NAND4": lambda v: 1 - _all(v),
    "NOR2": lambda v: 1 - _any(v),
    "NOR3": lambda v: 1 - _any(v),
    "XOR2": lambda v: v[0] ^ v[1],
    "XNOR2": lambda v: 1 - (v[0] ^ v[1]),
    "AOI21": lambda v: 1 - ((v[0] & v[1]) | v[2]),
    "AOI22": lambda v: 1 - ((v[0] & v[1]) | (v[2] & v[3])),
    "OAI21": lambda v: 1 - ((v[0] | v[1]) & v[2]),
    "WIREOR": _any,
    "TIE0": lambda v: 0,
    "TIE1": lambda v: 1,
}


def evaluate_combinational_cell(instance: GateInstance, values: Mapping[str, int]) -> int:
    """Evaluate a combinational cell output given current net values."""
    cell, nets = instance.cell, instance.nets
    # Operands in the cell's declared input order (MUX2: I0, I1, S;
    # TRIBUF: I0, EN).
    operands = [values[nets[i]] for i in cell.input_indices]
    kind = cell.kind
    if kind == "MUX2":
        i0, i1, select = operands
        return i1 if select else i0
    if kind == "TRIBUF":
        data, enable = operands
        # When disabled the output keeps its previous value (bus-hold model).
        return data if enable else values.get(instance.output_net(), 0)
    function = _COMBINATIONAL_KINDS.get(kind)
    if function is None:
        raise GateSimulationError(f"no functional model for cell kind {kind!r}")
    return function(operands)


class GateSimulator:
    """Event-style simulator over a mapped gate netlist."""

    def __init__(self, netlist: GateNetlist, initial_state: int = 0):
        self.netlist = netlist
        self.order = combinational_order(netlist)
        self.values: Dict[str, int] = {}
        for name in netlist.inputs:
            self.values[name] = 0
        for instance in netlist.all_instances():
            for i in instance.cell.output_indices:
                self.values[instance.nets[i]] = initial_state
        self._previous_clock: Dict[str, int] = {}
        self._settle()
        for instance in netlist.sequential_instances():
            clock_net = instance.clock_net()
            self._previous_clock[instance.name] = self.values.get(clock_net, 0)

    # ------------------------------------------------------------------ drive

    def apply(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Apply primary-input values, settle, and return output values."""
        if inputs:
            for name, value in inputs.items():
                if name not in self.netlist.inputs:
                    raise GateSimulationError(f"unknown input {name!r}")
                self.values[name] = 1 if value else 0
        self._settle()
        return self.output_values()

    def clock_cycle(self, clock: str, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        low = dict(inputs or {})
        low[clock] = 0
        self.apply(low)
        return self.apply({clock: 1})

    def output_values(self) -> Dict[str, int]:
        return {name: self.values[name] for name in self.netlist.outputs}

    def bus_value(self, base: str, width: int) -> int:
        return read_bus(self.values, base, width)

    # ----------------------------------------------------------------- settle

    def _settle(self, max_iterations: int = 200) -> None:
        for _ in range(max_iterations):
            changed = self._propagate()
            changed |= self._sequential_step()
            if not changed:
                return
        raise GateSimulationError(
            f"{self.netlist.name}: gate-level simulation did not settle"
        )

    def _propagate(self) -> bool:
        changed = False
        for _ in range(200):
            pass_changed = False
            for instance in self.order:
                new_value = evaluate_combinational_cell(instance, self.values)
                out_net = instance.output_net()
                if self.values.get(out_net) != new_value:
                    self.values[out_net] = new_value
                    pass_changed = True
            if not pass_changed:
                return changed
            changed = True
        raise GateSimulationError(
            f"{self.netlist.name}: combinational gates did not settle"
        )

    def _sequential_step(self) -> bool:
        updates: List[Tuple[str, int]] = []
        for instance in self.netlist.sequential_instances():
            kind = instance.cell.kind
            clock_net = instance.clock_net()
            clock = self.values.get(clock_net, 0)
            out_net = instance.output_net()
            nets, pin_index = instance.nets, instance.cell.pin_index
            set_value = self.values.get(nets[pin_index["S"]], 0) if "S" in pin_index else 0
            reset_value = self.values.get(nets[pin_index["R"]], 0) if "R" in pin_index else 0

            if kind.startswith("LATCH"):
                transparent = clock == 1 if kind == "LATCH_H" else clock == 0
                if transparent:
                    updates.append((out_net, self.values[instance.net("D")]))
                self._previous_clock[instance.name] = clock
                continue

            previous = self._previous_clock.get(instance.name, clock)
            self._previous_clock[instance.name] = clock
            if set_value:
                updates.append((out_net, 1))
                continue
            if reset_value:
                updates.append((out_net, 0))
                continue
            falling_edge_cell = kind.startswith("DFF_N")
            triggered = (
                (previous == 1 and clock == 0)
                if falling_edge_cell
                else (previous == 0 and clock == 1)
            )
            if triggered:
                updates.append((out_net, self.values[instance.net("D")]))
        changed = False
        for net, value in updates:
            if self.values.get(net) != value:
                self.values[net] = value
                changed = True
        return changed
