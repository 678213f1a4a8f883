"""Delay estimation (Section 4.4.1 of the paper).

For each basic cell the library stores three numbers: ``X`` (delay increase
per unit of transistor load), ``Y`` (input-to-output delay) and ``Z`` (delay
increase per fanout).  The delay of a cell output driving ``Trans_no`` unit
transistors with ``fanout_no`` sink pins is::

    delay = Trans_no * X + Y + fanout_no * Z

and the delay of a component is the sum of the estimated cell delays along
the path.  This module computes, for a mapped gate netlist:

* ``WD`` -- worst clock-to-output delay of every output port;
* ``SD`` -- worst set-up time of every input port (path to any register D
  input plus the register's set-up requirement);
* ``CW`` -- the minimum clock width (worst register-to-register path plus
  set-up, bounded below by the cells' minimum pulse widths);
* combinational input-to-output delays (for purely combinational
  components such as adders and ALUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..constraints import Constraints
from ..netlist.gates import GateInstance, GateNetlist
from ..netlist.graph import combinational_order

_NEG_INF = float("-inf")


@dataclass
class DelayReport:
    """The result of delay estimation for one component instance."""

    component: str
    clock_width: float
    clock_to_output: Dict[str, float] = field(default_factory=dict)
    setup_times: Dict[str, float] = field(default_factory=dict)
    comb_delays: Dict[str, float] = field(default_factory=dict)
    min_pulse_width: float = 0.0
    is_sequential: bool = False

    def worst_output_delay(self) -> float:
        """Worst delay to any output (clock-to-output, else combinational)."""
        values = list(self.clock_to_output.values()) + list(self.comb_delays.values())
        return max(values) if values else 0.0

    def delay_to(self, output: str) -> float:
        """Delay to a specific output (clock-to-output preferred)."""
        if output in self.clock_to_output:
            return self.clock_to_output[output]
        return self.comb_delays.get(output, 0.0)

    def render(self) -> str:
        """Render in the paper's instance-query delay format."""
        lines: List[str] = []
        if self.is_sequential:
            lines.append(f"CW {self.clock_width:.1f}")
        for port in sorted(self.clock_to_output, key=_port_key, reverse=True):
            lines.append(f"WD {port} {self.clock_to_output[port]:.1f}")
        for port in sorted(self.comb_delays, key=_port_key, reverse=True):
            if port not in self.clock_to_output:
                lines.append(f"WD {port} {self.comb_delays[port]:.1f}")
        for port in sorted(self.setup_times, key=_port_key, reverse=True):
            lines.append(f"SD {port} {self.setup_times[port]:.1f}")
        return "\n".join(lines)

    def violations(self, constraints: Constraints) -> List[str]:
        """Human-readable list of constraint violations (empty when met)."""
        problems: List[str] = []
        target_cw = constraints.effective_clock_width()
        if (
            self.is_sequential
            and target_cw is not None
            and target_cw > 0
            and self.clock_width > target_cw + 1e-9
        ):
            problems.append(
                f"clock width {self.clock_width:.2f} exceeds constraint {target_cw:.2f}"
            )
        for output, delay_value in {**self.comb_delays, **self.clock_to_output}.items():
            bound = constraints.comb_delay_for(output)
            if bound is not None and bound > 0 and delay_value > bound + 1e-9:
                problems.append(
                    f"delay to {output} is {delay_value:.2f}, constraint {bound:.2f}"
                )
        if constraints.setup_time is not None:
            for port, setup in self.setup_times.items():
                if setup > constraints.setup_time + 1e-9:
                    problems.append(
                        f"set-up time of {port} is {setup:.2f}, constraint "
                        f"{constraints.setup_time:.2f}"
                    )
        return problems


def _port_key(port: str) -> Tuple[str, int]:
    if "[" in port and port.endswith("]"):
        base, _, index = port.partition("[")
        try:
            return (base, int(index[:-1]))
        except ValueError:
            return (port, 0)
    return (port, 0)


class DelayAnalysis:
    """Forward / backward timing analysis of a gate netlist."""

    def __init__(
        self,
        netlist: GateNetlist,
        external_loads: Optional[Mapping[str, float]] = None,
    ):
        self.netlist = netlist
        self.external_loads = dict(external_loads or {})
        self.loads = netlist.net_load_units(self.external_loads)
        self.net_table = netlist.nets()
        self.order = combinational_order(netlist)
        #: worst arrival time at each net for paths starting at primary inputs
        self.arrival_from_inputs: Dict[str, float] = {}
        #: worst arrival time at each net for paths starting at register outputs
        self.arrival_from_registers: Dict[str, float] = {}
        #: predecessor net on the worst path (for critical-path extraction)
        self._predecessor: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        #: worst delay from each net forward to any register D pin (plus set-up)
        self.required_to_register: Dict[str, float] = {}
        self._run()

    # ----------------------------------------------------------------- passes

    def gate_delay(self, instance: GateInstance) -> float:
        """Delay through ``instance`` using the paper's X/Y/Z formula."""
        out_net = instance.output_net()
        load = self.loads.get(out_net, 0.0)
        fanout = self.net_table[out_net].fanout if out_net in self.net_table else 0
        return instance.cell.output_delay(load, fanout, instance.size)

    def register_output_delay(self, instance: GateInstance) -> float:
        """Clock-to-Q delay of a sequential cell including its output load."""
        out_net = instance.output_net()
        load = self.loads.get(out_net, 0.0)
        fanout = self.net_table[out_net].fanout if out_net in self.net_table else 0
        return instance.cell.clock_to_q + instance.cell.output_delay(
            load, fanout, instance.size
        )

    def _run(self) -> None:
        # The clock-to-output arrival of a register depends on when its clock
        # arrives, and clock nets can themselves be driven by other sequential
        # cells (the ripple counter clocks bit i+1 with Q[i], the enable option
        # gates the clock through a latch).  Launch times are therefore
        # computed by iterating the forward pass until they stabilize; the
        # sequential dependency graph is acyclic, so at most one extra pass per
        # sequential cell is needed.
        sequential = self.netlist.sequential_instances()
        launch: Dict[str, float] = {inst.name: inst.cell.clock_to_q for inst in sequential}
        passes = max(1, len(sequential) + 1)
        for _ in range(passes):
            self._forward_pass(launch)
            changed = False
            for instance in sequential:
                clock_net = instance.clock_net()
                clock_arrival = self._clock_arrival(clock_net)
                new_launch = clock_arrival + instance.cell.clock_to_q
                if abs(new_launch - launch[instance.name]) > 1e-9:
                    launch[instance.name] = new_launch
                    changed = True
            if not changed:
                break
        self._forward_pass(launch)

        # Backward pass: worst delay from a net to any register data pin.
        back = self.required_to_register
        data_pins: Dict[str, float] = {}
        for instance in sequential:
            for pin in ("D", "S", "R"):
                if pin in instance.cell.inputs:
                    net = instance.net(pin)
                    requirement = (
                        instance.cell.setup_time
                        if pin == "D"
                        else instance.cell.setup_time * 0.5
                    )
                    data_pins[net] = max(data_pins.get(net, _NEG_INF), requirement)
        for net, value in data_pins.items():
            back[net] = value
        for instance in reversed(self.order):
            delay_here = self.gate_delay(instance)
            out_net = instance.output_net()
            downstream = back.get(out_net, _NEG_INF)
            if downstream <= _NEG_INF:
                continue
            for net in instance.input_nets():
                candidate = delay_here + downstream
                if candidate > back.get(net, _NEG_INF):
                    back[net] = candidate

    def _clock_arrival(self, clock_net: Optional[str]) -> float:
        """Arrival time of a clock net (0 for primary-input clocks)."""
        if clock_net is None:
            return 0.0
        candidates = [
            self.arrival_from_inputs.get(clock_net, _NEG_INF),
            self.arrival_from_registers.get(clock_net, _NEG_INF),
        ]
        if clock_net in self.netlist.inputs:
            candidates.append(0.0)
        best = max(candidates)
        return best if best > _NEG_INF else 0.0

    def _forward_pass(self, launch: Mapping[str, float]) -> None:
        a_in: Dict[str, float] = {}
        a_reg: Dict[str, float] = {}
        for net in self.netlist.inputs:
            a_in[net] = 0.0
            a_reg[net] = _NEG_INF
        for instance in self.netlist.sequential_instances():
            out_net = instance.output_net()
            load = self.loads.get(out_net, 0.0)
            fanout = self.net_table[out_net].fanout if out_net in self.net_table else 0
            output_term = instance.cell.output_delay(load, fanout, instance.size)
            a_in.setdefault(out_net, _NEG_INF)
            a_reg[out_net] = launch[instance.name] + output_term
        self._predecessor = {}
        for instance in self.order:
            delay_here = self.gate_delay(instance)
            out_net = instance.output_net()
            best_in, best_in_src = _NEG_INF, None
            best_reg, best_reg_src = _NEG_INF, None
            for net in instance.input_nets():
                value = a_in.get(net, _NEG_INF)
                if value > best_in:
                    best_in, best_in_src = value, net
                value = a_reg.get(net, _NEG_INF)
                if value > best_reg:
                    best_reg, best_reg_src = value, net
            a_in[out_net] = best_in + delay_here if best_in > _NEG_INF else _NEG_INF
            a_reg[out_net] = best_reg + delay_here if best_reg > _NEG_INF else _NEG_INF
            self._predecessor[out_net] = (best_in_src, best_reg_src)
        self.arrival_from_inputs = a_in
        self.arrival_from_registers = a_reg
        # The backward (register set-up) pass runs once in _run: gate delays
        # depend only on loads and fanout, never on launch times, so
        # recomputing it per forward pass repeated identical work.

    # ------------------------------------------------------------------ query

    def minimum_clock_width(self) -> float:
        """Worst register-to-register path plus set-up (>= min pulse widths)."""
        worst = 0.0
        for instance in self.netlist.sequential_instances():
            out_net = instance.output_net()
            launch = self.register_output_delay(instance)
            capture = self.required_to_register.get(out_net, _NEG_INF)
            if capture > _NEG_INF:
                worst = max(worst, launch + capture)
            worst = max(worst, instance.cell.min_pulse_width)
        return worst

    def clock_to_output(self, output: str) -> Optional[float]:
        value = self.arrival_from_registers.get(output, _NEG_INF)
        return None if value <= _NEG_INF else value

    def input_to_output(self, output: str) -> Optional[float]:
        value = self.arrival_from_inputs.get(output, _NEG_INF)
        return None if value <= _NEG_INF else value

    def setup_time_of_input(self, input_net: str) -> Optional[float]:
        value = self.required_to_register.get(input_net, _NEG_INF)
        return None if value <= _NEG_INF else value

    def critical_path(self) -> List[str]:
        """Nets along the worst register-to-register or input-to-output path."""
        # Choose the terminal net with the worst arrival (either tag).
        best_net, best_value, use_reg = None, _NEG_INF, False
        candidates: List[Tuple[str, float, bool]] = []
        for output in self.netlist.outputs:
            for value, tag in (
                (self.arrival_from_registers.get(output, _NEG_INF), True),
                (self.arrival_from_inputs.get(output, _NEG_INF), False),
            ):
                candidates.append((output, value, tag))
        for instance in self.netlist.sequential_instances():
            if "D" not in instance.cell.pin_index:
                continue
            net = instance.net("D")
            for value, tag in (
                (self.arrival_from_registers.get(net, _NEG_INF), True),
                (self.arrival_from_inputs.get(net, _NEG_INF), False),
            ):
                candidates.append((net, value, tag))
        for net, value, tag in candidates:
            if value > best_value:
                best_net, best_value, use_reg = net, value, tag
        if best_net is None:
            return []
        path = [best_net]
        current = best_net
        while current in self._predecessor:
            pred_in, pred_reg = self._predecessor[current]
            nxt = pred_reg if use_reg else pred_in
            if nxt is None:
                break
            path.append(nxt)
            current = nxt
        path.reverse()
        return path

    def critical_instances(self) -> List[GateInstance]:
        """Instances (combinational and sequential) driving the critical path.

        Sequential cells are included because upsizing the flip-flop that
        drives a heavily loaded output is often the only way to meet an
        output-load constraint (Figure 10 of the paper).
        """
        path = set(self.critical_path())
        instances: List[GateInstance] = []
        for instance in self.netlist.sequential_instances():
            if instance.output_net() in path:
                instances.append(instance)
        for instance in self.order:
            if instance.output_net() in path:
                instances.append(instance)
        return instances


def estimate_delay(
    netlist: GateNetlist,
    constraints: Optional[Constraints] = None,
    external_loads: Optional[Mapping[str, float]] = None,
) -> DelayReport:
    """Run delay estimation and package the result as a :class:`DelayReport`."""
    loads: Dict[str, float] = dict(external_loads or {})
    if constraints is not None:
        for output in netlist.outputs:
            load = constraints.load_for(output)
            if load:
                loads[output] = loads.get(output, 0.0) + load
    analysis = DelayAnalysis(netlist, loads)

    report = DelayReport(
        component=netlist.name,
        clock_width=analysis.minimum_clock_width(),
        is_sequential=bool(netlist.sequential_instances()),
    )
    report.min_pulse_width = max(
        (inst.cell.min_pulse_width for inst in netlist.sequential_instances()),
        default=0.0,
    )
    for output in netlist.outputs:
        reg_delay = analysis.clock_to_output(output)
        if reg_delay is not None:
            report.clock_to_output[output] = reg_delay
        comb = analysis.input_to_output(output)
        if comb is not None:
            report.comb_delays[output] = comb
    for input_net in netlist.inputs:
        setup = analysis.setup_time_of_input(input_net)
        if setup is not None:
            report.setup_times[input_net] = setup
    return report
