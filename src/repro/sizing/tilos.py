"""Transistor sizing (the TILOS-like step of the generation pipeline).

Given a mapped netlist and delay constraints (minimum clock width,
input-to-output delay bounds, output loads), the sizer repeatedly upsizes
the most effective gate on the current critical path until the constraints
are met or no further improvement is possible.  Upsizing a gate lowers its
own load-dependent delay but increases the load it presents to its driver
and its width -- exactly the area/delay/load behaviour the paper explores
in Figures 10 and 11 (area changes of only a few percent over wide
constraint ranges).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints import Constraints
from ..estimation.delay import DelayAnalysis, DelayReport, estimate_delay
from ..netlist.gates import GateInstance, GateNetlist
from ..techlib import MAX_SIZE
from ..wire import Record, field


class SizingResult(Record):
    """Outcome of a sizing run."""

    netlist: GateNetlist
    report: DelayReport
    iterations: int
    met_constraints: bool
    violations: List[str] = field(default_factory=list)
    initial_report: Optional[DelayReport] = None

    def upsized_instances(self) -> List[GateInstance]:
        return [inst for inst in self.netlist.all_instances() if inst.size > 1.0]

    def size_histogram(self) -> Dict[float, int]:
        histogram: Dict[float, int] = {}
        for instance in self.netlist.all_instances():
            histogram[round(instance.size, 3)] = histogram.get(round(instance.size, 3), 0) + 1
        return histogram


class SizingOptions(Record):
    """Knobs of the greedy sizing loop (ablation benches vary these)."""

    step: float = 1.3
    max_iterations: int = 400
    max_size: float = MAX_SIZE
    #: when True the sizer upsizes every gate uniformly instead of walking the
    #: critical path (the "uniform" ablation baseline)
    uniform: bool = False


def _external_loads(netlist: GateNetlist, constraints: Constraints) -> Dict[str, float]:
    loads: Dict[str, float] = {}
    for output in netlist.outputs:
        load = constraints.load_for(output)
        if load:
            loads[output] = load
    return loads


def _worst_violation(report: DelayReport, constraints: Constraints) -> float:
    """Largest amount (ns) by which a constraint is exceeded (0 if all met)."""
    worst = 0.0
    target_cw = constraints.effective_clock_width()
    if report.is_sequential and target_cw is not None:
        floor = max(target_cw, report.min_pulse_width)
        worst = max(worst, report.clock_width - floor)
    for output, value in {**report.comb_delays, **report.clock_to_output}.items():
        bound = constraints.comb_delay_for(output)
        if bound is not None:
            worst = max(worst, value - max(bound, 0.0))
    if constraints.setup_time is not None:
        for value in report.setup_times.values():
            worst = max(worst, value - constraints.setup_time)
    return worst


def _pick_candidate(
    analysis: DelayAnalysis, options: SizingOptions
) -> Optional[GateInstance]:
    """Choose the critical-path gate whose upsizing helps the most."""
    best_instance: Optional[GateInstance] = None
    best_gain = 0.0
    drivers = analysis.netlist.drivers()
    candidates = analysis.critical_instances()
    if not candidates:
        candidates = [
            inst
            for inst in analysis.netlist.all_instances()
            if not inst.is_sequential
        ]
    for instance in candidates:
        if instance.size * options.step > options.max_size:
            continue
        out_net = instance.output_net()
        load = analysis.loads.get(out_net, 0.0)
        fanout = analysis.fanout.get(out_net, 0)
        current = instance.cell.output_delay(load, fanout, instance.size)
        upsized = instance.cell.output_delay(load, fanout, instance.size * options.step)
        # Upsizing increases the load seen by the driver of each input net;
        # charge an approximate penalty for it so the greedy choice does not
        # simply max out every gate.
        penalty = 0.0
        extra_load = instance.cell.input_load_at_size(
            instance.size * options.step
        ) - instance.cell.input_load_at_size(instance.size)
        for net in instance.input_nets():
            driver = drivers.get(net)
            if driver is None:
                continue
            penalty += extra_load * driver.cell.load_delay_at_size(driver.size)
        gain = (current - upsized) - 0.5 * penalty
        if gain > best_gain:
            best_gain = gain
            best_instance = instance
    return best_instance


def size_for_constraints(
    netlist: GateNetlist,
    constraints: Constraints,
    options: Optional[SizingOptions] = None,
    in_place: bool = True,
) -> SizingResult:
    """Size the netlist in place until the delay constraints are met.

    Returns a :class:`SizingResult`; ``met_constraints`` is False when the
    greedy loop ran out of useful moves (the paper's ICDB relaxes the
    constraints in that case and still returns the component).  A
    netlist whose report already meets every constraint is returned as
    is, with no iteration.

    With ``in_place=False`` the caller's netlist is never touched: it is
    cloned just before the first gate is resized, and
    ``SizingResult.netlist`` is the copy, or ``netlist`` itself when no
    gate moved.
    """
    options = options or SizingOptions()
    loads = _external_loads(netlist, constraints)
    initial_report = estimate_delay(netlist, constraints=constraints)

    if _worst_violation(initial_report, constraints) <= 1e-9:
        return SizingResult(
            netlist=netlist,
            report=initial_report,
            iterations=0,
            met_constraints=True,
            violations=initial_report.violations(constraints),
            initial_report=initial_report,
        )

    if options.uniform:
        if not in_place:
            netlist = netlist.clone()
        return _uniform_sizing(netlist, constraints, options, initial_report)

    report = initial_report
    iterations = 0
    while iterations < options.max_iterations:
        if _worst_violation(report, constraints) <= 1e-9:
            break
        analysis = DelayAnalysis(netlist, loads)
        candidate = _pick_candidate(analysis, options)
        if candidate is None:
            break
        if not in_place:
            netlist, in_place = netlist.clone(), True
            candidate = netlist.instance(candidate.name)
        candidate.size = min(options.max_size, candidate.size * options.step)
        iterations += 1
        report = estimate_delay(netlist, constraints=constraints)

    violations = report.violations(constraints)
    met = _worst_violation(report, constraints) <= 1e-9
    return SizingResult(
        netlist=netlist,
        report=report,
        iterations=iterations,
        met_constraints=met,
        violations=violations,
        initial_report=initial_report,
    )


def _uniform_sizing(
    netlist: GateNetlist,
    constraints: Constraints,
    options: SizingOptions,
    initial_report: DelayReport,
) -> SizingResult:
    """Ablation baseline: upsize every combinational gate in lock step."""
    report = initial_report
    iterations = 0
    while iterations < options.max_iterations:
        if _worst_violation(report, constraints) <= 1e-9:
            break
        moved = False
        for instance in netlist.all_instances():
            if instance.is_sequential:
                continue
            upsized = instance.size * options.step
            if upsized <= options.max_size:
                instance.size = upsized
                moved = True
        if not moved:
            break
        iterations += 1
        report = estimate_delay(netlist, constraints=constraints)
    met = _worst_violation(report, constraints) <= 1e-9
    return SizingResult(
        netlist=netlist,
        report=report,
        iterations=iterations,
        met_constraints=met,
        violations=report.violations(constraints),
        initial_report=initial_report,
    )
