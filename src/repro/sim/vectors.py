"""Test-vector helpers and equivalence checking.

The paper verifies that a generated component is functionally correct and
meets its constraints (Section 4.3).  This module provides the vector
plumbing used by ICDB's verification step and by the test suite:

* driving / reading buses on either simulator;
* exhaustive or random combinational equivalence checks between a flat IIF
  component and its synthesized gate netlist;
* a sequential lock-step comparison over random stimulus.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..iif.flat import FlatComponent
from ..netlist.gates import GateNetlist
from ..wire import Wire
from .functional import FlatSimulator
from .gatesim import GateSimulator, read_bus

__all__ = [
    "EquivalenceResult",
    "bus_assignment",
    "read_bus",
    "check_combinational_equivalence",
    "check_sequential_equivalence",
]


@dataclass
class EquivalenceResult(Wire):
    """Outcome of an equivalence check.

    ``vectors_checked`` counts the vectors (or, for lock-step sequential
    checks, stimulus applications) actually simulated -- on an early
    mismatch it includes the counterexample vector but nothing after it.
    ``mode`` records which check produced the result
    (``"combinational"`` / ``"sequential"``) when known.
    """

    equivalent: bool
    vectors_checked: int
    counterexample: Optional[Dict[str, int]] = None
    mismatched_outputs: Tuple[str, ...] = ()
    mode: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


def bus_assignment(base: str, width: int, value: int) -> Dict[str, int]:
    """Input assignment driving ``base[width-1..0]`` with ``value``."""
    return {f"{base}[{i}]": (value >> i) & 1 for i in range(width)}


def _input_vectors(
    inputs: Sequence[str], max_exhaustive: int, samples: int, seed: int
) -> List[Dict[str, int]]:
    if len(inputs) <= max_exhaustive:
        return [
            dict(zip(inputs, bits))
            for bits in itertools.product((0, 1), repeat=len(inputs))
        ]
    rng = random.Random(seed)
    vectors = []
    for _ in range(samples):
        vectors.append({name: rng.randint(0, 1) for name in inputs})
    return vectors


def check_combinational_equivalence(
    flat: FlatComponent,
    netlist: GateNetlist,
    max_exhaustive: int = 10,
    samples: int = 200,
    seed: int = 1990,
) -> EquivalenceResult:
    """Compare a combinational flat component against its gate netlist.

    Exhaustive over the inputs when there are at most ``max_exhaustive`` of
    them, random sampling otherwise.
    """
    collapsed = flat.collapsed_output_expressions()
    vectors = _input_vectors(flat.inputs, max_exhaustive, samples, seed)
    simulator = GateSimulator(netlist)
    for checked, vector in enumerate(vectors, start=1):
        gate_values = simulator.apply(vector)
        mismatches = []
        for output in flat.outputs:
            expected = collapsed[output].evaluate(vector)
            if gate_values[output] != expected:
                mismatches.append(output)
        if mismatches:
            return EquivalenceResult(
                equivalent=False,
                vectors_checked=checked,
                counterexample=dict(vector),
                mismatched_outputs=tuple(mismatches),
                mode="combinational",
            )
    return EquivalenceResult(
        equivalent=True, vectors_checked=len(vectors), mode="combinational"
    )


def check_sequential_equivalence(
    flat: FlatComponent,
    netlist: GateNetlist,
    clock: str,
    cycles: int = 32,
    seed: int = 1990,
    hold_inputs: Optional[Mapping[str, int]] = None,
) -> EquivalenceResult:
    """Lock-step comparison of a sequential component and its netlist.

    Both simulators start from the all-zero state; every cycle random values
    are applied to the non-clock inputs (except those pinned by
    ``hold_inputs``), a clock cycle is run, and the outputs are compared.
    """
    rng = random.Random(seed)
    flat_sim = FlatSimulator(flat)
    gate_sim = GateSimulator(netlist)
    free_inputs = [
        name for name in flat.inputs if name != clock and name not in (hold_inputs or {})
    ]
    for cycle in range(cycles):
        stimulus: Dict[str, int] = {name: rng.randint(0, 1) for name in free_inputs}
        if hold_inputs:
            stimulus.update(hold_inputs)
        flat_out = flat_sim.clock_cycle(clock, stimulus)
        gate_out = gate_sim.clock_cycle(clock, stimulus)
        mismatches = [
            output for output in flat.outputs if flat_out[output] != gate_out[output]
        ]
        if mismatches:
            return EquivalenceResult(
                equivalent=False,
                vectors_checked=cycle + 1,
                counterexample=dict(stimulus),
                mismatched_outputs=tuple(mismatches),
                mode="sequential",
            )
    return EquivalenceResult(
        equivalent=True, vectors_checked=cycles, mode="sequential"
    )
