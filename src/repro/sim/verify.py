"""Verification: equivalence checks and vector simulation services.

The paper's ICDB functionally verifies every generated component (Section
4.3 runs a VHDL simulator over the synthesized design).  This module is
that verification step built on the bit-parallel engines of
:mod:`repro.sim.batch`:

* :func:`check_combinational_equivalence_batch` -- exhaustive (small
  input counts) or seeded-random sampled comparison of a flat component's
  collapsed output expressions against its gate netlist, whole lane
  blocks per Python operation;
* :func:`check_sequential_equivalence_batch` -- lock-step comparison of
  the flat and gate-level machines over many independent random stimulus
  streams (one per lane) at once;
* :func:`check_equivalence` -- the mode-dispatching entry the service
  layer exposes (``auto`` picks sequential when either side has state);
* :func:`simulate_vectors` -- batch vector simulation behind the
  ``simulate`` request: one lane per vector for combinational sweeps, a
  single-lane trace of one cycle per vector when a clock is named;
* :class:`EquivalenceResult` -- the typed verdict every check answers,
  and :func:`bus_assignment`, which drives a bus with an integer.

All loops call :func:`repro.core.progress.checkpoint` once per vector
block / cycle, so a simulation or equivalence check submitted as a job is
cancellable between blocks and reports streaming progress.

Counterexamples are extracted lane-precisely: the reported assignment is
the earliest mismatching vector (lowest lane of the first mismatching
block), and ``vectors_checked`` counts vectors actually simulated up to
and including it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.messages import EQUIVALENCE_MODES, SIM_ENGINES
from ..core.progress import checkpoint
from ..iif.flat import FlatComponent
from ..netlist.gates import GateNetlist
from ..wire import Wire
from .batch import (
    BatchFlatSimulator,
    BatchGateSimulator,
    SimulationError,
    batch_evaluate,
    pack_vectors,
    unpack_lane,
)

__all__ = [
    "EQUIVALENCE_MODES",
    "EquivalenceResult",
    "SIM_ENGINES",
    "VerificationError",
    "bus_assignment",
    "check_combinational_equivalence_batch",
    "check_equivalence",
    "check_sequential_equivalence_batch",
    "simulate_vectors",
]


class VerificationError(ValueError):
    """Raised on invalid verification requests (bad mode / engine,
    mismatched ports, missing clock)."""


#: Vectors per lane block: bounds both the big-integer width and the
#: spacing of cancellation checkpoints.
DEFAULT_BLOCK_LANES = 256


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


def _lowest_lane(mask: int) -> int:
    """Index of the lowest set bit (the earliest mismatching lane)."""
    return (mask & -mask).bit_length() - 1


def _check_reference(flat: FlatComponent) -> None:
    """A flat reference must drive every output it declares.

    A cluster instance carries a flat form with ports and no equations:
    there is nothing to simulate or compare against, so it is an invalid
    operation rather than an all-zero answer or a bare ``KeyError``.
    """
    driven = flat.driven_signals()
    undriven = [output for output in flat.outputs if output not in driven]
    if undriven:
        raise SimulationError(
            f"{flat.name}: the flat form drives no value on output "
            f"{undriven[0]!r}, so it cannot serve as a reference"
        )


def _check_ports(flat: FlatComponent, netlist: GateNetlist) -> None:
    """The reference must drive its outputs, and the two sides of an
    equivalence check must expose the same ports."""
    _check_reference(flat)
    if sorted(flat.inputs) != sorted(netlist.inputs) or sorted(
        flat.outputs
    ) != sorted(netlist.outputs):
        raise VerificationError(
            f"port mismatch: reference {flat.name!r} has inputs "
            f"{sorted(flat.inputs)} / outputs {sorted(flat.outputs)}, netlist "
            f"{netlist.name!r} has inputs {sorted(netlist.inputs)} / outputs "
            f"{sorted(netlist.outputs)}"
        )


def check_combinational_equivalence_batch(
    flat: FlatComponent,
    netlist: GateNetlist,
    max_exhaustive: int = 10,
    samples: int = 256,
    seed: int = 1990,
    block_lanes: int = DEFAULT_BLOCK_LANES,
) -> EquivalenceResult:
    """Bit-parallel combinational comparison of ``flat`` vs ``netlist``.

    Exhaustive when ``len(inputs) <= max_exhaustive`` (in
    ``itertools.product`` order over ``flat.inputs``), seeded random
    sampling otherwise; the work happens ``block_lanes`` vectors per
    bitwise operation.
    """
    _check_ports(flat, netlist)
    collapsed = flat.collapsed_output_expressions()
    vectors = _input_vectors(flat.inputs, max_exhaustive, samples, seed)
    total = len(vectors)
    checked = 0
    for start in range(0, total, block_lanes):
        checkpoint("equivalence", start / total if total else 1.0)
        block = vectors[start : start + block_lanes]
        lanes = len(block)
        full = (1 << lanes) - 1
        packed = pack_vectors(block, flat.inputs)
        gate_values = BatchGateSimulator(netlist, lanes).apply(packed)
        memo: Dict[object, int] = {}
        diffs: Dict[str, int] = {}
        combined = 0
        for output in flat.outputs:
            expected = batch_evaluate(collapsed[output], packed, full, memo)
            diff = (expected ^ gate_values[output]) & full
            if diff:
                diffs[output] = diff
                combined |= diff
        if combined:
            lane = _lowest_lane(combined)
            bit = 1 << lane
            return EquivalenceResult(
                equivalent=False,
                vectors_checked=checked + lane + 1,
                counterexample=unpack_lane(packed, lane),
                mismatched_outputs=tuple(
                    output
                    for output in flat.outputs
                    if diffs.get(output, 0) & bit
                ),
                mode="combinational",
            )
        checked += lanes
    return EquivalenceResult(
        equivalent=True, vectors_checked=total, mode="combinational"
    )


def check_sequential_equivalence_batch(
    flat: FlatComponent,
    netlist: GateNetlist,
    clock: str,
    cycles: int = 32,
    lanes: int = 64,
    seed: int = 1990,
    hold_inputs: Optional[Mapping[str, int]] = None,
) -> EquivalenceResult:
    """Lock-step flat-vs-gate comparison over ``lanes`` stimulus streams.

    Every lane is an independent random experiment: both machines start
    from the all-zero state, every cycle each lane draws fresh random
    values for the non-clock inputs (``hold_inputs`` pins a value across
    all lanes), one clock cycle runs, and the outputs are compared lane
    for lane.  ``vectors_checked`` counts stimulus applications
    (``lanes`` per cycle); on a mismatch the counterexample is the
    earliest mismatching lane's stimulus of that cycle.
    """
    _check_ports(flat, netlist)
    rng = random.Random(seed)
    flat_sim = BatchFlatSimulator(flat, lanes)
    gate_sim = BatchGateSimulator(netlist, lanes)
    full = flat_sim.full
    held = dict(hold_inputs or {})
    free_inputs = [
        name for name in flat.inputs if name != clock and name not in held
    ]
    for cycle in range(cycles):
        checkpoint("lockstep", cycle / cycles if cycles else 1.0)
        stimulus: Dict[str, int] = {
            name: rng.getrandbits(lanes) for name in free_inputs
        }
        for name, value in held.items():
            stimulus[name] = full if value else 0
        flat_out = flat_sim.clock_cycle(clock, stimulus)
        gate_out = gate_sim.clock_cycle(clock, stimulus)
        diffs = {
            output: (flat_out[output] ^ gate_out[output]) & full
            for output in flat.outputs
        }
        combined = 0
        for diff in diffs.values():
            combined |= diff
        if combined:
            lane = _lowest_lane(combined)
            bit = 1 << lane
            return EquivalenceResult(
                equivalent=False,
                vectors_checked=cycle * lanes + lane + 1,
                counterexample=unpack_lane(stimulus, lane),
                mismatched_outputs=tuple(
                    output for output in flat.outputs if diffs[output] & bit
                ),
                mode="sequential",
            )
    return EquivalenceResult(
        equivalent=True, vectors_checked=cycles * lanes, mode="sequential"
    )


def check_equivalence(
    flat: FlatComponent,
    netlist: GateNetlist,
    mode: str = "auto",
    clock: Optional[str] = None,
    max_exhaustive: int = 10,
    samples: int = 256,
    cycles: int = 32,
    lanes: int = 64,
    seed: int = 1990,
) -> EquivalenceResult:
    """Check ``netlist`` against the ``flat`` reference specification.

    ``mode`` ``"auto"`` runs the sequential lock-step check when either
    side holds state and the combinational sweep otherwise; the clock
    defaults to the flat side's (single) declared clock input.
    """
    if mode not in EQUIVALENCE_MODES:
        raise VerificationError(
            f"unknown equivalence mode {mode!r}; expected one of "
            f"{EQUIVALENCE_MODES}"
        )
    _check_ports(flat, netlist)
    sequential = bool(flat.sequential()) or bool(netlist.sequential_instances())
    if mode == "auto":
        mode = "sequential" if sequential else "combinational"
    if mode == "combinational":
        return check_combinational_equivalence_batch(
            flat,
            netlist,
            max_exhaustive=max_exhaustive,
            samples=samples,
            seed=seed,
        )
    if clock is None:
        clocks = flat.clock_inputs()
        if not clocks:
            raise VerificationError(
                f"{flat.name}: sequential equivalence needs a clock input "
                f"(none declared, none supplied)"
            )
        clock = clocks[0]
    elif clock not in flat.inputs:
        raise VerificationError(
            f"{flat.name}: clock {clock!r} is not an input"
        )
    return check_sequential_equivalence_batch(
        flat, netlist, clock, cycles=cycles, lanes=lanes, seed=seed
    )


def simulate_vectors(
    flat: FlatComponent,
    netlist: GateNetlist,
    vectors: Sequence[Mapping[str, int]],
    engine: str = "gates",
    clock: Optional[str] = None,
    block_lanes: int = DEFAULT_BLOCK_LANES,
) -> List[Dict[str, int]]:
    """Simulate ``vectors`` on one engine; one output dict per vector.

    Without a ``clock``, every vector is an independent experiment
    applied to a freshly reset component -- all of them at once, one
    lane per vector.  With a ``clock``, the vectors are the consecutive
    per-cycle stimuli of one trace (inputs applied during the low phase,
    outputs sampled after the rising edge), which is inherently serial in
    time and runs as a single-lane batch.
    """
    if engine not in SIM_ENGINES:
        raise VerificationError(
            f"unknown simulation engine {engine!r}; expected one of "
            f"{SIM_ENGINES}"
        )

    def fresh(lanes: int):
        if engine == "flat":
            return BatchFlatSimulator(flat, lanes)
        return BatchGateSimulator(netlist, lanes)

    if engine == "flat":
        _check_reference(flat)
    inputs = flat.inputs if engine == "flat" else netlist.inputs
    if clock is not None and clock not in inputs:
        raise VerificationError(f"clock {clock!r} is not an input")
    total = len(vectors)
    outputs: List[Dict[str, int]] = []
    if clock is not None:
        simulator = fresh(1)
        for cycle, vector in enumerate(vectors):
            if cycle % block_lanes == 0:
                checkpoint("simulate", cycle / total if total else 1.0)
            result = simulator.clock_cycle(
                clock, {name: 1 if value else 0 for name, value in vector.items()}
            )
            outputs.append({name: value & 1 for name, value in result.items()})
        return outputs
    for start in range(0, total, block_lanes):
        checkpoint("simulate", start / total if total else 1.0)
        block = vectors[start : start + block_lanes]
        lanes = len(block)
        packed = pack_vectors(block, None)
        result = fresh(lanes).apply(packed)
        for lane in range(lanes):
            outputs.append(unpack_lane(result, lane))
    return outputs
