"""Simulators used to verify generated components (flat and gate level).

One engine family, bit-parallel: :class:`BatchFlatSimulator` (flat IIF)
and :class:`BatchGateSimulator` (mapped gate netlist) pack ``W`` vectors
into big-integer lanes, one bitwise operation per gate per step
(:mod:`repro.sim.batch`); a one-lane engine simulates one vector at a
time.  The verification layer (:mod:`repro.sim.verify`) builds the
equivalence checks and vector simulation on top.

See ``docs/sim.md``.
"""

from .batch import (
    BatchFlatSimulator,
    BatchGateSimulator,
    GateSimulationError,
    SimulationError,
    batch_evaluate,
    pack_vectors,
    read_bus,
    unpack_lane,
    unpack_lanes,
)
from .verify import (
    EQUIVALENCE_MODES,
    SIM_ENGINES,
    EquivalenceResult,
    VerificationError,
    bus_assignment,
    check_combinational_equivalence_batch,
    check_equivalence,
    check_sequential_equivalence_batch,
    simulate_vectors,
)

__all__ = [
    "BatchFlatSimulator",
    "BatchGateSimulator",
    "EQUIVALENCE_MODES",
    "EquivalenceResult",
    "GateSimulationError",
    "SIM_ENGINES",
    "SimulationError",
    "VerificationError",
    "batch_evaluate",
    "bus_assignment",
    "check_combinational_equivalence_batch",
    "check_equivalence",
    "check_sequential_equivalence_batch",
    "pack_vectors",
    "read_bus",
    "simulate_vectors",
    "unpack_lane",
    "unpack_lanes",
]
