"""Simulators used to verify generated components (flat and gate level).

One engine family, bit-parallel: :class:`BatchFlatSimulator` (flat IIF)
and :class:`BatchGateSimulator` (mapped gate netlist) pack ``W`` vectors
into big-integer lanes, one bitwise operation per gate per step
(:mod:`repro.sim.batch`); a one-lane engine simulates one vector at a
time.  The verification layer (:mod:`repro.sim.verify`) builds the
equivalence checks and vector simulation on top.

See ``docs/sim.md``.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".batch": (
        "BatchFlatSimulator",
        "BatchGateSimulator",
        "GateSimulationError",
        "SimulationError",
        "batch_evaluate",
        "pack_vectors",
        "read_bus",
        "unpack_lane",
        "unpack_lanes",
    ),
    ".verify": (
        "EQUIVALENCE_MODES",
        "SIM_ENGINES",
        "EquivalenceResult",
        "VerificationError",
        "bus_assignment",
        "check_combinational_equivalence_batch",
        "check_equivalence",
        "check_sequential_equivalence_batch",
        "simulate_vectors",
    ),
})
