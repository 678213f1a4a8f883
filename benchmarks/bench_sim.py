"""Bit-parallel simulation throughput: 64 lanes vs one lane.

The paper's ICDB verifies every generated component by simulation
(Section 4.3).  The engines of :mod:`repro.sim.batch` pack W vectors
into big-integer lanes -- one bitwise operation per gate evaluates all W
lanes -- so throughput should scale with the lane width until
big-integer arithmetic costs kick in.  The baseline is the same engine
one lane wide, i.e. one vector at a time through Python-level gate
loops.  Measured:

* **comb_sweep** -- the exhaustive 512-vector sweep of the 4-bit
  ripple-carry adder netlist, one-lane ``BatchGateSimulator`` vs 64-lane
  blocks (the equivalence checker's shape);
* **sequential** -- lock-step clocked simulation of the 4-bit up/down
  counter, 64 one-lane machines vs one 64-lane machine.

Each gate is the median of per-pair ratios over back-to-back pairs of
one one-lane run and one 64-lane run, in alternating order
(:func:`conftest.paired_median`).  Acceptance: the 64-lane combinational
sweep sustains at least 20x the one-lane vectors/second, lock-step
simulation at least 5x.  Results land in ``BENCH_sim.json``.
"""

from __future__ import annotations

import random
import time

from conftest import paired_median, record_bench_results, run_once

from repro.components import standard_catalog
from repro.components.counters import TYPE_SYNCHRONOUS, UP_DOWN, counter_parameters
from repro.logic.milo import synthesize
from repro.sim import BatchGateSimulator, pack_vectors
from repro.techlib import standard_cells

#: Lane width of the batch runs (vectors per bitwise operation).
LANES = 64
#: One-lane/64-lane pairs per gate.
PAIRS = 5
#: Exhaustive sweeps per timed comb run (one batch sweep takes ~2 ms,
#: too short to time on its own).
SWEEPS = 5
#: Lock-step clock cycles per sequential run.
CYCLES = 32


def _adder_netlist():
    catalog = standard_catalog()
    flat = catalog.get("ripple_carry_adder").expand({"size": 4})
    return flat, synthesize(flat, standard_cells())


def _all_vectors(inputs):
    return [
        {name: (row >> bit) & 1 for bit, name in enumerate(inputs)}
        for row in range(1 << len(inputs))
    ]


def _rate(count, run) -> float:
    start = time.perf_counter()
    run()
    return count / (time.perf_counter() - start)


def _record_and_gate(benchmark, key, unit, result, floor, **shape):
    speedup = result["ratio"]
    print()
    print(f"one lane: {result['a']:>12.0f} {unit}/s")
    print(f"{LANES} lanes: {result['b']:>12.0f} {unit}/s")
    print(f"speedup:  {speedup:>12.1f}x median over {PAIRS} pairs (floor {floor}x)")
    measured = {
        **shape,
        "lanes": LANES,
        "pairs": PAIRS,
        f"one_lane_{unit}_per_s": round(result["a"], 1),
        f"batch_{unit}_per_s": round(result["b"], 1),
        "speedup": round(speedup, 2),
        "pair_speedups": [round(ratio, 2) for ratio in result["ratios"]],
        "floor": floor,
    }
    benchmark.extra_info["measured"] = measured
    record_bench_results("sim", key, measured)
    assert speedup >= floor


def test_bench_bit_parallel_comb_sweep(benchmark):
    flat, netlist = _adder_netlist()
    vectors = _all_vectors(netlist.inputs)

    def one_lane():
        for _ in range(SWEEPS):
            simulator = BatchGateSimulator(netlist, 1)
            for vector in vectors:
                simulator.apply(vector)

    def batch():
        for _ in range(SWEEPS):
            # One reusable 64-lane machine, like the one-lane loop reuses
            # one simulator (the netlist is combinational: lanes carry no
            # state between blocks).
            simulator = BatchGateSimulator(netlist, LANES)
            for offset in range(0, len(vectors), LANES):
                block = vectors[offset : offset + LANES]
                simulator.apply(pack_vectors(block, netlist.inputs))

    result = run_once(
        benchmark,
        lambda: paired_median(
            lambda: _rate(len(vectors) * SWEEPS, one_lane),
            lambda: _rate(len(vectors) * SWEEPS, batch),
            PAIRS,
        ),
    )
    print(f"\n{len(vectors)} vectors x {SWEEPS} sweeps, {netlist.name} "
          f"({len(list(netlist.all_instances()))} gates)")
    _record_and_gate(
        benchmark, "comb_sweep", "vectors", result, 20.0,
        vectors=len(vectors), sweeps=SWEEPS,
    )


def test_bench_bit_parallel_sequential_lock_step(benchmark):
    catalog = standard_catalog()
    flat = catalog.get("counter").expand(
        counter_parameters(size=4, style=TYPE_SYNCHRONOUS, load=True, enable=True,
                           up_or_down=UP_DOWN)
    )
    netlist = synthesize(flat, standard_cells())
    free = [name for name in flat.inputs if name != "CLK"]
    rng = random.Random(1990)
    stimuli = [{name: rng.getrandbits(LANES) for name in free} for _ in range(CYCLES)]
    applications = LANES * CYCLES

    def one_lane():
        machines = [BatchGateSimulator(netlist, 1) for _ in range(LANES)]
        for stimulus in stimuli:
            for lane, machine in enumerate(machines):
                machine.clock_cycle(
                    "CLK",
                    {name: (value >> lane) & 1 for name, value in stimulus.items()},
                )

    def batch():
        simulator = BatchGateSimulator(netlist, LANES)
        for stimulus in stimuli:
            simulator.clock_cycle("CLK", stimulus)

    result = run_once(
        benchmark,
        lambda: paired_median(
            lambda: _rate(applications, one_lane),
            lambda: _rate(applications, batch),
            PAIRS,
        ),
    )
    print(f"\n{LANES} lanes x {CYCLES} cycles, {netlist.name}")
    # Lock-step has per-cycle Python overhead both sides share, so the bar
    # is lower than the pure combinational sweep's.
    _record_and_gate(
        benchmark, "sequential_lock_step", "stimuli", result, 5.0, cycles=CYCLES
    )
