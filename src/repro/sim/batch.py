"""Bit-parallel (word-level) simulation: repro.sim's two engines.

:class:`BatchFlatSimulator` runs a flat IIF component and
:class:`BatchGateSimulator` a mapped gate netlist.  Both pack ``W``
independent test vectors into **big-integer lanes**: every net carries
one Python ``int`` whose bit ``i`` is the net's value in lane ``i``, and
every gate / expression node evaluates all ``W`` lanes with a single
bitwise operation.  This extends the ``truth_mask`` trick of
:mod:`repro.logic.expr` (which evaluates all ``2**n`` truth-table rows in
one pass over the hash-consed IR) from pure expressions to full
components, including sequential (clocked) lock-step simulation.  A
one-lane engine (``W = 1``) is the one-vector-at-a-time simulator.

Lanes are *independent experiments*: each carries its own primary-input
stream and its own flip-flop / latch state, but all lanes share the one
clocking schedule of the driving calls (``apply`` / ``clock_cycle``).
Per lane, combinational logic settles to a fixpoint; flip-flops commit in
two phases (every triggered flip-flop samples D before any updates);
asynchronous set wins over reset, and both over a clock edge; a latch is
transparent at its active level; a ``TRIBUF`` holds its output while
``EN`` is 0 (a bus-keeper: the engines are two-valued, with no ``Z`` or
``X``) and a ``WIREOR`` cell resolves as OR.  See ``docs/sim.md``;
``tests/test_sim_batch.py`` checks the engines against references that
share no code with them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..iif.flat import CombAssign, FlatComponent, SeqAssign
from ..logic import expr as E
from ..netlist.gates import GateInstance, GateNetlist
from ..netlist.graph import combinational_order

__all__ = [
    "BatchFlatSimulator",
    "BatchGateSimulator",
    "GateSimulationError",
    "SimulationError",
    "batch_evaluate",
    "pack_vectors",
    "read_bus",
    "unpack_lane",
    "unpack_lanes",
]


class SimulationError(RuntimeError):
    """Raised when the simulator cannot settle or inputs are missing."""


class GateSimulationError(RuntimeError):
    """Raised on unknown cells or missing input values."""


#: Safety bound for the combinational / edge settling loop.
MAX_SETTLE_ITERATIONS = 1000


def read_bus(values: Mapping[str, int], base: str, width: int) -> int:
    """Read ``base[width-1 .. 0]`` out of a name->value mapping.

    The one shared bus unpacker; a missing bit net raises
    :class:`GateSimulationError` naming the net instead of a bare
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


# ---------------------------------------------------------------------------
# Lane packing helpers
# ---------------------------------------------------------------------------


def pack_vectors(
    vectors: Sequence[Mapping[str, int]],
    names: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Pack per-vector assignments into lane integers.

    Bit ``i`` of the result for ``name`` is vector ``i``'s value of
    ``name`` (missing names default to 0).  ``names`` fixes the packed
    signal set; by default it is the union of the vectors' keys in first
    appearance order.
    """
    if names is None:
        seen: Dict[str, None] = {}
        for vector in vectors:
            for name in vector:
                seen.setdefault(name, None)
        names = list(seen)
    packed: Dict[str, int] = {name: 0 for name in names}
    for lane, vector in enumerate(vectors):
        bit = 1 << lane
        for name in names:
            if vector.get(name, 0):
                packed[name] |= bit
    return packed


def unpack_lane(values: Mapping[str, int], lane: int) -> Dict[str, int]:
    """Extract one lane's scalar assignment from lane-packed values."""
    return {name: (value >> lane) & 1 for name, value in values.items()}


def unpack_lanes(values: Mapping[str, int], lanes: int) -> List[Dict[str, int]]:
    """Explode lane-packed values back into one scalar dict per lane."""
    return [unpack_lane(values, lane) for lane in range(lanes)]


# ---------------------------------------------------------------------------
# Batch expression evaluation (flat IR)
# ---------------------------------------------------------------------------


def batch_evaluate(
    expr: E.BExpr,
    env: Mapping[str, int],
    full: int,
    memo: Optional[Dict[E.BExpr, int]] = None,
) -> int:
    """Evaluate ``expr`` over lane-packed variable values.

    ``full`` is the all-lanes mask ``(1 << lanes) - 1``; every node costs
    one bitwise operation for all lanes at once, and the hash-consed
    expression graph is walked once per distinct node (``memo`` carries
    shared-subgraph results across calls evaluated against the *same*
    environment snapshot).
    """
    if memo is None:
        memo = {}

    def rec(node: E.BExpr) -> int:
        result = memo.get(node)
        if result is not None:
            return result
        if isinstance(node, E.Const):
            result = full if node.value else 0
        elif isinstance(node, E.Var):
            try:
                result = env[node.name] & full
            except KeyError:
                raise SimulationError(
                    f"no value for signal {node.name!r}"
                ) from None
        elif isinstance(node, E.Not):
            result = full ^ rec(node.operand)
        elif isinstance(node, E.Buf):
            result = rec(node.operand)
        elif isinstance(node, E.And):
            result = full
            for arg in node.args:
                result &= rec(arg)
        elif isinstance(node, E.Or):
            result = 0
            for arg in node.args:
                result |= rec(arg)
        elif isinstance(node, E.Xor):
            result = rec(node.left) ^ rec(node.right)
        elif isinstance(node, E.Xnor):
            result = full ^ rec(node.left) ^ rec(node.right)
        elif isinstance(node, E.Special):
            # Functional (zero-delay, driven) semantics, exactly like the
            # scalar ``Special.evaluate``: wire-or resolves as OR, the
            # data input wins for tri-state / delay / schmitt.
            if node.kind == "wireor":
                result = 0
                for arg in node.args:
                    result |= rec(arg)
            else:
                result = rec(node.args[0])
        else:
            raise SimulationError(f"cannot batch-evaluate {node!r}")
        memo[node] = result
        return result

    return rec(expr)


# ---------------------------------------------------------------------------
# Batch flat (functional) simulator
# ---------------------------------------------------------------------------


class BatchFlatSimulator:
    """Cycle-accurate simulator over a :class:`FlatComponent`, ``lanes`` wide.

    Every value in :attr:`values` is a ``lanes``-bit integer.  Each call
    settles combinational equations to a fixpoint, applies asynchronous
    set / reset terms, latches and clock edges of the (possibly gated or
    rippled) clock expressions, and repeats until nothing changes.
    """

    def __init__(self, component: FlatComponent, lanes: int, initial_state: int = 0):
        if lanes < 1:
            raise SimulationError(f"need at least one lane, got {lanes}")
        self.component = component
        self.lanes = lanes
        self.full = (1 << lanes) - 1
        self._comb: List[CombAssign] = component.combinational()
        self._seq: List[SeqAssign] = component.sequential()
        initial = initial_state & self.full
        self.values: Dict[str, int] = {}
        for signal in component.signals():
            self.values[signal] = initial
        for name in component.inputs:
            self.values[name] = 0
        # The settle's last pass records every assignment's settled clock.
        self._previous_clock: Dict[str, int] = {}
        self._settle()

    # ----------------------------------------------------------------- basics

    def _clock_value(self, assign: SeqAssign) -> int:
        return batch_evaluate(assign.clock, self.values, self.full)

    def state(self) -> Dict[str, int]:
        return {assign.target: self.values[assign.target] for assign in self._seq}

    def output_values(self) -> Dict[str, int]:
        return {name: self.values[name] for name in self.component.outputs}

    def value(self, signal: str) -> int:
        return self.values[signal]

    def lane_values(self, lane: int) -> Dict[str, int]:
        """One lane's scalar view of every signal."""
        return unpack_lane(self.values, lane)

    # ------------------------------------------------------------------ drive

    def apply(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Apply lane-packed primary-input values and settle all lanes."""
        if inputs:
            unknown = [name for name in inputs if name not in self.component.inputs]
            if unknown:
                raise SimulationError(f"unknown input signals: {unknown}")
            for name, value in inputs.items():
                self.values[name] = value & self.full
        self._settle()
        return self.output_values()

    def clock_cycle(
        self, clock: str = "CLK", inputs: Optional[Mapping[str, int]] = None
    ) -> Dict[str, int]:
        """One full clock cycle on every lane (low phase, rising edge)."""
        low = dict(inputs or {})
        low[clock] = 0
        self.apply(low)
        return self.apply({clock: self.full})

    # ----------------------------------------------------------------- settle

    def _settle(self) -> None:
        for _ in range(MAX_SETTLE_ITERATIONS):
            changed = self._propagate_combinational()
            changed |= self._apply_async()
            changed |= self._apply_latches()
            changed |= self._apply_edges()
            if not changed:
                return
        raise SimulationError(
            f"{self.component.name}: batch simulation did not settle "
            f"(possible combinational loop)"
        )

    def _propagate_combinational(self) -> bool:
        changed = False
        for _ in range(MAX_SETTLE_ITERATIONS):
            pass_changed = False
            for assign in self._comb:
                # No cross-assign memo: each assignment sees the in-pass
                # updates before it.
                new_value = batch_evaluate(assign.expr, self.values, self.full)
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
            handled = 0  # lanes already claimed by an earlier (higher-priority) term
            for term in assign.asyncs:
                active = (
                    batch_evaluate(term.condition, self.values, self.full)
                    & ~handled
                    & self.full
                )
                if not active:
                    continue
                handled |= active
                current = self.values[assign.target]
                forced = active if term.value else 0
                new_value = (current & ~active & self.full) | forced
                if new_value != current:
                    self.values[assign.target] = new_value
                    changed = True
        return changed

    def _apply_latches(self) -> bool:
        changed = False
        for assign in self._seq:
            if not assign.is_latch:
                continue
            clock = self._clock_value(assign)
            transparent = clock if assign.edge == "h" else (self.full ^ clock)
            if transparent:
                data = batch_evaluate(assign.data, self.values, self.full)
                current = self.values[assign.target]
                new_value = (current & ~transparent & self.full) | (data & transparent)
                if new_value != current:
                    self.values[assign.target] = new_value
                    changed = True
            self._previous_clock[assign.target] = clock
        return changed

    def _apply_edges(self) -> bool:
        # Two-phase commit per lane: all flip-flops sample D before any
        # updates, otherwise a synchronous counter would race through
        # several states per edge.
        updates: List[Tuple[str, int, int]] = []
        for assign in self._seq:
            if assign.is_latch:
                continue
            clock = self._clock_value(assign)
            previous = self._previous_clock.get(assign.target, clock)
            rising = ~previous & clock & self.full
            falling = previous & ~clock & self.full
            triggered = rising if assign.edge == "r" else falling
            self._previous_clock[assign.target] = clock
            if not triggered:
                continue
            # Asynchronous terms dominate the edge on the lanes where any
            # of them is active.
            dominated = 0
            for term in assign.asyncs:
                dominated |= batch_evaluate(term.condition, self.values, self.full)
            triggered &= ~dominated & self.full
            if not triggered:
                continue
            updates.append(
                (
                    assign.target,
                    triggered,
                    batch_evaluate(assign.data, self.values, self.full),
                )
            )
        changed = False
        for target, mask, data in updates:
            current = self.values[target]
            new_value = (current & ~mask & self.full) | (data & mask)
            if new_value != current:
                self.values[target] = new_value
                changed = True
        return changed


# ---------------------------------------------------------------------------
# Batch gate-level simulator
# ---------------------------------------------------------------------------


def _b_all(operands: Sequence[int], full: int) -> int:
    result = full
    for value in operands:
        result &= value
    return result


def _b_any(operands: Sequence[int], full: int) -> int:
    result = 0
    for value in operands:
        result |= value
    return result


#: Lane-parallel cell evaluators: ``f(operands, full) -> lanes`` for every
#: combinational cell kind but MUX2 and TRIBUF, which
#: :func:`batch_evaluate_cell` special-cases.
_BATCH_KINDS = {
    "INV": lambda v, full: full ^ v[0],
    "BUF": lambda v, full: v[0],
    "BUFH": lambda v, full: v[0],
    "SCHMITT": lambda v, full: v[0],
    "DELAY": lambda v, full: v[0],
    "AND2": _b_all,
    "AND3": _b_all,
    "AND4": _b_all,
    "OR2": _b_any,
    "OR3": _b_any,
    "OR4": _b_any,
    "NAND2": lambda v, full: full ^ _b_all(v, full),
    "NAND3": lambda v, full: full ^ _b_all(v, full),
    "NAND4": lambda v, full: full ^ _b_all(v, full),
    "NOR2": lambda v, full: full ^ _b_any(v, full),
    "NOR3": lambda v, full: full ^ _b_any(v, full),
    "NOR4": lambda v, full: full ^ _b_any(v, full),
    "XOR2": lambda v, full: v[0] ^ v[1],
    "XNOR2": lambda v, full: full ^ v[0] ^ v[1],
    "AOI21": lambda v, full: full ^ ((v[0] & v[1]) | v[2]),
    "AOI22": lambda v, full: full ^ ((v[0] & v[1]) | (v[2] & v[3])),
    "OAI21": lambda v, full: full ^ ((v[0] | v[1]) & v[2]),
    "WIREOR": _b_any,
    "TIE0": lambda v, full: 0,
    "TIE1": lambda v, full: full,
}


def batch_evaluate_cell(
    instance: GateInstance, values: Mapping[str, int], full: int
) -> int:
    """Evaluate one combinational cell for all lanes at once."""
    cell, nets = instance.cell, instance.nets
    # Operands in the cell's declared input order (MUX2: I0, I1, S;
    # TRIBUF: I0, EN).
    operands = [values[nets[i]] for i in cell.input_indices]
    kind = cell.kind
    if kind == "MUX2":
        i0, i1, select = operands
        return (i0 & ~select & full) | (i1 & select)
    if kind == "TRIBUF":
        data, enable = operands
        # Bus-hold per lane: disabled lanes keep the previous output value.
        held = values.get(instance.output_net(), 0)
        return (data & enable) | (held & ~enable & full)
    function = _BATCH_KINDS.get(kind)
    if function is None:
        raise GateSimulationError(f"no functional model for cell kind {kind!r}")
    return function(operands, full)


class BatchGateSimulator:
    """Event-style simulator over a mapped gate netlist, ``lanes`` wide."""

    def __init__(self, netlist: GateNetlist, lanes: int, initial_state: int = 0):
        if lanes < 1:
            raise GateSimulationError(f"need at least one lane, got {lanes}")
        self.netlist = netlist
        self.lanes = lanes
        self.full = (1 << lanes) - 1
        self.order = combinational_order(netlist)
        initial = initial_state & self.full
        self.values: Dict[str, int] = {}
        for name in netlist.inputs:
            self.values[name] = 0
        for instance in netlist.all_instances():
            for i in instance.cell.output_indices:
                self.values[instance.nets[i]] = initial
        # One record per sequential cell, built once because every settle
        # step reads it: (name, is_latch, active_high, clock, D, S, R, Q).
        # ``active_high`` is a latch's transparent level or a flip-flop's
        # edge (rising when true); S / R are None on cells without them.
        self._sequential: List[
            Tuple[str, bool, bool, str, str, Optional[str], Optional[str], str]
        ] = []
        for instance in netlist.sequential_instances():
            kind = instance.cell.kind
            nets, pin_index = instance.nets, instance.cell.pin_index
            latch = kind.startswith("LATCH")
            self._sequential.append(
                (
                    instance.name,
                    latch,
                    kind == "LATCH_H" if latch else not kind.startswith("DFF_N"),
                    instance.clock_net(),
                    instance.net("D"),
                    nets[pin_index["S"]] if "S" in pin_index else None,
                    nets[pin_index["R"]] if "R" in pin_index else None,
                    instance.output_net(),
                )
            )
        # The settle's last step records every cell's settled clock.
        self._previous_clock: Dict[str, int] = {}
        self._settle()

    # ------------------------------------------------------------------ drive

    def apply(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Apply lane-packed primary-input values, settle, return outputs."""
        if inputs:
            for name, value in inputs.items():
                if name not in self.netlist.inputs:
                    raise GateSimulationError(f"unknown input {name!r}")
                self.values[name] = value & self.full
        self._settle()
        return self.output_values()

    def clock_cycle(
        self, clock: str, inputs: Optional[Mapping[str, int]] = None
    ) -> Dict[str, int]:
        low = dict(inputs or {})
        low[clock] = 0
        self.apply(low)
        return self.apply({clock: self.full})

    def output_values(self) -> Dict[str, int]:
        return {name: self.values[name] for name in self.netlist.outputs}

    def lane_values(self, lane: int) -> Dict[str, int]:
        """One lane's scalar view of every net."""
        return unpack_lane(self.values, lane)

    # ----------------------------------------------------------------- settle

    def _settle(self, max_iterations: int = 200) -> None:
        for _ in range(max_iterations):
            changed = self._propagate()
            changed |= self._sequential_step()
            if not changed:
                return
        raise GateSimulationError(
            f"{self.netlist.name}: batch gate-level simulation did not settle"
        )

    def _propagate(self) -> bool:
        changed = False
        for _ in range(200):
            pass_changed = False
            for instance in self.order:
                new_value = batch_evaluate_cell(instance, self.values, self.full)
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
        full = self.full
        values = self.values
        previous_clock = self._previous_clock
        updates: List[Tuple[str, int]] = []
        for name, latch, active_high, clock_net, d_net, s_net, r_net, out_net in (
            self._sequential
        ):
            clock = values.get(clock_net, 0)
            set_mask = values.get(s_net, 0) if s_net is not None else 0
            reset_mask = values.get(r_net, 0) if r_net is not None else 0

            if latch:
                transparent = clock if active_high else (full ^ clock)
                if transparent:
                    data = values[d_net]
                    current = values[out_net]
                    updates.append(
                        (out_net, (current & ~transparent & full) | (data & transparent))
                    )
                previous_clock[name] = clock
                continue

            previous = previous_clock.get(name, clock)
            previous_clock[name] = clock
            triggered = (
                (~previous & clock & full)
                if active_high
                else (previous & ~clock & full)
            )
            # Per-lane priority: set wins over reset, both win over the
            # clock edge.
            triggered &= ~set_mask & ~reset_mask & full
            current = values[out_net]
            new_value = current
            if triggered:
                data = values[d_net]
                new_value = (new_value & ~triggered & full) | (data & triggered)
            new_value &= ~(reset_mask & ~set_mask) & full
            new_value |= set_mask
            if new_value != current or set_mask or reset_mask or triggered:
                updates.append((out_net, new_value))
        changed = False
        for net, value in updates:
            if values.get(net) != value:
                values[net] = value
                changed = True
        return changed
