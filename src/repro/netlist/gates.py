"""Gate-level netlist produced by the logic synthesis / technology mapping
stage and consumed by the sizing, estimation, layout and simulation tools."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..techlib import Cell, CellLibrary


class NetlistError(ValueError):
    """Raised when a netlist is malformed."""


def _ordered_nets(cell: Cell, pins: Mapping[str, str]) -> Tuple[str, ...]:
    """``pins`` (pin name -> net) as a net tuple in ``cell.pins`` order."""
    try:
        nets = tuple([pins[pin] for pin in cell.pins])
    except KeyError as exc:
        raise NetlistError(
            f"instance of {cell.name} is missing a connection for pin {exc.args[0]!r}"
        ) from None
    if len(pins) != len(nets):
        unknown = sorted(set(pins) - set(cell.pins))
        raise NetlistError(f"cell {cell.name} has no pins {unknown!r}")
    return nets


class GateInstance:
    """One placed library cell: a cell reference, its nets and drive size.

    ``nets[i]`` is the net on ``cell.pins[i]``: one tuple in the cell's
    declared pin order, which hot readers index through the cell's
    precomputed indices.  A netlist holds one of these per gate, and every
    cached or unpickled netlist holds its own, so the gate is slotted and
    keeps no pin dict (and no pin-name strings): a per-gate ``__dict__``
    or pin map would be most of a netlist's footprint.  (Written out by
    hand because ``@dataclass(slots=True)`` needs Python 3.10.)
    """

    __slots__ = ("name", "cell", "nets", "size")

    def __init__(
        self, name: str, cell: Cell, nets: Tuple[str, ...], size: float = 1.0
    ) -> None:
        self.name = name
        self.cell = cell
        self.nets = nets
        self.size = size

    def __repr__(self) -> str:
        pins = dict(zip(self.cell.pins, self.nets))
        return (
            f"GateInstance(name={self.name!r}, cell={self.cell!r}, "
            f"pins={pins!r}, size={self.size!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.cell, self.nets, self.size) == (
            other.name,
            other.cell,
            other.nets,
            other.size,
        )

    # Mutable (the sizer resizes in place), so unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # A constructor call pickles smaller and loads faster than the
        # default slot-state dict, and fleet bundles carry every gate.
        return (GateInstance, (self.name, self.cell, self.nets, self.size))

    def net(self, pin: str) -> str:
        """The net on ``pin``."""
        return self.nets[self.cell.pin_index[pin]]

    def output_net(self) -> str:
        """The net driven by the (single) output pin."""
        return self.nets[self.cell.output_indices[0]]

    def input_nets(self) -> List[str]:
        """The input nets, in the cell's declared input order."""
        nets = self.nets
        return [nets[i] for i in self.cell.input_indices]

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    def clock_net(self) -> Optional[str]:
        if self.cell.clock_pin is None:
            return None
        return self.net(self.cell.clock_pin)

    def width_um(self) -> float:
        return self.cell.width_at_size(self.size)

    def transistor_units(self) -> float:
        return self.cell.transistor_units_at_size(self.size)


@dataclass
class NetInfo:
    """Connectivity of one net: its driver and its sink pins."""

    name: str
    driver_instance: Optional[str] = None
    driver_pin: Optional[str] = None
    is_primary_input: bool = False
    sinks: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.sinks)


class GateNetlist:
    """A flat netlist of library-cell instances."""

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        library: Optional[CellLibrary] = None,
    ):
        self.name = name
        self.inputs: List[str] = list(inputs)
        self.outputs: List[str] = list(outputs)
        self.library = library
        self.instances: Dict[str, GateInstance] = {}
        self._counter = 0

    # ----------------------------------------------------------------- build

    def add_instance(
        self,
        cell: Cell,
        pins: Mapping[str, str],
        name: Optional[str] = None,
        size: float = 1.0,
    ) -> GateInstance:
        """Add a cell instance connected as ``pins`` (pin name -> net).

        Missing or unknown pins raise :class:`NetlistError`.
        """
        nets = _ordered_nets(cell, pins)
        if name is None:
            self._counter += 1
            name = f"U{self._counter}_{cell.name.lower()}"
        if name in self.instances:
            raise NetlistError(f"instance name {name!r} already used")
        instance = GateInstance(name, cell, nets, size)
        self.instances[name] = instance
        return instance

    def reconnect(self, name: str, pins: Mapping[str, str]) -> GateInstance:
        """Replace instance ``name`` by a gate with ``pins`` moved onto new nets.

        Its other pins, cell and size are kept, and so is its place in
        :attr:`instances`.  Returns the new gate; the replaced one is left
        untouched, so reconnecting its nets undoes the edit.
        """
        old = self.instance(name)
        connections = dict(zip(old.cell.pins, old.nets))
        connections.update(pins)
        instance = GateInstance(name, old.cell, _ordered_nets(old.cell, connections), old.size)
        self.instances[name] = instance
        return instance

    def new_net(self, hint: str = "n") -> str:
        """Return a fresh internal net name."""
        self._counter += 1
        return f"{hint}${self._counter}"

    def clone(self, name: Optional[str] = None) -> "GateNetlist":
        """An independent copy safe to size separately.

        Cells and net tuples are immutable and shared; only the
        :class:`GateInstance` wrappers (whose ``size`` the sizer mutates
        in place) are duplicated.  The generation cache hands out a clone
        whenever a synthesized netlist is about to be resized, so the
        cached one stays at unit drive.
        """
        duplicate = GateNetlist(
            name if name is not None else self.name,
            self.inputs,
            self.outputs,
            self.library,
        )
        duplicate._counter = self._counter
        for instance in self.instances.values():
            duplicate.instances[instance.name] = GateInstance(
                instance.name, instance.cell, instance.nets, instance.size
            )
        return duplicate

    # ------------------------------------------------------------------ query

    def instance(self, name: str) -> GateInstance:
        try:
            return self.instances[name]
        except KeyError as exc:
            raise NetlistError(f"no instance named {name!r}") from exc

    def all_instances(self) -> List[GateInstance]:
        return list(self.instances.values())

    def sequential_instances(self) -> List[GateInstance]:
        return [inst for inst in self.instances.values() if inst.is_sequential]

    def combinational_instances(self) -> List[GateInstance]:
        return [inst for inst in self.instances.values() if not inst.is_sequential]

    def nets(self) -> Dict[str, NetInfo]:
        """Build the net table (drivers and sinks) of the current netlist."""
        table: Dict[str, NetInfo] = {}

        def info(net: str) -> NetInfo:
            if net not in table:
                table[net] = NetInfo(name=net)
            return table[net]

        for name in self.inputs:
            entry = info(name)
            entry.is_primary_input = True
        for instance in self.instances.values():
            cell, nets = instance.cell, instance.nets
            for i in cell.output_indices:
                net = nets[i]
                entry = info(net)
                if entry.driver_instance is not None or entry.is_primary_input:
                    # Wired-or nets legitimately have several drivers; they are
                    # modelled through WIREOR cells, so a second driver here is
                    # a real error.
                    raise NetlistError(f"net {net!r} has multiple drivers")
                entry.driver_instance = instance.name
                entry.driver_pin = cell.pins[i]
            for i in cell.input_indices:
                info(nets[i]).sinks.append((instance.name, cell.pins[i]))
        return table

    def net_load_units(self, external_loads: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
        """Unit-transistor load on every net (sink input loads plus any
        externally supplied output loads, e.g. the ``oload`` constraints)."""
        loads: Dict[str, float] = {}
        for net, entry in self.nets().items():
            total = 0.0
            for sink_name, pin in entry.sinks:
                sink = self.instances[sink_name]
                total += sink.cell.input_load_at_size(sink.size)
            loads[net] = total
        if external_loads:
            for net, extra in external_loads.items():
                loads[net] = loads.get(net, 0.0) + float(extra)
        return loads

    def validate(self) -> None:
        """Check that every output is driven and every used net has a driver."""
        table = self.nets()
        for output in self.outputs:
            entry = table.get(output)
            if entry is None or (entry.driver_instance is None and not entry.is_primary_input):
                raise NetlistError(f"output {output!r} is not driven")
        for net, entry in table.items():
            if entry.sinks and entry.driver_instance is None and not entry.is_primary_input:
                raise NetlistError(f"net {net!r} is used but never driven")

    # ------------------------------------------------------------------ stats

    def cell_count(self) -> int:
        return len(self.instances)

    def cell_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for instance in self.instances.values():
            histogram[instance.cell.name] = histogram.get(instance.cell.name, 0) + 1
        return histogram

    def transistor_units(self) -> float:
        return sum(instance.transistor_units() for instance in self.instances.values())

    def total_width_um(self) -> float:
        return sum(instance.width_um() for instance in self.instances.values())

    def flip_flop_count(self) -> int:
        return len(self.sequential_instances())

    def summary(self) -> str:
        return (
            f"{self.name}: {self.cell_count()} cells "
            f"({self.flip_flop_count()} sequential), "
            f"{self.transistor_units():.0f} transistor units"
        )
