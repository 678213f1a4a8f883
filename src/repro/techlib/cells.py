"""Standard-cell library model.

The paper's estimators need exactly three delay numbers per basic cell
(Section 4.4.1):

* ``X`` -- delay increase per additional unit of transistor load;
* ``Y`` -- intrinsic delay from an input to the output;
* ``Z`` -- delay increase per additional fanout;

plus two layout numbers per cell (Section 4.4.2): the cell's width and the
number of routing tracks it needs.  This module defines a :class:`Cell`
carrying those parameters and a :class:`CellLibrary` with lookup helpers.

The authors' library was a hand-crafted 3 um CMOS cell set whose measured
values are not published; the values here are synthetic but calibrated so
the counter examples of Section 5 land in the same ranges (clock widths of
a few tens of nanoseconds, five-bit counter areas around 2e5 um^2).  See
DESIGN.md for the substitution note.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..fingerprint import stable_fingerprint
from ..wire import Record


class CellLibraryError(KeyError):
    """Raised when a cell lookup fails."""


#: Layout calibration constants (microns).
WIDTH_PER_TRANSISTOR_UM = 8.0
BASE_STRIP_HEIGHT_UM = 100.0
TRACK_PITCH_UM = 8.0

#: Transistor sizing bounds used by the sizing tool.
MIN_SIZE = 1.0
MAX_SIZE = 8.0


class Cell(Record, frozen=True):
    """A library cell.

    ``load_delay`` / ``intrinsic_delay`` / ``fanout_delay`` are the paper's
    X / Y / Z parameters in nanoseconds (per unit transistor load, absolute,
    and per fanout respectively).  ``input_load`` is the load, in unit
    transistors, one input pin presents to its driver.  ``width_um`` is the
    footprint width of the cell placed in a strip at unit drive.
    """

    name: str
    kind: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    transistors: int
    load_delay: float
    intrinsic_delay: float
    fanout_delay: float
    input_load: int = 2
    tracks: int = 2
    is_sequential: bool = False
    clock_pin: Optional[str] = None
    setup_time: float = 0.0
    hold_time: float = 0.0
    clock_to_q: float = 0.0
    min_pulse_width: float = 0.0
    description: str = ""
    #: Every pin once, in the one order a gate stores its nets in and the
    #: VHDL port map lists them in.  Empty means inputs, then outputs.
    pins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Derived from ``pins`` once, so gate readers index nets directly.
        # They are attributes, not fields, so neither compared nor shown:
        # ``pin_index`` maps each pin to its position, ``input_indices`` /
        # ``output_indices`` are the positions of ``inputs`` (in their
        # declared order) and of ``outputs``.
        pins = self.pins or self.inputs + self.outputs
        if sorted(pins) != sorted(self.inputs + self.outputs):
            raise ValueError(
                f"cell {self.name!r}: pins {pins!r} must list every input and "
                f"output exactly once"
            )
        index = {pin: i for i, pin in enumerate(pins)}
        object.__setattr__(self, "pins", pins)
        object.__setattr__(self, "pin_index", index)
        object.__setattr__(self, "input_indices", tuple(index[p] for p in self.inputs))
        object.__setattr__(self, "output_indices", tuple(index[p] for p in self.outputs))

    @property
    def width_um(self) -> float:
        """Placement width of the cell at unit drive strength."""
        return self.transistors * WIDTH_PER_TRANSISTOR_UM

    def width_at_size(self, size: float) -> float:
        """Placement width when the cell's transistors are scaled by ``size``.

        Only the drive (output stage) transistors grow, so width grows
        sub-linearly: half the transistors scale, half stay minimum size.
        """
        size = max(MIN_SIZE, float(size))
        scaled = self.transistors * (0.5 + 0.5 * size)
        return scaled * WIDTH_PER_TRANSISTOR_UM

    def transistor_units_at_size(self, size: float) -> float:
        """Equivalent unit-transistor count at the given drive strength."""
        size = max(MIN_SIZE, float(size))
        return self.transistors * (0.5 + 0.5 * size)

    def load_delay_at_size(self, size: float) -> float:
        """X parameter at the given drive strength (stronger drives faster)."""
        size = max(MIN_SIZE, float(size))
        return self.load_delay / size

    def input_load_at_size(self, size: float) -> float:
        """Load presented to the driver of this cell's inputs at ``size``."""
        size = max(MIN_SIZE, float(size))
        return self.input_load * (0.5 + 0.5 * size)

    def output_delay(self, load_units: float, fanout: int, size: float = 1.0) -> float:
        """The paper's delay formula: ``Trans_no * X + Y + fanout_no * Z``."""
        return (
            load_units * self.load_delay_at_size(size)
            + self.intrinsic_delay
            + fanout * self.fanout_delay
        )

    def __reduce_ex__(self, protocol):
        """Pickle a standard cell as a reference, any other cell by value.

        A generated netlist points at the process's one standard library,
        so shipping (and on load, duplicating) every cell it uses would be
        pure waste: the receiver has the same objects already.
        """
        library = standard_cells()
        if library._cells.get(self.name) is self:
            return (_standard_cell, (library.fingerprint(), self.name))
        return super().__reduce_ex__(protocol)


class CellLibrary:
    """A named collection of cells with kind-based lookup."""

    def __init__(self, name: str, cells: Iterable[Cell]):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._by_kind: Dict[str, List[Cell]] = {}
        self._fingerprint: Optional[int] = None
        for cell in cells:
            self.add(cell)

    def add(self, cell: Cell) -> None:
        if cell.name in self._cells:
            raise CellLibraryError(f"cell {cell.name!r} already in library {self.name!r}")
        self._cells[cell.name] = cell
        self._by_kind.setdefault(cell.kind, []).append(cell)
        self._fingerprint = None

    def fingerprint(self) -> int:
        """A stable identity of the library's full parameter set.

        Cells are frozen records with content-determined reprs, so the
        fingerprint is a content digest of the (name-ordered) cell tuple
        plus the library name.
        The generation cache keys synthesized netlists on it: two
        services sharing a cache (or a library mutated through
        :meth:`add`) can never serve each other's mappings for a
        different cell set.  The digest is process-stable (never the
        randomized built-in ``hash``): fleet workers ship stage entries
        keyed on it to the server.
        """
        if self._fingerprint is None:
            self._fingerprint = stable_fingerprint(
                self.name, tuple(self._cells[name] for name in sorted(self._cells))
            )
        return self._fingerprint

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError as exc:
            raise CellLibraryError(f"no cell named {name!r} in library {self.name!r}") from exc

    def by_kind(self, kind: str) -> Cell:
        """Return the (single preferred) cell of logical kind ``kind``."""
        cells = self._by_kind.get(kind)
        if not cells:
            raise CellLibraryError(f"no cell of kind {kind!r} in library {self.name!r}")
        return cells[0]

    def has_kind(self, kind: str) -> bool:
        return kind in self._by_kind

    def cells(self) -> List[Cell]:
        return list(self._cells.values())

    def kinds(self) -> List[str]:
        return list(self._by_kind)

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __reduce_ex__(self, protocol):
        """Pickle the standard library as a reference, any other by value."""
        if self is standard_cells():
            return (_standard_library, (self.fingerprint(),))
        return super().__reduce_ex__(protocol)


def _standard_library(fingerprint: int) -> CellLibrary:
    """Unpickle a reference to the standard library.

    The pickling process's library must be this process's, parameter for
    parameter: a netlist mapped onto other cells must not silently pick
    up these cells' delays and widths.
    """
    library = standard_cells()
    if library.fingerprint() != fingerprint:
        raise CellLibraryError(
            f"pickled reference to standard library {fingerprint:#x} does not "
            f"match this process's {library.name!r} ({library.fingerprint():#x})"
        )
    return library


def _standard_cell(fingerprint: int, name: str) -> Cell:
    """Unpickle a reference to one standard cell (fingerprint-checked)."""
    return _standard_library(fingerprint).cell(name)


def _gate(
    name: str,
    kind: str,
    n_inputs: int,
    transistors: int,
    load_delay: float,
    intrinsic: float,
    fanout_delay: float = 0.15,
    tracks: int = 2,
    input_load: int = 2,
    description: str = "",
    input_names: Optional[Sequence[str]] = None,
) -> Cell:
    inputs = tuple(input_names) if input_names else tuple(f"I{i}" for i in range(n_inputs))
    return Cell(
        name=name,
        kind=kind,
        inputs=inputs,
        outputs=("O",),
        transistors=transistors,
        load_delay=load_delay,
        intrinsic_delay=intrinsic,
        fanout_delay=fanout_delay,
        tracks=tracks,
        input_load=input_load,
        description=description,
    )


def default_library() -> CellLibrary:
    """Build the default synthetic 3 um CMOS-style cell library."""
    cells: List[Cell] = [
        _gate("INV1", "INV", 1, 2, 0.12, 0.8, description="Inverter"),
        _gate("BUF1", "BUF", 1, 4, 0.10, 1.2, description="Non-inverting buffer"),
        _gate("BUF4", "BUFH", 1, 8, 0.05, 1.4, description="High-drive buffer"),
        _gate("NAND2", "NAND2", 2, 4, 0.14, 1.2),
        _gate("NAND3", "NAND3", 3, 6, 0.16, 1.5),
        _gate("NAND4", "NAND4", 4, 8, 0.18, 1.8),
        _gate("NOR2", "NOR2", 2, 4, 0.16, 1.4),
        _gate("NOR3", "NOR3", 3, 6, 0.18, 1.7),
        _gate("AND2", "AND2", 2, 6, 0.13, 1.6),
        _gate("AND3", "AND3", 3, 8, 0.15, 1.9),
        _gate("AND4", "AND4", 4, 10, 0.17, 2.2),
        _gate("OR2", "OR2", 2, 6, 0.15, 1.7),
        _gate("OR3", "OR3", 3, 8, 0.17, 2.0),
        _gate("OR4", "OR4", 4, 10, 0.19, 2.3),
        _gate("XOR2", "XOR2", 2, 10, 0.18, 2.6, tracks=3),
        _gate("XNOR2", "XNOR2", 2, 10, 0.18, 2.6, tracks=3),
        _gate(
            "AOI21", "AOI21", 3, 6, 0.16, 1.5, tracks=2,
            description="And-Or-Invert: O = !((I0*I1) + I2)",
        ),
        _gate(
            "OAI21", "OAI21", 3, 6, 0.16, 1.5, tracks=2,
            description="Or-And-Invert: O = !((I0+I1) * I2)",
        ),
        _gate(
            "AOI22", "AOI22", 4, 8, 0.18, 1.7, tracks=3,
            description="And-Or-Invert: O = !((I0*I1) + (I2*I3))",
        ),
        _gate(
            "MUX21", "MUX2", 3, 12, 0.16, 2.2, tracks=3,
            description="2:1 multiplexer: O = S ? I1 : I0",
            input_names=("I0", "I1", "S"),
        ),
        _gate(
            "TBUF1", "TRIBUF", 2, 6, 0.14, 1.8, tracks=2,
            description="Tri-state buffer: O driven with I0 when EN is high",
            input_names=("I0", "EN"),
        ),
        _gate("SCHMITT1", "SCHMITT", 1, 8, 0.20, 2.4, description="Schmitt trigger"),
        _gate("DLY1", "DELAY", 1, 8, 0.10, 5.0, description="Delay element"),
        _gate(
            "WOR2", "WIREOR", 2, 2, 0.20, 0.6, tracks=1,
            description="Wired-or junction (modelled as a weak OR)",
        ),
        Cell(
            name="TIE0",
            kind="TIE0",
            inputs=(),
            outputs=("O",),
            transistors=1,
            load_delay=0.0,
            intrinsic_delay=0.0,
            fanout_delay=0.0,
            input_load=0,
            tracks=1,
            description="Constant logic-0 tie-down",
        ),
        Cell(
            name="TIE1",
            kind="TIE1",
            inputs=(),
            outputs=("O",),
            transistors=1,
            load_delay=0.0,
            intrinsic_delay=0.0,
            fanout_delay=0.0,
            input_load=0,
            tracks=1,
            description="Constant logic-1 tie-up",
        ),
    ]
    cells.append(
        Cell(
            name="DFF1",
            kind="DFF",
            inputs=("D", "CK"),
            outputs=("Q",),
            transistors=20,
            load_delay=0.14,
            intrinsic_delay=0.0,
            fanout_delay=0.15,
            input_load=2,
            tracks=4,
            is_sequential=True,
            clock_pin="CK",
            setup_time=2.5,
            hold_time=0.5,
            clock_to_q=3.5,
            min_pulse_width=6.0,
            description="Rising-edge D flip-flop",
        )
    )
    cells.append(
        Cell(
            name="DFFSR1",
            kind="DFF_SR",
            inputs=("D", "CK", "S", "R"),
            outputs=("Q",),
            transistors=26,
            load_delay=0.14,
            intrinsic_delay=0.0,
            fanout_delay=0.15,
            input_load=2,
            tracks=5,
            is_sequential=True,
            clock_pin="CK",
            setup_time=2.8,
            hold_time=0.6,
            clock_to_q=3.8,
            min_pulse_width=6.5,
            description="Rising-edge D flip-flop with asynchronous set / reset",
            pins=("D", "CK", "Q", "S", "R"),
        )
    )
    cells.append(
        Cell(
            name="DFFN1",
            kind="DFF_N",
            inputs=("D", "CK"),
            outputs=("Q",),
            transistors=20,
            load_delay=0.14,
            intrinsic_delay=0.0,
            fanout_delay=0.15,
            input_load=2,
            tracks=4,
            is_sequential=True,
            clock_pin="CK",
            setup_time=2.5,
            hold_time=0.5,
            clock_to_q=3.5,
            min_pulse_width=6.0,
            description="Falling-edge D flip-flop",
        )
    )
    cells.append(
        Cell(
            name="DFFNSR1",
            kind="DFF_N_SR",
            inputs=("D", "CK", "S", "R"),
            outputs=("Q",),
            transistors=26,
            load_delay=0.14,
            intrinsic_delay=0.0,
            fanout_delay=0.15,
            input_load=2,
            tracks=5,
            is_sequential=True,
            clock_pin="CK",
            setup_time=2.8,
            hold_time=0.6,
            clock_to_q=3.8,
            min_pulse_width=6.5,
            description="Falling-edge D flip-flop with asynchronous set / reset",
            pins=("D", "CK", "Q", "S", "R"),
        )
    )
    for kind, name, desc in (
        ("LATCH_H", "LATH1", "Transparent-high latch"),
        ("LATCH_L", "LATL1", "Transparent-low latch"),
    ):
        cells.append(
            Cell(
                name=name,
                kind=kind,
                inputs=("D", "G"),
                outputs=("Q",),
                transistors=12,
                load_delay=0.13,
                intrinsic_delay=0.0,
                fanout_delay=0.15,
                input_load=2,
                tracks=3,
                is_sequential=True,
                clock_pin="G",
                setup_time=1.5,
                hold_time=0.4,
                clock_to_q=2.2,
                min_pulse_width=4.0,
                description=desc,
            )
        )
    return CellLibrary("icdb_generic_3um", cells)


_DEFAULT: Optional[CellLibrary] = None


def standard_cells() -> CellLibrary:
    """Return the cached default library."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = default_library()
    return _DEFAULT
