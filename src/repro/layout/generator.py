"""Component layout generation.

Combines the strip placement, the routing-track estimate and the user's
port-position assignments into a :class:`ComponentLayout`: a rectangle of
placed cells with port locations, ready to be emitted as CIF (Figure 9 /
Figure 12 of the paper show exactly these strip layouts at different aspect
ratios).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints import PortPosition
from ..core.progress import checkpoint
from ..netlist.gates import GateNetlist
from ..techlib import BASE_STRIP_HEIGHT_UM, TRACK_PITCH_UM
from ..wire import Record, field
from .strips import PlacedCell, StripPlacement, place_in_strips, routing_tracks_per_strip


class PlacedPort(Record):
    """A component port pinned to a point on the layout boundary."""

    name: str
    side: str
    x: float
    y: float


class LayoutRect(Record):
    """An axis-aligned rectangle on a named layer (for CIF emission)."""

    layer: str
    x: float
    y: float
    width: float
    height: float
    label: str = ""


class ComponentLayout(Record):
    """A generated strip layout of one component instance."""

    name: str
    strips: int
    width: float
    height: float
    cells: List[PlacedCell]
    ports: List[PlacedPort]
    strip_heights: List[float]
    tracks: List[int]

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height if self.height else math.inf

    def rectangles(self) -> List[LayoutRect]:
        """All rectangles of the layout (strips, cells, rails, ports)."""
        rects: List[LayoutRect] = []
        y = 0.0
        for strip_index, strip_height in enumerate(self.strip_heights):
            rects.append(
                LayoutRect("CWN", 0.0, y, self.width, strip_height, f"strip{strip_index}")
            )
            # Shared Vdd/Vss rail at the bottom boundary of every strip.
            rects.append(LayoutRect("CM1", 0.0, y, self.width, TRACK_PITCH_UM / 2.0, "rail"))
            y += strip_height
        rects.append(LayoutRect("CM1", 0.0, y, self.width, TRACK_PITCH_UM / 2.0, "rail"))
        for cell in self.cells:
            strip_bottom = sum(self.strip_heights[: cell.strip])
            rects.append(
                LayoutRect(
                    "CPG",
                    cell.x,
                    strip_bottom + TRACK_PITCH_UM,
                    cell.width,
                    BASE_STRIP_HEIGHT_UM * 0.8,
                    cell.instance,
                )
            )
        for port in self.ports:
            rects.append(LayoutRect("CM2", port.x - 4.0, port.y - 4.0, 8.0, 8.0, port.name))
        return rects

    def ascii_art(self, columns: int = 72) -> str:
        """A coarse character rendering of the strip layout (for examples)."""
        if self.width <= 0:
            return ""
        scale = columns / self.width
        lines: List[str] = []
        for strip_index in range(self.strips - 1, -1, -1):
            row = [" "] * columns
            for cell in self.cells:
                if cell.strip != strip_index:
                    continue
                start = int(cell.x * scale)
                end = max(start + 1, int(cell.x_end * scale))
                for position in range(start, min(end, columns)):
                    row[position] = "#"
            lines.append("|" + "".join(row) + "|")
        border = "+" + "-" * columns + "+"
        return "\n".join([border] + lines + [border])

    def port_map(self) -> Dict[str, PlacedPort]:
        return {port.name: port for port in self.ports}


class LayoutError(ValueError):
    """Raised when a layout request cannot be honoured."""


def _assign_ports(
    netlist: GateNetlist,
    width: float,
    height: float,
    positions: Sequence[PortPosition],
) -> List[PlacedPort]:
    """Place ports on the boundary honouring the user's assignments.

    Ports without an explicit assignment default to: inputs on the left,
    outputs on the right, in declaration order.
    """
    explicit = {p.port: p for p in positions}
    by_side: Dict[str, List[Tuple[float, str]]] = {
        "left": [],
        "right": [],
        "top": [],
        "bottom": [],
    }
    for port_name in netlist.inputs:
        if port_name in explicit:
            assignment = explicit[port_name]
            by_side[assignment.side].append((assignment.order, port_name))
        else:
            by_side["left"].append((len(by_side["left"]) + 1000.0, port_name))
    for port_name in netlist.outputs:
        if port_name in explicit:
            assignment = explicit[port_name]
            by_side[assignment.side].append((assignment.order, port_name))
        else:
            by_side["right"].append((len(by_side["right"]) + 1000.0, port_name))

    placed: List[PlacedPort] = []
    for side, entries in by_side.items():
        entries.sort()
        count = len(entries)
        for index, (_, port_name) in enumerate(entries):
            fraction = (index + 1) / (count + 1)
            if side == "left":
                x, y = 0.0, fraction * height
            elif side == "right":
                x, y = width, fraction * height
            elif side == "top":
                x, y = fraction * width, height
            else:
                x, y = fraction * width, 0.0
            placed.append(PlacedPort(name=port_name, side=side, x=x, y=y))
    return placed


def generate_layout(
    netlist: GateNetlist,
    strips: Optional[int] = None,
    port_positions: Sequence[PortPosition] = (),
    strip_height: float = BASE_STRIP_HEIGHT_UM,
    track_pitch: float = TRACK_PITCH_UM,
    name: Optional[str] = None,
) -> ComponentLayout:
    """Generate a strip layout of a mapped netlist.

    ``strips`` defaults to the minimum-area alternative of the area
    estimator.  ``port_positions`` follows the Section 3.3 assignment format
    (see :func:`repro.constraints.parse_port_positions`).  ``name`` labels
    the layout (and the CIF it renders to); it defaults to the netlist's
    name, but callers laying out a *shared* netlist -- result-cache clones,
    generation-cache flow hits -- pass the owning instance's name so the
    emitted artifact carries the right identity.
    """
    if strips is None:
        from ..estimation.area import AreaEstimator

        strips = AreaEstimator(netlist).best().strips
    if strips < 1:
        raise LayoutError(f"strip count must be positive, got {strips}")
    if netlist.cell_count() == 0:
        raise LayoutError(f"{netlist.name} has no cells to lay out")

    checkpoint("layout", 0.85)
    placement = place_in_strips(netlist, strips)
    checkpoint("route", 0.92)
    tracks = routing_tracks_per_strip(netlist, placement)
    strip_heights = [strip_height + count * track_pitch for count in tracks]
    width = placement.width
    height = sum(strip_heights)
    ports = _assign_ports(netlist, width, height, port_positions)
    return ComponentLayout(
        name=name if name is not None else netlist.name,
        strips=placement.strips,
        width=width,
        height=height,
        cells=placement.cells,
        ports=ports,
        strip_heights=strip_heights,
        tracks=tracks,
    )
