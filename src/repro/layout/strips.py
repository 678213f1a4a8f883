"""Strip-based placement.

The paper's layout tool places cells in a number of horizontal strips, each
bounded by a pair of Vdd/Vss rails; neighbouring strips share a rail.  The
user chooses the number of strips (which fixes the aspect ratio) and may
assign port positions.  This module performs the placement step: assigning
cell instances to strips and ordering them inside each strip.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.gates import GateInstance, GateNetlist
from ..wire import Record, field


class PlacedCell(Record):
    """One placed cell: its strip index and x interval inside the strip."""

    instance: str
    cell: str
    strip: int
    x: float
    width: float

    @property
    def x_end(self) -> float:
        return self.x + self.width

    @property
    def center(self) -> float:
        return self.x + self.width / 2.0


class StripPlacement(Record):
    """Assignment of every instance to a strip, with x coordinates."""

    strips: int
    cells: List[PlacedCell]
    strip_widths: List[float]

    @property
    def width(self) -> float:
        return max(self.strip_widths) if self.strip_widths else 0.0

    def cells_in_strip(self, strip: int) -> List[PlacedCell]:
        return [cell for cell in self.cells if cell.strip == strip]

    def cell_positions(self) -> Dict[str, PlacedCell]:
        return {cell.instance: cell for cell in self.cells}


def _connectivity_order(netlist: GateNetlist) -> List[GateInstance]:
    """Order instances so that connected cells end up near each other.

    A simple depth-first walk over the netlist connectivity starting from the
    primary inputs; this keeps the fanin cone of each output reasonably
    contiguous, which is what the strip router benefits from.
    """
    table = netlist.nets()
    visited: Dict[str, bool] = {}
    order: List[GateInstance] = []

    def visit_driver(net: str) -> None:
        info = table.get(net)
        if info is None or info.driver_instance is None:
            return
        visit(netlist.instances[info.driver_instance])

    def visit(instance: GateInstance) -> None:
        if visited.get(instance.name):
            return
        visited[instance.name] = True
        for net in instance.input_nets():
            visit_driver(net)
        order.append(instance)

    for output in netlist.outputs:
        visit_driver(output)
    for instance in netlist.all_instances():
        visit(instance)
    return order


def place_in_strips(netlist: GateNetlist, strips: int) -> StripPlacement:
    """Place the netlist's cells into ``strips`` strips.

    Cells are taken in connectivity order and dealt into strips serpentine
    fashion (strip 0 left-to-right, strip 1 right-to-left, ...), keeping both
    the cell count and the width of the strips balanced while preserving
    locality between neighbouring strips.
    """
    strips = max(1, strips)
    ordered = _connectivity_order(netlist)
    total_width = sum(instance.width_um() for instance in ordered)
    target = total_width / strips if strips else total_width

    assignments: List[List[GateInstance]] = [[] for _ in range(strips)]
    widths = [0.0] * strips
    strip_index = 0
    for instance in ordered:
        width = instance.width_um()
        if (
            widths[strip_index] + width > target * 1.05
            and strip_index < strips - 1
            and assignments[strip_index]
        ):
            strip_index += 1
        assignments[strip_index].append(instance)
        widths[strip_index] += width

    cells: List[PlacedCell] = []
    for index, row in enumerate(assignments):
        x = 0.0
        ordered_row = row if index % 2 == 0 else list(reversed(row))
        for instance in ordered_row:
            width = instance.width_um()
            cells.append(
                PlacedCell(
                    instance=instance.name,
                    cell=instance.cell.name,
                    strip=index,
                    x=x,
                    width=width,
                )
            )
            x += width
    return StripPlacement(strips=strips, cells=cells, strip_widths=widths)


def net_spans(netlist: GateNetlist, placement: StripPlacement) -> Dict[str, Tuple[float, float]]:
    """Horizontal extent (min x, max x) of every net under the placement."""
    positions = placement.cell_positions()
    spans: Dict[str, Tuple[float, float]] = {}
    for net, info in netlist.nets().items():
        xs: List[float] = []
        if info.driver_instance and info.driver_instance in positions:
            xs.append(positions[info.driver_instance].center)
        for sink, _pin in info.sinks:
            if sink in positions:
                xs.append(positions[sink].center)
        if len(xs) >= 2:
            spans[net] = (min(xs), max(xs))
    return spans


def routing_tracks_per_strip(
    netlist: GateNetlist, placement: StripPlacement, utilization: float = 0.55
) -> List[int]:
    """Routing tracks needed by each strip under the given placement.

    Every multi-pin net is charged to the strips its span crosses,
    proportionally to the horizontal overlap; the per-strip wire length
    divided by the strip width and a utilization factor gives the track
    count.  Cell-internal tracks are added on top.
    """
    import math

    spans = net_spans(netlist, placement)
    width = placement.width or 1.0
    wire_per_strip = [0.0] * placement.strips
    positions = placement.cell_positions()
    table = netlist.nets()
    for net, (lo, hi) in spans.items():
        info = table[net]
        strips_touched = set()
        if info.driver_instance in positions:
            strips_touched.add(positions[info.driver_instance].strip)
        for sink, _pin in info.sinks:
            if sink in positions:
                strips_touched.add(positions[sink].strip)
        length = max(hi - lo, 1.0)
        share = length / max(len(strips_touched), 1)
        for strip in strips_touched:
            wire_per_strip[strip] += share
    tracks: List[int] = []
    for strip in range(placement.strips):
        internal = max(
            (
                netlist.instances[cell.instance].cell.tracks
                for cell in placement.cells_in_strip(strip)
            ),
            default=0,
        )
        routed = int(math.ceil(wire_per_strip[strip] / (width * utilization)))
        tracks.append(routed + internal)
    return tracks
