"""Area estimation (Section 4.4.2 of the paper).

Two properties of every basic cell drive the estimate: the cell's width and
the number of routing tracks it uses.  The strip width is estimated as
``(X + Y) / 2`` where ``X`` is the maximum strip width of a *count-balanced*
placement (each strip gets the same number of cells, order as given) and
``Y`` is the maximum strip width of the *best* (width-balanced) placement
found.  The component height is the number of strips times the transistor
height plus the routing-track estimate, which is obtained from the total
horizontal wire length divided by a track-utilization constant that depends
on the number of cells in a strip (the paper obtained that function from
experiments on its layout tool; here it is a fitted synthetic curve).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.gates import GateInstance, GateNetlist
from ..techlib import BASE_STRIP_HEIGHT_UM, TRACK_PITCH_UM
from ..wire import Record, field


class AreaRecord(Record, frozen=True):
    """One layout alternative: the component laid out in ``strips`` strips."""

    strips: int
    width: float
    height: float

    def __reduce__(self):
        # A constructor call: an object unpickled from its state dict keeps
        # a dict of its own, a third larger than a constructed one's.
        return (AreaRecord, (self.strips, self.width, self.height))

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def aspect_ratio(self) -> float:
        """Width divided by height."""
        return self.width / self.height if self.height else math.inf

    def render(self) -> str:
        return (
            f"strip = {self.strips} width = {self.width:.0f} "
            f"height = {self.height:.0f} area = {self.area:.0f}"
        )


def track_utilization(cells_per_strip: float) -> float:
    """Track-utilization constant as a function of cells per strip.

    Short strips route almost everything over the cells (high utilization);
    long strips need more dedicated tracks.  The curve is synthetic but
    monotone, which is all the estimator's behaviour depends on.
    """
    if cells_per_strip <= 0:
        return 1.0
    return 0.85 - 0.35 * min(1.0, cells_per_strip / 40.0)


def _strip_widths_round_robin(widths: Sequence[float], strips: int) -> List[float]:
    """Count-balanced placement: deal cells to strips in the given order."""
    totals = [0.0] * strips
    for index, width in enumerate(widths):
        totals[index % strips] += width
    return totals


def _strip_widths_balanced(widths: Sequence[float], strips: int) -> List[float]:
    """Width-balanced placement (longest-processing-time greedy)."""
    totals = [0.0] * strips
    for width in sorted(widths, reverse=True):
        index = totals.index(min(totals))
        totals[index] += width
    return totals


class AreaEstimator:
    """Estimates strip-layout width, height and shape alternatives."""

    def __init__(
        self,
        netlist: GateNetlist,
        strip_height: float = BASE_STRIP_HEIGHT_UM,
        track_pitch: float = TRACK_PITCH_UM,
    ):
        self.netlist = netlist
        self.strip_height = strip_height
        self.track_pitch = track_pitch
        instances = netlist.all_instances()
        self._widths = [inst.width_um() for inst in instances]
        self._cell_tracks = [inst.cell.tracks for inst in instances]
        #: Widths pre-sorted for the width-balanced (LPT) placement, the
        #: per-strip width estimates, and the multi-pin net counts: every
        #: shape alternative re-uses them, so they are computed once per
        #: estimator instead of once per strip count.
        self._widths_sorted = sorted(self._widths, reverse=True)
        self._strip_width_cache: Dict[int, float] = {}
        self._net_pin_counts: Optional[List[int]] = None

    # ----------------------------------------------------------------- width

    def strip_width(self, strips: int) -> float:
        """The paper's ``(X + Y) / 2`` strip-width estimate (memoized)."""
        if not self._widths:
            return 0.0
        strips = max(1, strips)
        cached = self._strip_width_cache.get(strips)
        if cached is not None:
            return cached
        x_width = max(_strip_widths_round_robin(self._widths, strips))
        # _strip_widths_balanced sorts internally; feed it the pre-sorted
        # list (sorting an already-sorted list is O(n) in timsort).
        y_width = max(_strip_widths_balanced(self._widths_sorted, strips))
        width = (x_width + y_width) / 2.0
        self._strip_width_cache[strips] = width
        return width

    def random_width(self, strips: int) -> float:
        """The X term alone (count-balanced placement), used by ablations."""
        if not self._widths:
            return 0.0
        return max(_strip_widths_round_robin(self._widths, max(1, strips)))

    def best_width(self, strips: int) -> float:
        """The Y term alone (width-balanced placement), used by ablations."""
        if not self._widths:
            return 0.0
        return max(_strip_widths_balanced(self._widths, max(1, strips)))

    # ---------------------------------------------------------------- height

    def _multi_pin_counts(self) -> List[int]:
        """Pin counts of the nets with two or more connection points
        (computed once: connectivity does not change under estimation).

        Every gate pin is one connection point; a primary input's own port
        is not.  Nets run in :meth:`GateNetlist.nets` order (the inputs,
        then each gate's output and input nets), which fixes the order
        :meth:`wire_length` adds them in.
        """
        if self._net_pin_counts is None:
            pins: Dict[str, int] = dict.fromkeys(self.netlist.inputs, 0)
            for instance in self.netlist.instances.values():
                cell, nets = instance.cell, instance.nets
                for i in cell.output_indices:
                    pins[nets[i]] = pins.get(nets[i], 0) + 1
                for i in cell.input_indices:
                    pins[nets[i]] = pins.get(nets[i], 0) + 1
            self._net_pin_counts = [count for count in pins.values() if count >= 2]
        return self._net_pin_counts

    def wire_length(self, strips: int) -> float:
        """Total estimated horizontal wire length for a ``strips``-strip layout."""
        width = self.strip_width(strips)
        # Expected span of `pins` connection points spread over the strip
        # width; nets with more pins stretch across more of the strip.
        return width * sum(
            (pins - 1) / (pins + 1) for pins in self._multi_pin_counts()
        )

    def routing_tracks(self, strips: int) -> int:
        """Routing tracks needed per strip."""
        strips = max(1, strips)
        width = self.strip_width(strips)
        if width <= 0:
            return 0
        cells_per_strip = len(self._widths) / strips
        utilization = track_utilization(cells_per_strip)
        total_tracks = self.wire_length(strips) / (width * utilization)
        per_strip = total_tracks / strips
        cell_internal = max(self._cell_tracks, default=0)
        return int(math.ceil(per_strip)) + cell_internal

    def strip_height_with_routing(self, strips: int) -> float:
        return self.strip_height + self.routing_tracks(strips) * self.track_pitch

    # ------------------------------------------------------------------ area

    def estimate(self, strips: int) -> AreaRecord:
        """Area record for a given strip count."""
        strips = max(1, strips)
        width = self.strip_width(strips)
        height = strips * self.strip_height_with_routing(strips)
        return AreaRecord(strips=strips, width=width, height=height)

    def max_strips(self) -> int:
        """Largest sensible strip count (at least one cell per strip)."""
        count = len(self._widths)
        if count == 0:
            return 1
        return max(1, min(count, int(math.ceil(math.sqrt(count))) + 4))

    def alternatives(self, max_strips: Optional[int] = None) -> List[AreaRecord]:
        """Area records for every strip count from 1 to ``max_strips``."""
        limit = max_strips or self.max_strips()
        return [self.estimate(strips) for strips in range(1, limit + 1)]

    def best(self, max_strips: Optional[int] = None) -> AreaRecord:
        """The minimum-area alternative."""
        return min(self.alternatives(max_strips), key=lambda record: record.area)


def estimate_area(netlist: GateNetlist, strips: Optional[int] = None) -> AreaRecord:
    """Convenience wrapper: best-area estimate (or a specific strip count)."""
    estimator = AreaEstimator(netlist)
    if strips is not None:
        return estimator.estimate(strips)
    return estimator.best()


def render_area_records(records: Sequence[AreaRecord]) -> str:
    """Render records in the ``strip = ... width = ...`` format of Appendix B."""
    return "\n".join(record.render() for record in records)
