"""Shape functions: the set of (width, height) layout alternatives.

A shape function (Figure 6 of the paper) lists the aspect-ratio
alternatives a component can be laid out in -- one alternative per strip
count.  The floorplanner picks the alternative that best fits the space
available; ICDB returns the whole list from an instance query.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..netlist.gates import GateNetlist
from ..wire import Record, field
from .area import AreaEstimator, AreaRecord


class ShapeFunction(Record):
    """An ordered list of layout alternatives for one component."""

    component: str
    alternatives: Tuple[AreaRecord, ...]

    def __post_init__(self) -> None:
        self.alternatives = tuple(
            sorted(self.alternatives, key=lambda record: record.strips)
        )

    def __reduce__(self):
        # A constructor call, as for :class:`AreaRecord`.
        return (ShapeFunction, (self.component, self.alternatives))

    def __len__(self) -> int:
        return len(self.alternatives)

    def __iter__(self):
        return iter(self.alternatives)

    def alternative(self, index: int) -> AreaRecord:
        """1-based lookup, matching the paper's ``alternative:3`` queries."""
        if not 1 <= index <= len(self.alternatives):
            raise IndexError(
                f"{self.component} has {len(self.alternatives)} shape alternatives, "
                f"requested {index}"
            )
        return self.alternatives[index - 1]

    def widths(self) -> List[float]:
        return [record.width for record in self.alternatives]

    def heights(self) -> List[float]:
        return [record.height for record in self.alternatives]

    def min_area(self) -> AreaRecord:
        return min(self.alternatives, key=lambda record: record.area)

    def best_for_aspect_ratio(self, target: float) -> AreaRecord:
        """Alternative whose width/height ratio is closest to ``target``."""
        return min(
            self.alternatives,
            key=lambda record: abs(math.log(max(record.aspect_ratio, 1e-9) / target)),
        )

    def best_for_bounding_box(self, max_width: float, max_height: float) -> Optional[AreaRecord]:
        """Smallest-area alternative fitting inside the bounding box, if any."""
        fitting = [
            record
            for record in self.alternatives
            if record.width <= max_width and record.height <= max_height
        ]
        if not fitting:
            return None
        return min(fitting, key=lambda record: record.area)

    def render(self) -> str:
        """Render in the paper's ``Alternative=k width=... height=...`` format."""
        return "\n".join(
            f"Alternative={index} width={record.width:.0f} height={record.height:.0f}"
            for index, record in enumerate(self.alternatives, start=1)
        )

    def is_monotone(self) -> bool:
        """True if the alternatives trade width against height monotonically.

        With more strips the component gets narrower and taller, so ordered
        by strip count the widths must not increase and the heights must not
        decrease.  This is the qualitative property Figure 6 shows (plotted
        there from wide/short to narrow/tall); the tests assert it for the
        generated counters.
        """
        widths = self.widths()
        heights = self.heights()
        return all(w2 <= w1 + 1e-9 for w1, w2 in zip(widths, widths[1:])) and all(
            h2 >= h1 - 1e-9 for h1, h2 in zip(heights, heights[1:])
        )


def pareto_filter(records: Sequence[AreaRecord]) -> List[AreaRecord]:
    """Drop alternatives dominated in both width and height by another one.

    The floorplanner only benefits from Pareto-optimal shapes; the points of
    Figure 6 form such a front.
    """
    kept: List[AreaRecord] = []
    for record in records:
        dominated = any(
            other is not record
            and other.width <= record.width + 1e-9
            and other.height <= record.height + 1e-9
            and (other.width < record.width - 1e-9 or other.height < record.height - 1e-9)
            for other in records
        )
        if not dominated:
            kept.append(record)
    return kept


def shape_function(
    netlist: GateNetlist,
    max_strips: Optional[int] = None,
    pareto_only: bool = True,
) -> ShapeFunction:
    """Compute the shape function of a mapped netlist.

    With ``pareto_only`` (the default) alternatives dominated in both width
    and height are dropped, which also makes the width/height tradeoff
    monotone in the strip count.
    """
    estimator = AreaEstimator(netlist)
    records = estimator.alternatives(max_strips)
    if pareto_only:
        records = pareto_filter(records)
    return ShapeFunction(component=netlist.name, alternatives=tuple(records))
