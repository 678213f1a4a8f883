"""Slicing floorplanner for composing component layouts.

Figure 13 of the paper shows two floorplans of a simple computer built from
ICDB-generated components; the only difference is the shape chosen for the
control-logic component (tall and thin on the left side, short and wide on
the bottom), giving chip aspect ratios of roughly 1:1 and 2:1.  This module
provides the small slicing-tree floorplanner used to reproduce that
experiment: blocks carry a shape function (or a fixed shape), and
horizontal / vertical compositions pick the alternative of every block that
minimizes the composite bounding box.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..estimation.area import AreaRecord
from ..estimation.shape import ShapeFunction
from ..wire import Record, field


class Shape(Record, frozen=True):
    """A concrete (width, height) option of a block."""

    width: float
    height: float

    @property
    def area(self) -> float:
        return self.width * self.height


class Block(Record):
    """A floorplan leaf: a named block with one or more shape options."""

    name: str
    shapes: Tuple[Shape, ...]

    @staticmethod
    def fixed(name: str, width: float, height: float) -> "Block":
        return Block(name, (Shape(width, height),))

    @staticmethod
    def from_shape_function(name: str, function: ShapeFunction) -> "Block":
        shapes = tuple(Shape(r.width, r.height) for r in function.alternatives)
        return Block(name, shapes)

    def options(self) -> Tuple[Shape, ...]:
        return self.shapes


class Placement(Record):
    """Final position of one block in the floorplan."""

    name: str
    x: float
    y: float
    width: float
    height: float


class FloorplanResult(Record):
    """Bounding box and block placements of a slicing floorplan."""

    width: float
    height: float
    placements: List[Placement]

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def aspect_ratio(self) -> float:
        return self.width / self.height if self.height else math.inf

    def placement_of(self, name: str) -> Placement:
        for placement in self.placements:
            if placement.name == name:
                return placement
        raise KeyError(name)

    def utilization(self) -> float:
        """Fraction of the bounding box covered by blocks."""
        used = sum(p.width * p.height for p in self.placements)
        return used / self.area if self.area else 0.0

    def render(self) -> str:
        lines = [
            f"floorplan {self.width:.0f} x {self.height:.0f} um "
            f"(area {self.area:,.0f} um^2, aspect {self.aspect_ratio:.2f})"
        ]
        for placement in self.placements:
            lines.append(
                f"  {placement.name:24s} at ({placement.x:8.0f}, {placement.y:8.0f}) "
                f"size {placement.width:7.0f} x {placement.height:7.0f}"
            )
        return "\n".join(lines)


Node = Union[Block, "Slice"]


class Slice(Record):
    """A slicing-tree internal node: horizontal or vertical composition.

    ``direction`` is ``"h"`` for side-by-side (widths add, heights max) and
    ``"v"`` for stacked (heights add, widths max).
    """

    direction: str
    children: List[Node]

    def __post_init__(self) -> None:
        if self.direction not in ("h", "v"):
            raise ValueError(f"slice direction must be 'h' or 'v', got {self.direction!r}")


def row(*children: Node) -> Slice:
    """Horizontal composition (children placed left to right)."""
    return Slice("h", list(children))


def stack(*children: Node) -> Slice:
    """Vertical composition (children placed bottom to top)."""
    return Slice("v", list(children))


#: Cap on the number of composite shape options kept per slicing node.
MAX_OPTIONS_PER_NODE = 24


def _pareto_shapes(options: List[Tuple[Shape, object]]) -> List[Tuple[Shape, object]]:
    """Keep only non-dominated (width, height) options, sorted by width."""
    options = sorted(options, key=lambda item: (item[0].width, item[0].height))
    kept: List[Tuple[Shape, object]] = []
    best_height = math.inf
    for shape, decision in options:
        if shape.height < best_height - 1e-9:
            kept.append((shape, decision))
            best_height = shape.height
    if len(kept) > MAX_OPTIONS_PER_NODE:
        step = len(kept) / MAX_OPTIONS_PER_NODE
        kept = [kept[int(i * step)] for i in range(MAX_OPTIONS_PER_NODE)]
    return kept


def _shape_options(node: Node) -> List[Tuple[Shape, object]]:
    """All Pareto-optimal composite shapes of a slicing subtree.

    This is the classical shape-function combination for slicing
    floorplans: a horizontal composition adds widths under a common height
    bound, a vertical composition adds heights under a common width bound.
    Each option carries the decision structure needed to recover the child
    shapes afterwards.
    """
    if isinstance(node, Block):
        return _pareto_shapes([(shape, shape) for shape in node.options()])

    child_options = [_shape_options(child) for child in node.children]
    combined: List[Tuple[Shape, object]] = []
    if node.direction == "h":
        candidates = sorted({shape.height for options in child_options for shape, _ in options})
        for bound in candidates:
            picks = []
            feasible = True
            for options in child_options:
                fitting = [item for item in options if item[0].height <= bound + 1e-9]
                if not fitting:
                    feasible = False
                    break
                picks.append(min(fitting, key=lambda item: item[0].width))
            if not feasible:
                continue
            width = sum(item[0].width for item in picks)
            height = max(item[0].height for item in picks)
            combined.append((Shape(width, height), [item[1] for item in picks]))
    else:
        candidates = sorted({shape.width for options in child_options for shape, _ in options})
        for bound in candidates:
            picks = []
            feasible = True
            for options in child_options:
                fitting = [item for item in options if item[0].width <= bound + 1e-9]
                if not fitting:
                    feasible = False
                    break
                picks.append(min(fitting, key=lambda item: item[0].height))
            if not feasible:
                continue
            width = max(item[0].width for item in picks)
            height = sum(item[0].height for item in picks)
            combined.append((Shape(width, height), [item[1] for item in picks]))
    if not combined:
        raise ValueError("slicing node has no feasible shape combination")
    return _pareto_shapes(combined)


def _best_shapes(node: Node, target_aspect: float, area_slack: float = 1.3) -> Tuple[Shape, List]:
    """Choose the composite shape: near-minimal area, closest to the target
    aspect ratio among the options within ``area_slack`` of the minimum."""
    options = _shape_options(node)
    min_area = min(shape.area for shape, _ in options)
    near_minimal = [item for item in options if item[0].area <= min_area * area_slack]
    best = min(
        near_minimal,
        key=lambda item: abs(
            math.log(max(item[0].width / max(item[0].height, 1e-9), 1e-9) / target_aspect)
        ),
    )
    return best


def _place(
    node: Node,
    decision,
    x: float,
    y: float,
    placements: List[Placement],
) -> Shape:
    if isinstance(node, Block):
        shape: Shape = decision
        placements.append(Placement(node.name, x, y, shape.width, shape.height))
        return shape
    shapes: List[Shape] = []
    cursor_x, cursor_y = x, y
    for child, child_decision in zip(node.children, decision):
        shape = _place(child, child_decision, cursor_x, cursor_y, placements)
        shapes.append(shape)
        if node.direction == "h":
            cursor_x += shape.width
        else:
            cursor_y += shape.height
    if node.direction == "h":
        return Shape(sum(s.width for s in shapes), max(s.height for s in shapes))
    return Shape(max(s.width for s in shapes), sum(s.height for s in shapes))


def floorplan(tree: Node, target_aspect: float = 1.0) -> FloorplanResult:
    """Floorplan a slicing tree, choosing block shapes to minimize area."""
    composite, decision = _best_shapes(tree, target_aspect)
    placements: List[Placement] = []
    _place(tree, decision, 0.0, 0.0, placements)
    return FloorplanResult(width=composite.width, height=composite.height, placements=placements)
