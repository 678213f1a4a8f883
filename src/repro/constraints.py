"""Design constraints passed with a component request.

The paper's ``request_component`` command accepts delay constraints
(minimum clock width, combinational delay from inputs to an output under a
given output load, set-up time), geometry constraints (port positions,
aspect ratio / number of strips) and a ``strategy`` shorthand (``fastest``
generates the fastest possible component, ``cheapest`` the smallest).

This module defines the :class:`Constraints` container used throughout the
pipeline plus parsers for the textual formats shown in Section 3.2.2
(``rdelay Q[0] 10`` / ``oload Q[0] 10``) and Section 3.3 (port position
assignments such as ``CLK left s1.0``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .wire import Wire, field, fields


class ConstraintError(ValueError):
    """Raised on malformed constraint specifications."""


#: Strategy names accepted by ``request_component``.
STRATEGY_FASTEST = "fastest"
STRATEGY_CHEAPEST = "cheapest"
STRATEGIES = (STRATEGY_FASTEST, STRATEGY_CHEAPEST)

#: Delay target, in nanoseconds, that ``strategy: fastest`` translates to
#: (the paper supplies a zero delay to MILO; a zero target simply drives the
#: sizing tool as hard as it can go).
FASTEST_TARGET_NS = 0.0
#: Clock-width target that ``strategy: cheapest`` translates to (the paper
#: uses 1000 ns, which effectively disables sizing).
CHEAPEST_TARGET_NS = 1000.0


class PortPosition(Wire, frozen=True):
    """One port-position assignment: ``D[0] top 10``.

    ``side`` is ``left``, ``right``, ``top`` or ``bottom``; ``order`` is the
    relative position key (larger numbers placed further right / further
    down, as in the paper's example).
    """

    port: str
    side: str
    order: float

    def __post_init__(self) -> None:
        if self.side not in ("left", "right", "top", "bottom"):
            raise ConstraintError(f"unknown side {self.side!r} for port {self.port!r}")


class Constraints(Wire):
    """Delay and geometry constraints for component generation."""

    clock_width: Optional[float] = None
    comb_delay: Dict[str, float] = field(default_factory=dict)
    default_comb_delay: Optional[float] = None
    setup_time: Optional[float] = None
    output_loads: Dict[str, float] = field(default_factory=dict)
    default_output_load: float = 0.0
    strategy: Optional[str] = None
    strips: Optional[int] = None
    aspect_ratio: Optional[float] = None
    port_positions: Tuple[PortPosition, ...] = ()

    def __post_init__(self) -> None:
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ConstraintError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )

    # -------------------------------------------------------------- resolution

    def effective_clock_width(self) -> Optional[float]:
        """Clock-width target after applying the strategy shorthand."""
        if self.clock_width is not None:
            return self.clock_width
        if self.strategy == STRATEGY_FASTEST:
            return FASTEST_TARGET_NS
        if self.strategy == STRATEGY_CHEAPEST:
            return CHEAPEST_TARGET_NS
        return None

    def comb_delay_for(self, output: str) -> Optional[float]:
        """Combinational delay bound for ``output`` (falling back to default)."""
        if output in self.comb_delay:
            return self.comb_delay[output]
        if self.default_comb_delay is not None:
            return self.default_comb_delay
        if self.strategy == STRATEGY_FASTEST:
            return FASTEST_TARGET_NS
        return None

    def load_for(self, output: str) -> float:
        return self.output_loads.get(output, self.default_output_load)

    def all_output_loads(self, outputs: Sequence[str]) -> Dict[str, float]:
        return {name: self.load_for(name) for name in outputs}

    def has_delay_constraints(self) -> bool:
        return (
            self.effective_clock_width() is not None
            or bool(self.comb_delay)
            or self.default_comb_delay is not None
            or self.setup_time is not None
        )

    # ----------------------------------------------------------------- update

    def with_updates(self, **changes) -> "Constraints":
        """Return a copy with the given fields replaced (every field is
        carried over; the dict fields are copied, not shared)."""
        data = {}
        for entry in fields(self):
            value = getattr(self, entry.name)
            data[entry.name] = dict(value) if isinstance(value, dict) else value
        data.update(changes)
        return Constraints(**data)


# ---------------------------------------------------------------------------
# Textual constraint formats
# ---------------------------------------------------------------------------


def parse_delay_constraints(text: str) -> Constraints:
    """Parse the ``rdelay`` / ``oload`` constraint lines of Section 3.2.2.

    Example input::

        rdelay Q[4] 10
        oload  Q[4] 10
    """
    comb: Dict[str, float] = {}
    loads: Dict[str, float] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConstraintError(f"line {line_number}: expected 'kind port value', got {raw!r}")
        kind, port, value_text = parts
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ConstraintError(f"line {line_number}: bad value {value_text!r}") from exc
        if kind == "rdelay":
            comb[port] = value
        elif kind == "oload":
            loads[port] = value
        else:
            raise ConstraintError(f"line {line_number}: unknown constraint kind {kind!r}")
    return Constraints(comb_delay=comb, output_loads=loads)


def parse_port_positions(text: str) -> Tuple[PortPosition, ...]:
    """Parse a port-position assignment block (Section 3.3).

    Example line: ``CLK left s1.0`` or ``D[0] top 10``.  The ``s`` prefix the
    paper uses for side-relative slot numbers is accepted and stripped.
    """
    positions: List[PortPosition] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConstraintError(
                f"line {line_number}: expected 'port side order', got {raw!r}"
            )
        port, side, order_text = parts
        order_text = order_text.lstrip("sS")
        try:
            order = float(order_text)
        except ValueError as exc:
            raise ConstraintError(f"line {line_number}: bad order {order_text!r}") from exc
        positions.append(PortPosition(port=port, side=side.lower(), order=order))
    return tuple(positions)


def render_port_positions(positions: Sequence[PortPosition]) -> str:
    """Render port positions back to the paper's textual form."""
    return "\n".join(f"{p.port} {p.side} {p.order:g}" for p in positions)


#: The shared default-constraints object (treated as immutable, like every
#: :class:`Constraints` in the pipeline) and its pre-serialized canonical
#: JSON: the overwhelmingly common request carries no constraints, and both
#: the result cache and the generation cache key on this serialization --
#: re-computing it dominated signature cost on hot paths.
DEFAULT_CONSTRAINTS = Constraints()
DEFAULT_CONSTRAINTS_JSON = json.dumps(DEFAULT_CONSTRAINTS.to_dict(), sort_keys=True)


def canonical_constraints_json(constraints: Constraints) -> str:
    """Canonical (sorted-keys) JSON of a constraints object, with the
    default-constraints serialization computed once."""
    if constraints is DEFAULT_CONSTRAINTS or constraints == DEFAULT_CONSTRAINTS:
        return DEFAULT_CONSTRAINTS_JSON
    return json.dumps(constraints.to_dict(), sort_keys=True)
