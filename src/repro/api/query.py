"""The declarative component-query IR: predicates, bounds and objectives.

The paper's whole point is *intelligent* retrieval: a synthesis tool asks
for "something that executes INC and DEC, under 40 ns, as small as
possible" and the database picks (or generates) the best implementation.
This module is the typed, composable description of such a question:

* **predicates** (:class:`FunctionPredicate`, :class:`TypePredicate`,
  :class:`NamePredicate`, :class:`AttributePredicate`) select candidate
  implementations from the GENUS catalog;
* **bounds** (:class:`Bound`, built with :func:`max_delay` /
  :func:`max_area` / :func:`max_clock_width` / :func:`max_cells`) reject
  generated candidates whose measured metrics exceed a limit;
* **objectives** (:func:`minimize`, :func:`weighted`, :func:`pareto`)
  rank the feasible candidates -- a single metric, a weighted
  scalarization, or a non-dominated (Pareto) front over several metrics;
* **sweeps and points** enumerate the design space: attribute axes whose
  cartesian product is explored per candidate implementation, or an
  explicit list of labelled :class:`PlanPoint` configurations.

:class:`QuerySpec` composes all of the above.  Like every request in
:mod:`repro.api.messages`, each class here declares its wire form in its
typed fields and gets ``to_dict()`` / ``from_dict()`` from
:class:`repro.wire.Wire`, so a :class:`~repro.api.messages.PlanQuery`
carries it over the wire unchanged; a predicate's wire form is tagged
with its ``kind``.  The evaluation engine lives in
:mod:`repro.api.planner`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..constraints import Constraints
from ..core.icdb import IcdbError
from ..core.instances import TARGET_LAYOUT, TARGET_LOGIC
from ..wire import Wire, field
from .errors import E_BAD_REQUEST, E_INVALID

#: Metrics a bound or objective may reference, measured on every generated
#: candidate: ``area`` (um^2), ``delay`` (worst output delay or the
#: spec's ``delay_output``, ns), ``clock_width`` (ns) and ``cells``.
METRICS = ("area", "delay", "clock_width", "cells")

#: Objective kinds of a :class:`Objective`.
OBJECTIVE_KINDS = ("minimize", "weighted", "pareto")


def _check_metric(metric: str, context: str) -> str:
    if metric not in METRICS:
        raise IcdbError(
            f"unknown {context} metric {metric!r}; expected one of {METRICS}",
            code=E_INVALID,
        )
    return metric


def _int_map(raw: Any, context: str) -> Dict[str, int]:
    """A plain ``{name: int}`` dict from wire data (strict, typed errors)."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise IcdbError(
            f"{context} must be a mapping of names to integers, "
            f"got {type(raw).__name__}",
            code=E_BAD_REQUEST,
        )
    values: Dict[str, int] = {}
    for key, value in raw.items():
        try:
            values[str(key)] = int(value)
        except (TypeError, ValueError):
            raise IcdbError(
                f"{context} value for {key!r} must be an integer, got {value!r}",
                code=E_BAD_REQUEST,
            )
    return values


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class FunctionPredicate(Wire, frozen=True):
    """Match implementations that perform *all* of the given functions."""

    functions: Tuple[str, ...] = ()
    kind = "function"


class TypePredicate(Wire, frozen=True):
    """Match implementations of a component type (or named exactly so).

    The match is case-insensitive and mirrors the classic
    ``component_query``: the value matches an implementation's GENUS
    component type *or* its own name.
    """

    component: str = ""
    kind = "type"


class NamePredicate(Wire, frozen=True):
    """Restrict candidates to an explicit implementation shortlist."""

    implementations: Tuple[str, ...] = ()
    kind = "name"


class AttributePredicate(Wire, frozen=True):
    """Match implementations that support every named GENUS attribute.

    ``attributes`` maps attribute names to the values the caller will
    request; an implementation matches when it maps each name onto one of
    its IIF parameters (the values then become parameter overrides during
    generation).
    """

    attributes: Dict[str, int] = field(default_factory=dict)
    kind = "attribute"


Predicate = Union[FunctionPredicate, TypePredicate, NamePredicate, AttributePredicate]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


class Bound(Wire, frozen=True):
    """An upper bound on a measured metric: feasible iff value <= limit."""

    #: A bound without ``metric`` on the wire reads as "", which the
    #: metric check rejects; a default would make it a delay bound.
    metric: str = field(default="delay", metadata={"wire_default": ""})
    limit: float = 0.0

    def __post_init__(self) -> None:
        _check_metric(self.metric, "bound")
        try:
            object.__setattr__(self, "limit", float(self.limit))
        except (TypeError, ValueError):
            raise IcdbError(
                f"bound limit for {self.metric!r} must be a number, "
                f"got {self.limit!r}",
                code=E_BAD_REQUEST,
            )


def max_delay(limit: float) -> Bound:
    """Reject candidates whose measured delay exceeds ``limit`` ns."""
    return Bound(metric="delay", limit=limit)


def max_area(limit: float) -> Bound:
    """Reject candidates whose area exceeds ``limit`` um^2."""
    return Bound(metric="area", limit=limit)


def max_clock_width(limit: float) -> Bound:
    """Reject candidates whose minimum clock width exceeds ``limit`` ns."""
    return Bound(metric="clock_width", limit=limit)


def max_cells(limit: float) -> Bound:
    """Reject candidates with more than ``limit`` mapped cells."""
    return Bound(metric="cells", limit=limit)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


class Objective(Wire, frozen=True):
    """How feasible candidates are ranked.

    * ``minimize``: one metric, ascending;
    * ``weighted``: the scalarization ``sum(weight * metric)``, ascending
      (``weights`` is parallel to ``metrics``);
    * ``pareto``: the non-dominated front over ``metrics`` (all
      minimized); the front is ranked by the first metric.
    """

    kind: str = "minimize"
    metrics: Tuple[str, ...] = ("area",)
    weights: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise IcdbError(
                f"unknown objective kind {self.kind!r}; "
                f"expected one of {OBJECTIVE_KINDS}",
                code=E_BAD_REQUEST,
            )
        metrics = tuple(str(m) for m in self.metrics)
        for metric in metrics:
            _check_metric(metric, "objective")
        if not metrics:
            raise IcdbError(
                "an objective needs at least one metric", code=E_BAD_REQUEST
            )
        if self.kind == "minimize" and len(metrics) != 1:
            raise IcdbError(
                f"minimize takes exactly one metric, got {list(metrics)}",
                code=E_BAD_REQUEST,
            )
        if self.kind == "pareto" and len(metrics) < 2:
            raise IcdbError(
                f"pareto needs at least two metrics, got {list(metrics)}",
                code=E_BAD_REQUEST,
            )
        weights = tuple(float(w) for w in self.weights)
        if self.kind == "weighted":
            if len(weights) != len(metrics):
                raise IcdbError(
                    "weighted objective needs one weight per metric "
                    f"({len(metrics)} metrics, {len(weights)} weights)",
                    code=E_BAD_REQUEST,
                )
        elif weights:
            raise IcdbError(
                f"{self.kind} objectives take no weights", code=E_BAD_REQUEST
            )
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "weights", weights)


def minimize(metric: str) -> Objective:
    """Rank candidates by one metric, smallest first."""
    return Objective(kind="minimize", metrics=(metric,))


def weighted(**metric_weights: float) -> Objective:
    """Rank candidates by ``sum(weight * metric)``, smallest first.

    Example: ``weighted(area=0.5, delay=0.5)``.
    """
    if not metric_weights:
        raise IcdbError(
            "weighted() needs at least one metric=weight pair", code=E_BAD_REQUEST
        )
    return Objective(
        kind="weighted",
        metrics=tuple(metric_weights),
        weights=tuple(metric_weights.values()),
    )


def pareto(*metrics: str) -> Objective:
    """Return the non-dominated front over ``metrics`` (all minimized)."""
    return Objective(kind="pareto", metrics=tuple(metrics))


#: The textual objective grammar of the CQL ``explore`` command (also
#: handy in configuration files): ``minimize(area)``, ``pareto(area,delay)``,
#: ``weighted(area:0.6,delay:0.4)``, or a bare metric name (minimized).
def parse_objective(text: str) -> Objective:
    spec = str(text).strip()
    if not spec:
        raise IcdbError("empty objective", code=E_BAD_REQUEST)
    if "(" not in spec:
        return minimize(spec)
    head, _, rest = spec.partition("(")
    kind = head.strip().lower()
    body = rest.rstrip()
    if not body.endswith(")"):
        raise IcdbError(
            f"malformed objective {text!r} (missing ')')", code=E_BAD_REQUEST
        )
    items = [item.strip() for item in body[:-1].split(",") if item.strip()]
    if kind == "minimize":
        if len(items) != 1:
            raise IcdbError(
                f"minimize takes exactly one metric, got {items}",
                code=E_BAD_REQUEST,
            )
        return minimize(items[0])
    if kind == "pareto":
        return pareto(*items)
    if kind == "weighted":
        pairs: Dict[str, float] = {}
        for item in items:
            metric, sep, weight = item.partition(":")
            if not sep:
                raise IcdbError(
                    f"weighted objective items must be metric:weight, got {item!r}",
                    code=E_BAD_REQUEST,
                )
            try:
                pairs[metric.strip()] = float(weight)
            except ValueError:
                raise IcdbError(
                    f"bad weight {weight!r} in objective {text!r}",
                    code=E_BAD_REQUEST,
                )
        return weighted(**pairs)
    raise IcdbError(
        f"unknown objective kind {kind!r}; expected one of {OBJECTIVE_KINDS}",
        code=E_BAD_REQUEST,
    )


# ---------------------------------------------------------------------------
# Design-space points and the spec
# ---------------------------------------------------------------------------


class PlanPoint(Wire, frozen=True):
    """One explicit labelled configuration of the design space.

    ``parameters`` are raw IIF parameter overrides, ``attributes`` GENUS
    attribute values (translated per implementation); ``implementation``
    optionally pins the catalog implementation for this point (otherwise
    the spec's predicates resolve one implementation for every point --
    the Figure 5 tradeoff shape).
    """

    label: str = ""
    implementation: Optional[str] = None
    parameters: Dict[str, int] = field(default_factory=dict)
    attributes: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # An empty name pins nothing, like a missing one.
        object.__setattr__(self, "implementation", self.implementation or None)
        object.__setattr__(
            self, "parameters", _int_map(self.parameters, "point parameters")
        )
        object.__setattr__(
            self, "attributes", _int_map(self.attributes, "point attributes")
        )


class QuerySpec(Wire, frozen=True):
    """A complete declarative component query.

    ``select`` filters the catalog, ``sweep`` *or* ``points`` (mutually
    exclusive) enumerate the candidate configurations, ``where`` bounds
    the measured metrics, ``objective`` ranks the survivors.  ``attributes`` / ``parameters``
    are base values every candidate inherits (points and sweep axes
    override them); ``constraints`` drive generation exactly like a
    ``request_component``; ``delay_output`` redirects the ``delay``
    metric from the worst output to one named output; ``limit`` truncates
    the ranked winners (0 = all); ``use_cache`` opts candidates out of
    the result cache.

    ``require_equivalent_to`` names an existing instance whose flat IIF
    form is the *functional specification*: after generation every
    candidate's netlist is equivalence-checked against it
    (:func:`repro.sim.verify.check_equivalence`) and non-equivalent
    candidates are marked infeasible before ranking.
    """

    select: Tuple[Predicate, ...] = ()
    where: Tuple[Bound, ...] = ()
    objective: Objective = field(default_factory=lambda: minimize("area"))
    sweep: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    points: Tuple[PlanPoint, ...] = ()
    attributes: Optional[Dict[str, int]] = None
    parameters: Optional[Dict[str, int]] = None
    constraints: Optional[Constraints] = None
    target: str = TARGET_LOGIC
    delay_output: Optional[str] = None
    limit: int = 0
    use_cache: bool = True
    require_equivalent_to: Optional[str] = None

    def __post_init__(self) -> None:
        if self.target not in (TARGET_LOGIC, TARGET_LAYOUT):
            raise IcdbError(
                f"unknown plan target {self.target!r}", code=E_BAD_REQUEST
            )
        if not isinstance(self.limit, int) or isinstance(self.limit, bool) or self.limit < 0:
            raise IcdbError(
                f"plan limit must be a non-negative integer, got {self.limit!r}",
                code=E_BAD_REQUEST,
            )
        sweep: List[Tuple[str, Tuple[int, ...]]] = []
        for axis in self.sweep:
            try:
                name, values = axis
            except (TypeError, ValueError):
                raise IcdbError(
                    f"a sweep axis must be (name, values), got {axis!r}",
                    code=E_BAD_REQUEST,
                )
            values = tuple(int(v) for v in values)
            if not values:
                raise IcdbError(
                    f"sweep axis {name!r} has no values", code=E_BAD_REQUEST
                )
            sweep.append((str(name), values))
        object.__setattr__(self, "sweep", tuple(sweep))
        object.__setattr__(self, "select", tuple(self.select))
        object.__setattr__(self, "where", tuple(self.where))
        object.__setattr__(self, "points", tuple(self.points))
        if self.points and self.sweep:
            # Explicit points *are* the design space; a sweep riding along
            # would be silently ignored -- reject the ambiguity instead.
            raise IcdbError(
                "a plan query takes explicit points or sweep axes, not both "
                "(put swept values on the points themselves)",
                code=E_BAD_REQUEST,
            )
        object.__setattr__(
            self, "attributes", _int_map(self.attributes, "attributes") or None
        )
        object.__setattr__(
            self, "parameters", _int_map(self.parameters, "parameters") or None
        )
        # An empty name selects nothing, like a missing one.
        object.__setattr__(self, "delay_output", self.delay_output or None)
        object.__setattr__(
            self, "require_equivalent_to", self.require_equivalent_to or None
        )
