"""The component-query planner: constraint-driven selection and parallel
design-space exploration.

This is the evaluation engine of the :mod:`repro.api.query` IR.  A plan
runs in four stages (five with an equivalence bound):

1. **enumerate** -- resolve the spec's predicates against the catalog and
   expand the sweep axes (or the explicit :class:`~repro.api.query.PlanPoint`
   list) into candidate ``(implementation, parameters)`` points;
2. **prune** -- cheap pre-generation checks: implementations that do not
   support a requested attribute, parameter sets the implementation
   rejects, and duplicate canonical generation signatures (two spellings
   of the same elaboration generate once);
3. **generate** -- surviving candidates run through the cached generation
   engine.  When the service's :class:`~repro.api.service.JobManager` has
   free workers, candidates are submitted as jobs of the planning session
   and generated **in parallel** (the sleep/IO-bound external-tool waits
   of the paper's generators overlap); on a job worker thread -- a plan
   submitted *as* a job -- the planner degrades to inline generation so
   plans can never deadlock the pool they are waiting on;
4. **verify** (only with ``require_equivalent_to``) -- every generated
   candidate's netlist is equivalence-checked against the referenced
   instance's flat IIF form with the bit-parallel engines of
   :mod:`repro.sim.verify`; mismatching candidates become infeasible;
5. **rank** -- measured metrics are checked against the spec's bounds and
   the feasible candidates are ranked by the objective: a single metric,
   a weighted scalarization, or the non-dominated (Pareto) front.

The result is a :class:`PlanResult`: every :class:`CandidateReport` (in
enumeration order, pruned and failed ones included), the ranked winner
indices, the Pareto front, and an :meth:`PlanResult.explain` report with
per-stage timings, prune counts and generation-cache hit deltas.  Both
are :class:`repro.wire.Wire` classes (the in-process ``exception`` fields
stay off the wire), so a
:class:`~repro.api.messages.PlanQuery` answers the same report over the
wire that a local :meth:`~repro.api.service.Session.plan` returns.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from ..components import genus
from ..components.catalog import (
    CatalogError,
    ComponentCatalog,
    ComponentImplementation,
)
from ..core.icdb import IcdbError
from ..wire import Wire
from .cache import DEFAULT_CONSTRAINTS, ResultCache
from .errors import E_BAD_REQUEST, E_INVALID, E_NOT_FOUND, IcdbErrorInfo
from .messages import ComponentRequest
from .query import (
    AttributePredicate,
    Bound,
    FunctionPredicate,
    NamePredicate,
    Objective,
    PlanPoint,
    Predicate,
    QuerySpec,
    TypePredicate,
    pareto,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import Session

#: Ceiling on enumerated candidates per plan: like
#: :attr:`~repro.api.messages.BatchRequest.MAX_TOTAL_REQUESTS`, one
#: request must not be able to queue unbounded generation work.
MAX_PLAN_CANDIDATES = 512

#: Feasibility slack for bound checks (floating-point metrics).
BOUND_EPSILON = 1e-9

#: Candidate lifecycle states.
PLANNED = "planned"
PRUNED = "pruned"
GENERATED = "generated"
INFEASIBLE = "infeasible"
FAILED = "failed"


# ---------------------------------------------------------------------------
# Predicate matching (shared with the classic query surface)
# ---------------------------------------------------------------------------


def matches_predicate(
    implementation: ComponentImplementation, predicate: Predicate
) -> bool:
    """Does one catalog implementation satisfy one predicate?"""
    if isinstance(predicate, FunctionPredicate):
        return not predicate.functions or implementation.performs(
            predicate.functions
        )
    if isinstance(predicate, TypePredicate):
        wanted = predicate.component.lower()
        return (
            implementation.component_type.lower() == wanted
            or implementation.name.lower() == wanted
        )
    if isinstance(predicate, NamePredicate):
        names = {name.lower() for name in predicate.implementations}
        return implementation.name.lower() in names
    if isinstance(predicate, AttributePredicate):
        return implementation.supports_attributes(predicate.attributes)
    raise IcdbError(
        f"unknown predicate type {type(predicate).__name__!r}", code=E_BAD_REQUEST
    )


def match_implementations(
    catalog: ComponentCatalog, predicates: Sequence[Predicate]
) -> List[ComponentImplementation]:
    """Catalog implementations satisfying *every* predicate, in catalog
    order (the classic ``component_query`` / ``function_query`` lower to
    this exact call)."""
    candidates = catalog.implementations()
    for predicate in predicates:
        candidates = [
            impl for impl in candidates if matches_predicate(impl, predicate)
        ]
    return candidates


def validate_attribute_names(
    catalog: ComponentCatalog, names: Iterable[str]
) -> None:
    """Reject attribute names no catalog implementation defines.

    Raises an ``E_INVALID`` :class:`~repro.core.icdb.IcdbError` naming the
    offenders and the known vocabulary -- the fix for attribute typos
    being silently dropped.
    """
    known = set(catalog.known_attributes())
    unknown = sorted(set(names) - known)
    if unknown:
        raise IcdbError(
            f"unknown attribute names {unknown}; "
            f"catalog attributes are {sorted(known)}",
            code=E_INVALID,
        )


def select_implementation(
    catalog: ComponentCatalog,
    component_name: Optional[str],
    functions: Optional[Sequence[str]],
) -> ComponentImplementation:
    """The single-winner static plan behind ``request_component``.

    Enumerates the (component name, functions) request's candidates --
    type match first, falling back to an exact implementation name, then
    a :class:`~repro.api.query.FunctionPredicate` filter -- and ranks
    without generating anything: prefer an implementation named exactly
    like the requested component, then the fewest extra functions (the
    cheapest component that still does the job), ties broken by name.
    This *is* the paper's Section 3.2.2 resolution, and every existing
    ``request_component`` flow resolves byte-identically through it.
    """
    if component_name is not None:
        by_type = [
            impl
            for impl in catalog.implementations()
            if impl.component_type.lower() == component_name.lower()
        ]
        if not by_type and component_name.lower() in {
            impl.name.lower() for impl in catalog.implementations()
        }:
            # No implementation *of this type*, but one *named* so: the
            # classic resolution takes the named implementation directly.
            return catalog.get(component_name)
        candidates = by_type
    else:
        candidates = catalog.implementations()
    if functions:
        candidates = [
            impl
            for impl in candidates
            if matches_predicate(impl, FunctionPredicate(tuple(functions)))
        ]
    if not candidates:
        raise IcdbError(
            f"no implementation matches component={component_name!r} "
            f"functions={list(functions or [])!r}",
            code=E_NOT_FOUND,
        )
    wanted = {genus.normalize_function(f) for f in (functions or [])}
    requested = (component_name or "").lower()
    return min(
        candidates,
        key=lambda impl: (
            0 if impl.name.lower() == requested else 1,
            len(set(impl.functions) - wanted),
            impl.name,
        ),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class CandidateReport(Wire):
    """One candidate point of a plan, through its whole lifecycle.

    ``status`` is one of ``planned`` / ``pruned`` / ``generated`` /
    ``infeasible`` (generated, but a bound rejected it) / ``failed``
    (generation raised); ``reason`` explains prune / infeasible states.
    ``metrics`` carries the measured values for generated candidates;
    ``rank`` is 1-based among the winners; ``on_front`` marks membership
    of the Pareto front under a ``pareto`` objective.
    """

    label: str
    implementation: str
    parameters: Dict[str, int] = field(default_factory=dict)
    status: str = PLANNED
    reason: str = ""
    instance: str = ""
    cached: bool = False
    metrics: Dict[str, float] = field(default_factory=dict)
    score: Optional[float] = None
    rank: Optional[int] = None
    on_front: bool = False
    error: Optional[Dict[str, Any]] = None
    #: In-process only (never serialized): the original generation
    #: exception, kept so legacy wrappers re-raise exactly what a direct
    #: ``request_component`` would have raised.
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )
    #: In-process only: the caller's spelling of the implementation name
    #: (``catalog.get`` is case-insensitive, ``implementation`` above is
    #: the canonical name) -- instance naming follows the caller's
    #: spelling, like the serial loops always did.
    requested_implementation: str = field(default="", repr=False, compare=False)


@dataclass
class PlanResult(Wire):
    """The full answer of a plan: candidates, ranking, front, explain.

    ``winners`` / ``front`` are indices into ``candidates`` (labels are
    caller-supplied and need not be unique).  The convenience accessors
    resolve them to reports.
    """

    candidates: List[CandidateReport] = field(default_factory=list)
    winners: List[int] = field(default_factory=list)
    front: List[int] = field(default_factory=list)
    objective: Objective = field(default_factory=lambda: pareto("area", "delay"))
    explain_data: Dict[str, Any] = field(
        default_factory=dict, metadata={"wire_key": "explain"}
    )

    # ------------------------------------------------------------- accessors

    @property
    def winner(self) -> Optional[CandidateReport]:
        """The top-ranked candidate (or ``None`` when nothing survived)."""
        return self.candidates[self.winners[0]] if self.winners else None

    def winner_reports(self) -> List[CandidateReport]:
        return [self.candidates[index] for index in self.winners]

    def front_reports(self) -> List[CandidateReport]:
        return [self.candidates[index] for index in self.front]

    def generated(self) -> List[CandidateReport]:
        return [
            report
            for report in self.candidates
            if report.status in (GENERATED, INFEASIBLE)
        ]

    def explain(self) -> Dict[str, Any]:
        """The planning report: stages, prune counts, cache-hit deltas."""
        return dict(self.explain_data)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------

_NAME_SANITIZER = re.compile(r"[^A-Za-z0-9_]+")


def _name_base(implementation: str, label: str, from_point: bool) -> str:
    """Instance-name base for a candidate.

    Explicit points use the historical serial-loop convention verbatim --
    ``f"{implementation}_{label}"`` with the caller's label untouched --
    so a planner-backed ``area_time_tradeoff`` names (and persists)
    instances byte-identically to the loop it replaced.  Sweep-generated
    labels (``impl[size=4]``) are planner-owned: they already lead with
    the implementation name and are sanitized to stay legal in file
    names and VHDL identifiers.
    """
    if from_point:
        return f"{implementation}_{label}" if label else implementation
    return _NAME_SANITIZER.sub("_", label).strip("_") or implementation


class Planner:
    """Evaluates a :class:`~repro.api.query.QuerySpec` against a session.

    The planner is stateless between calls; construct one per plan or
    reuse it, either way each :meth:`plan` call is independent.  It runs
    server-side: the session provides the catalog, the instance registry,
    the generation engine and the job scheduler.
    """

    def __init__(self, session: "Session"):
        self.session = session

    # ----------------------------------------------------------------- entry

    def plan(self, spec: QuerySpec) -> PlanResult:
        service = self.session.service
        stages: List[Dict[str, Any]] = []

        started = time.perf_counter()
        candidates = self._enumerate(spec)
        stages.append(
            {
                "stage": "enumerate",
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
                "candidates": len(candidates),
            }
        )

        started = time.perf_counter()
        pruned_counts = self._prune(spec, candidates)
        survivors = [c for c in candidates if c.status == PLANNED]
        stages.append(
            {
                "stage": "prune",
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
                "pruned": pruned_counts,
                "survivors": len(survivors),
            }
        )

        started = time.perf_counter()
        result_before = service.cache.stats()
        generation_before = service.generation_stats()
        parallel = self._generate(spec, survivors)
        stages.append(
            {
                "stage": "generate",
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
                "generated": sum(1 for c in survivors if c.status == GENERATED),
                "failed": sum(1 for c in survivors if c.status == FAILED),
                "parallel": parallel,
                "workers": service.jobs.workers if parallel else 1,
                "result_cache": _stats_delta(result_before, service.cache.stats()),
                "generation_cache": {
                    stage: _stats_delta(before, after)
                    for stage, (before, after) in _paired_stats(
                        generation_before, service.generation_stats()
                    ).items()
                },
            }
        )

        if spec.require_equivalent_to:
            started = time.perf_counter()
            checked = self._verify_equivalence(spec, survivors)
            stages.append(
                {
                    "stage": "verify",
                    "elapsed_ms": (time.perf_counter() - started) * 1000.0,
                    "reference": spec.require_equivalent_to,
                    "checked": checked,
                    "rejected": sum(
                        1 for c in survivors if c.status == INFEASIBLE
                    ),
                }
            )

        started = time.perf_counter()
        result = self._rank(spec, candidates)
        stages.append(
            {
                "stage": "rank",
                "elapsed_ms": (time.perf_counter() - started) * 1000.0,
                "feasible": sum(1 for c in candidates if c.status == GENERATED),
                "infeasible": sum(1 for c in candidates if c.status == INFEASIBLE),
                "winners": len(result.winners),
                "front": len(result.front),
            }
        )
        result.explain_data = {
            "stages": stages,
            "objective": spec.objective.to_dict(),
            "bounds": [bound.to_dict() for bound in spec.where],
        }
        return result

    # ------------------------------------------------------------- enumerate

    def _enumerate(self, spec: QuerySpec) -> List[CandidateReport]:
        catalog = self.session.catalog
        if not spec.select and not spec.points:
            raise IcdbError(
                "a plan query needs select predicates or explicit points",
                code=E_BAD_REQUEST,
            )
        base_attributes = dict(spec.attributes or {})
        requested_names = set(base_attributes)
        requested_names.update(axis for axis, _ in spec.sweep)
        for point in spec.points:
            requested_names.update(point.attributes)
        for predicate in spec.select:
            if isinstance(predicate, AttributePredicate):
                requested_names.update(predicate.attributes)
        if requested_names:
            validate_attribute_names(catalog, requested_names)

        candidates: List[CandidateReport] = []
        if spec.points:
            default_impl: Optional[ComponentImplementation] = None
            if any(point.implementation is None for point in spec.points):
                default_impl = self._resolve_default_implementation(spec)
            for index, point in enumerate(spec.points):
                impl = (
                    catalog.get(point.implementation)
                    if point.implementation is not None
                    else default_impl
                )
                assert impl is not None
                attributes = dict(base_attributes)
                attributes.update(point.attributes)
                report = self._candidate(
                    spec,
                    impl,
                    attributes,
                    point.parameters,
                    label=point.label or f"{impl.name}#{index}",
                )
                report.requested_implementation = point.implementation or impl.name
                candidates.append(report)
        else:
            implementations = match_implementations(catalog, spec.select)
            if not implementations:
                raise IcdbError(
                    f"no implementation matches the plan query "
                    f"(predicates: {[p.to_dict() for p in spec.select]})",
                    code=E_NOT_FOUND,
                )
            axes = spec.sweep
            grid: Iterable[Tuple[int, ...]] = (
                itertools.product(*(values for _, values in axes)) if axes else [()]
            )
            grid = list(grid)
            for impl in implementations:
                for combo in grid:
                    attributes = dict(base_attributes)
                    attributes.update(
                        {axis: value for (axis, _), value in zip(axes, combo)}
                    )
                    label = impl.name
                    if combo:
                        label += (
                            "["
                            + ",".join(
                                f"{axis}={value}"
                                for (axis, _), value in zip(axes, combo)
                            )
                            + "]"
                        )
                    candidates.append(
                        self._candidate(spec, impl, attributes, {}, label=label)
                    )
        if len(candidates) > MAX_PLAN_CANDIDATES:
            raise IcdbError(
                f"plan of {len(candidates)} candidates exceeds the "
                f"{MAX_PLAN_CANDIDATES}-candidate limit",
                code=E_BAD_REQUEST,
            )
        return candidates

    def _resolve_default_implementation(
        self, spec: QuerySpec
    ) -> ComponentImplementation:
        """One implementation for the spec's unpinned points.

        A single :class:`NamePredicate` entry resolves directly; anything
        else goes through the static single-winner selection.
        """
        catalog = self.session.catalog
        names = [
            predicate
            for predicate in spec.select
            if isinstance(predicate, NamePredicate)
        ]
        if len(names) == 1 and len(names[0].implementations) == 1:
            return catalog.get(names[0].implementations[0])
        component = next(
            (
                predicate.component
                for predicate in spec.select
                if isinstance(predicate, TypePredicate)
            ),
            None,
        )
        functions: Tuple[str, ...] = ()
        for predicate in spec.select:
            if isinstance(predicate, FunctionPredicate):
                functions += predicate.functions
        return select_implementation(catalog, component, functions or None)

    def _candidate(
        self,
        spec: QuerySpec,
        implementation: ComponentImplementation,
        attributes: Mapping[str, int],
        parameters: Mapping[str, int],
        label: str,
    ) -> CandidateReport:
        """Build one candidate point; prune attribute mismatches on sight."""
        unsupported = sorted(
            name
            for name in attributes
            if name not in implementation.attribute_parameters
        )
        overrides = dict(spec.parameters or {})
        overrides.update(parameters)
        overrides.update(implementation.attributes_to_parameters(attributes))
        report = CandidateReport(
            label=label,
            implementation=implementation.name,
            parameters=overrides,
        )
        if unsupported:
            report.status = PRUNED
            report.reason = (
                f"unsupported attributes {unsupported} "
                f"(supports {sorted(implementation.attribute_parameters)})"
            )
        return report

    # ----------------------------------------------------------------- prune

    def _prune(
        self, spec: QuerySpec, candidates: List[CandidateReport]
    ) -> Dict[str, int]:
        """Cheap pre-generation checks; returns counts by prune reason.

        Explicit points skip the parameter and duplicate pruning: each
        point is owed its own instance (and, on failure, its own original
        generation error -- the ``area_time_tradeoff`` contract), whereas
        an enumerated sweep wants typos rejected and identical
        elaborations generated once.
        """
        catalog = self.session.catalog
        constraints = spec.constraints or DEFAULT_CONSTRAINTS
        counts: Dict[str, int] = {}
        seen: Dict[Any, str] = {}
        sweep = not spec.points
        for report in candidates:
            if report.status == PRUNED:  # unsupported attributes, from enumerate
                counts["unsupported-attribute"] = (
                    counts.get("unsupported-attribute", 0) + 1
                )
                continue
            if not sweep:
                continue
            impl = catalog.get(report.implementation)
            try:
                resolved = impl.resolve_parameters(report.parameters)
            except CatalogError as exc:
                report.status = PRUNED
                report.reason = f"invalid parameters: {exc.args[0]}"
                counts["invalid-parameters"] = (
                    counts.get("invalid-parameters", 0) + 1
                )
                continue
            signature = ResultCache.signature(
                impl.name, resolved, constraints, spec.target
            )
            twin = seen.get(signature)
            if twin is not None:
                report.status = PRUNED
                report.reason = f"duplicate of {twin!r}"
                counts["duplicate"] = counts.get("duplicate", 0) + 1
                continue
            seen[signature] = report.label
        return counts

    # -------------------------------------------------------------- generate

    def _component_request(
        self, spec: QuerySpec, report: CandidateReport, instance_name: str
    ) -> ComponentRequest:
        return ComponentRequest(
            implementation=report.implementation,
            parameters=dict(report.parameters) or None,
            constraints=spec.constraints,
            target=spec.target,
            instance_name=instance_name,
            use_cache=spec.use_cache,
            detail="summary",
        )

    def _generate(
        self, spec: QuerySpec, survivors: List[CandidateReport]
    ) -> bool:
        """Generate every surviving candidate; True if fanned out as jobs.

        Instance names are pre-allocated in enumeration order, so the
        parallel fan-out names (and therefore persists) candidates
        exactly like a serial loop would.
        """
        if not survivors:
            return False
        session = self.session
        service = session.service
        from_point = bool(spec.points)
        names = [
            session.instances.new_name(
                _name_base(
                    report.requested_implementation or report.implementation,
                    report.label,
                    from_point,
                )
            )
            for report in survivors
        ]
        requests = [
            self._component_request(spec, report, name)
            for report, name in zip(survivors, names)
        ]
        parallel = (
            len(survivors) > 1
            and service.jobs.workers > 1
            and not service.jobs.on_worker_thread()
        )
        if parallel:
            if service.fleet is not None:
                # Ship every candidate's heavy stages across the fleet up
                # front; the job pool below then replays each request as
                # a warm memo hit.  Fleet-ineligible candidates (and all
                # of them when no worker is live) just generate cold in
                # the pool, exactly as before.
                service.fleet.prewarm_requests(requests)
            responses = service.jobs.run_many(requests, session)
        else:
            responses = [service.execute(request, session) for request in requests]
        for report, response in zip(survivors, responses):
            self._absorb(spec, report, response)
        return parallel

    def _absorb(self, spec: QuerySpec, report: CandidateReport, response) -> None:
        """Fold one generation envelope into its candidate report."""
        if not response.ok:
            report.status = FAILED
            info = response.error or IcdbErrorInfo(
                code=E_BAD_REQUEST, message="generation failed"
            )
            report.error = info.to_dict()
            report.reason = info.message
            report.exception = response.exception
            return
        summary = response.value
        report.status = GENERATED
        report.instance = str(summary["instance"])
        report.cached = bool(summary.get("cached", False))
        instance = self.session.instances.get(report.instance)
        delay = (
            instance.delay_to(spec.delay_output)
            if spec.delay_output is not None
            else instance.worst_delay()
        )
        report.metrics = {
            "area": float(instance.area),
            "delay": float(delay),
            "clock_width": float(instance.clock_width),
            "cells": float(instance.netlist.cell_count()),
        }

    # ---------------------------------------------------------------- verify

    def _verify_equivalence(
        self, spec: QuerySpec, survivors: List[CandidateReport]
    ) -> int:
        """Equivalence-gate generated candidates against the reference.

        The flat IIF form of ``spec.require_equivalent_to`` (an existing
        instance; unknown names fail the whole plan with ``E_NOT_FOUND``)
        is the functional specification: every generated candidate's gate
        netlist is checked with
        :func:`repro.sim.verify.check_equivalence`, and candidates that
        mismatch -- different ports, a failing vector, or an unclockable
        sequential check -- are marked ``infeasible`` before ranking,
        exactly like a metric bound violation.  Returns the number of
        candidates checked.
        """
        from ..sim.verify import VerificationError, check_equivalence

        reference = self.session.instances.get(spec.require_equivalent_to)
        checked = 0
        for report in survivors:
            if report.status != GENERATED:
                continue
            checked += 1
            candidate = self.session.instances.get(report.instance)
            try:
                result = check_equivalence(
                    reference.flat, candidate.netlist
                )
            except VerificationError as exc:
                report.status = INFEASIBLE
                report.reason = (
                    f"not equivalent to {reference.name!r}: {exc}"
                )
                continue
            if not result.equivalent:
                report.status = INFEASIBLE
                report.reason = (
                    f"not equivalent to {reference.name!r} "
                    f"({result.mode}, {result.vectors_checked} vectors): "
                    f"outputs {list(result.mismatched_outputs)} differ on "
                    f"{result.counterexample}"
                )
        return checked

    # ------------------------------------------------------------------ rank

    def _rank(self, spec: QuerySpec, candidates: List[CandidateReport]) -> PlanResult:
        for report in candidates:
            if report.status != GENERATED:
                continue
            violations = [
                f"{bound.metric} {report.metrics.get(bound.metric, 0.0):g} "
                f"> {bound.limit:g}"
                for bound in spec.where
                if report.metrics.get(bound.metric, 0.0)
                > bound.limit + BOUND_EPSILON
            ]
            if violations:
                report.status = INFEASIBLE
                report.reason = "; ".join(violations)
        feasible = [
            (index, report)
            for index, report in enumerate(candidates)
            if report.status == GENERATED
        ]
        objective = spec.objective
        front: List[int] = []
        if objective.kind == "minimize":
            metric = objective.metrics[0]
            for _, report in feasible:
                report.score = report.metrics[metric]
            ranked = sorted(
                feasible, key=lambda item: (item[1].score, item[1].label)
            )
        elif objective.kind == "weighted":
            for _, report in feasible:
                report.score = sum(
                    weight * report.metrics[metric]
                    for metric, weight in zip(objective.metrics, objective.weights)
                )
            ranked = sorted(
                feasible, key=lambda item: (item[1].score, item[1].label)
            )
        else:  # pareto
            front_items = pareto_front(
                feasible, objective.metrics, key=lambda item: item[1].metrics
            )
            for _, report in front_items:
                report.on_front = True
            first = objective.metrics[0]
            ranked = sorted(
                front_items,
                key=lambda item: (item[1].metrics[first], item[1].label),
            )
            front = [index for index, _ in ranked]
        winners = ranked[: spec.limit] if spec.limit else ranked
        for position, (_, report) in enumerate(winners, start=1):
            report.rank = position
        return PlanResult(
            candidates=candidates,
            winners=[index for index, _ in winners],
            front=front,
            objective=objective,
        )


def pareto_front(items: Sequence, metrics: Sequence[str], key) -> List:
    """The non-dominated subset of ``items`` (all metrics minimized).

    ``key(item)`` answers the item's metric mapping.  An item is
    dominated when another is <= on every metric and < on at least one.
    Input order is preserved.
    """
    front = []
    for item in items:
        values = key(item)
        dominated = False
        for other in items:
            if other is item:
                continue
            other_values = key(other)
            if all(
                other_values[m] <= values[m] + BOUND_EPSILON for m in metrics
            ) and any(other_values[m] < values[m] - BOUND_EPSILON for m in metrics):
                dominated = True
                break
        if not dominated:
            front.append(item)
    return front


# ---------------------------------------------------------------------------
# The Figure 5 tradeoff as a plan
# ---------------------------------------------------------------------------


def tradeoff_spec(
    component_name: str,
    configurations: Sequence[Tuple[str, Mapping[str, int]]],
    constraints=None,
    delay_output: Optional[str] = None,
) -> QuerySpec:
    """Lower an ``area_time_tradeoff`` call onto the query IR.

    Each labelled configuration becomes an explicit
    :class:`~repro.api.query.PlanPoint` pinned to ``component_name``; the
    objective is the (area, delay) Pareto front -- exactly the tradeoff
    curve Figure 5 plots.
    """
    return QuerySpec(
        points=tuple(
            PlanPoint(
                label=label,
                implementation=component_name,
                parameters=dict(parameters),
            )
            for label, parameters in configurations
        ),
        objective=pareto("area", "delay"),
        constraints=constraints,
        delay_output=delay_output,
    )


def tradeoff_rows(result: PlanResult) -> List[Dict[str, Any]]:
    """The classic ``area_time_tradeoff`` row schema from a plan result.

    Rows come back in configuration order (plan candidates preserve point
    order).  The first failed candidate re-raises its original exception
    when the plan ran in-process, or its structured error otherwise --
    the same exception the old serial ``request_component`` loop raised.
    One deliberate difference on the error path: the fan-out generates
    every configuration before the failure surfaces, so later
    configurations may already be registered (the serial loop stopped at
    the first failure).
    """
    rows: List[Dict[str, Any]] = []
    for report in result.candidates:
        if report.status == FAILED:
            if report.exception is not None:
                raise report.exception
            info = IcdbErrorInfo.from_dict(report.error or {})
            info.raise_as_exception()
        rows.append(
            {
                "label": report.label,
                "instance": report.instance,
                "delay": report.metrics["delay"],
                "clock_width": report.metrics["clock_width"],
                "area": report.metrics["area"],
                "cells": int(report.metrics["cells"]),
            }
        )
    return rows


__all__ = [
    "BOUND_EPSILON",
    "CandidateReport",
    "FAILED",
    "GENERATED",
    "INFEASIBLE",
    "MAX_PLAN_CANDIDATES",
    "PLANNED",
    "PRUNED",
    "PlanResult",
    "Planner",
    "match_implementations",
    "matches_predicate",
    "pareto_front",
    "select_implementation",
    "tradeoff_rows",
    "tradeoff_spec",
    "validate_attribute_names",
]


def _stats_delta(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, int]:
    """Counter deltas between two stats snapshots (shared-cache noise from
    concurrent sessions rides along; the numbers are per-service, not
    per-plan exact)."""
    return {
        key: int(after.get(key, 0)) - int(before.get(key, 0))
        for key in ("lookups", "hits", "misses", "stores", "evictions")
        if key in after or key in before
    }


def _paired_stats(
    before: Mapping[str, Mapping[str, int]], after: Mapping[str, Mapping[str, int]]
) -> Dict[str, Tuple[Mapping[str, int], Mapping[str, int]]]:
    return {stage: (before.get(stage, {}), after.get(stage, {})) for stage in after}
