"""The component generation manager: ICDB's embedded generator (Section 4.3).

ICDB's embedded generator runs the full path of Figure 8 -- IIF expansion,
MILO-like logic synthesis and technology mapping, transistor sizing,
delay / area estimation and (on request) strip layout generation.  Its
tool steps are registered with the tool manager of :mod:`repro.core.tools`,
exactly as the paper inserts external tools via shell scripts.

This module is the Figure-8 flow's front door: a server imports it on the
first request that generates (see :attr:`ComponentService.generator
<repro.api.service.ComponentService.generator>`), not at boot.  Which
elaboration a request names, and what identifies it, is decided before
the flow runs (:meth:`ComponentService.elaboration
<repro.api.service.ComponentService.elaboration>`,
:meth:`ResultCache.signature <repro.api.cache.ResultCache.signature>`);
the generator receives the caller's parameter overrides as given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..components.catalog import ComponentImplementation
from ..constraints import Constraints, canonical_constraints_json
from ..estimation.area import AreaEstimator, AreaRecord
from ..estimation.shape import ShapeFunction, shape_function
from ..iif import Expander, FlatComponent, IifModule, parse_module
from ..layout.generator import ComponentLayout, generate_layout
from ..logic.milo import SynthesisOptions, synthesize
from ..netlist.gates import GateNetlist
from ..netlist.structural import flatten_to_gates
from ..sizing import SizingOptions, size_for_constraints
from ..techlib import CellLibrary, standard_cells
from ..wire import fields
from .gencache import GenerationCache, SynthEntry
from .instances import ComponentInstance, TARGET_LAYOUT, TARGET_LOGIC
from .progress import checkpoint
from .tools import EMBEDDED_GENERATOR, GenerationError  # noqa: F401 - re-exported

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..structure import StructuralNetlist


def _area_record(
    netlist: GateNetlist, shape: ShapeFunction, constraints: Constraints
) -> AreaRecord:
    """The area record a request's constraints pick from the shape function.

    An explicit strip count is estimated directly; an aspect ratio picks
    the closest alternative; otherwise the minimum-area alternative.
    """
    if constraints.strips is not None:
        return AreaEstimator(netlist).estimate(constraints.strips)
    if constraints.aspect_ratio is not None:
        return shape.best_for_aspect_ratio(constraints.aspect_ratio)
    return shape.min_area()


def _field_values(options: object) -> Tuple:
    """An options record's field values, in field order (every options
    field is a scalar, so this is what ``dataclasses.astuple`` gave)."""
    return tuple(getattr(options, entry.name) for entry in fields(options))


def _flat_with_name(template: FlatComponent, name: str) -> FlatComponent:
    """A per-instance view of a cached flat-component template.

    The view owns only its name: it shares the template's lists and
    parameters, which nothing changes after expansion (synthesis builds
    a new flat), and messages about the instance quote the view's name.
    """
    if template.name == name:
        return template
    return FlatComponent(
        name=name,
        inputs=template.inputs,
        outputs=template.outputs,
        internals=template.internals,
        assigns=template.assigns,
        functions=template.functions,
        parameters=template.parameters,
    )


class EmbeddedGenerator:
    """ICDB's built-in component generator (Figure 8).

    The generator owns a :class:`~repro.core.gencache.GenerationCache`:
    expansion, synthesis, per-equation optimization and the full estimate
    bundle are memoized on canonical signatures, so cold requests --
    cache-miss traffic, ``use_cache=False``, parameter sweeps, parallel
    jobs -- reuse every stage they have in common with earlier work while
    producing byte-identical artifacts.
    """

    name = EMBEDDED_GENERATOR

    def __init__(
        self,
        cell_library: Optional[CellLibrary] = None,
        synthesis_options: Optional[SynthesisOptions] = None,
        sizing_options: Optional[SizingOptions] = None,
        generation_cache: Optional[GenerationCache] = None,
    ):
        self.cell_library = cell_library or standard_cells()
        self.synthesis_options = synthesis_options or SynthesisOptions()
        self.sizing_options = sizing_options or SizingOptions()
        #: Stage-level memo shared by every request through this generator
        #: (and hence by all sessions of a service).  Pass an explicit
        #: cache to share one across generators.
        self.generation_cache = (
            generation_cache if generation_cache is not None else GenerationCache()
        )

    # ------------------------------------------------------------ signatures

    def _synthesis_signature(self) -> Tuple:
        """Everything besides the flat component that synthesis reads.

        Derived from the options record's field table, so a future
        ``SynthesisOptions`` field is part of the key automatically
        instead of silently poisoning the cache.
        """
        return (
            _field_values(self.synthesis_options),
            self.cell_library.fingerprint(),
        )

    def _sizing_signature(self) -> Tuple:
        return _field_values(self.sizing_options)

    def expand_key(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
    ) -> Tuple:
        """The expand memo key of one catalog elaboration.

        It uses the *resolved* values (defaults applied), so requests
        spelling the same elaboration differently share one entry.
        """
        values = implementation.resolve_parameters(parameters)
        return (
            "impl",
            implementation.name,
            implementation.fingerprint(),
            tuple(sorted(values.items())),
        )

    def _flow_key(
        self, flat: FlatComponent, constraints: Constraints, cache_context: Hashable
    ) -> Tuple:
        """The flows memo key; its first item is the synth memo key."""
        return (
            (flat.signature(), self._synthesis_signature()),
            canonical_constraints_json(constraints),
            self._sizing_signature(),
            cache_context,
        )

    def stage_keys(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
        flat: Optional[FlatComponent] = None,
    ) -> Tuple[Tuple, Tuple, Tuple]:
        """The (expand, synth, flow) memo keys of one catalog generation.

        Every component is content-derived (fingerprints, resolved
        parameter values, canonical constraints JSON, re-interned
        expressions), so any process with the same catalog and cell
        library computes equal keys.  The synth and flow keys are built
        over ``flat``, the elaboration's expand entry; without one the
        memoized expansion is used (repeat calls are cheap).  A fleet
        install passes the server's own entry, so the keys it stores
        hold that entry's assignment records.
        """
        if flat is None:
            flat = self._expand_implementation(
                implementation, parameters, implementation.name
            )
        flow_key = self._flow_key(
            flat, constraints, (implementation.name, implementation.component_type)
        )
        return self.expand_key(implementation, parameters), flow_key[0], flow_key

    # --------------------------------------------------------------- pipeline

    def run_flow(
        self,
        flat: FlatComponent,
        constraints: Constraints,
        target: str = TARGET_LOGIC,
        cache_context: Hashable = (),
    ) -> Tuple[GateNetlist, object, ShapeFunction, object, Optional[ComponentLayout], int, List[str], Dict[str, object]]:
        """Run synthesis, sizing, estimation and optional layout on a flat
        component; returns the artifacts needed to build an instance, plus
        the render cache shared by every instance of the same flow entry.

        Every stage boundary is a cooperative
        :func:`~repro.core.progress.checkpoint`: a job scheduler observes
        them for progress events, and a cancelled job unwinds here --
        before anything is registered or written -- leaving no state (a
        stage memo entry recorded before the cancellation point is pure
        recomputable work, not client-visible state).

        ``cache_context`` disambiguates flow entries whose *presentation*
        differs even though the flat structure matches (the implementation
        name and component type end up in shared summary fragments).
        """
        cache = self.generation_cache
        checkpoint("synthesize", 0.10)
        flow_key = self._flow_key(flat, constraints, cache_context)
        synth_key = flow_key[0]
        flow = cache.flows.lookup(flow_key)
        if flow is not None:
            netlist, report, shape, area_record, iterations, violations, renders = flow
            checkpoint("size", 0.45)
            checkpoint("estimate", 0.70)
            layout = self._layout_for_target(
                netlist, constraints, area_record, target, name=flat.name
            )
            return (
                netlist,
                report,
                shape,
                area_record,
                layout,
                iterations,
                list(violations),
                renders,
            )
        synthesized = cache.synth.lookup(synth_key)
        if synthesized is None:
            synthesized = SynthEntry(
                synthesize(
                    flat,
                    self.cell_library,
                    self.synthesis_options,
                    optimize_cache=cache.optimize,
                )
            )
            cache.synth.store(synth_key, synthesized)
        checkpoint("size", 0.45)
        # Copy on write: the synthesized netlist is the synth memo's
        # template, shared as is, with its one shape function, by every
        # flow that leaves it at unit drive.
        sizing = size_for_constraints(
            synthesized.netlist, constraints, self.sizing_options, in_place=False
        )
        netlist = sizing.netlist
        report = sizing.report
        checkpoint("estimate", 0.70)
        if netlist is not synthesized.netlist:
            shape = shape_function(netlist)
        else:
            shape = synthesized.shape
            if shape is None:
                shape = synthesized.share(shape_function(netlist))
        area_record = _area_record(netlist, shape, constraints)
        violations = report.violations(constraints)
        renders: Dict[str, object] = {}
        cache.flows.store(
            flow_key,
            (
                netlist,
                report,
                shape,
                area_record,
                sizing.iterations,
                tuple(violations),
                renders,
            ),
        )
        layout = self._layout_for_target(
            netlist, constraints, area_record, target, name=flat.name
        )
        return netlist, report, shape, area_record, layout, sizing.iterations, violations, renders

    def _layout_for_target(
        self,
        netlist: GateNetlist,
        constraints: Constraints,
        area_record,
        target: str,
        name: Optional[str] = None,
    ) -> Optional[ComponentLayout]:
        """Layouts are per-instance (never memoized): generated on demand,
        labelled with the owning instance's name even when the netlist
        object is a shared flow-cache template."""
        if target != TARGET_LAYOUT:
            return None
        return generate_layout(
            netlist,
            strips=constraints.strips or area_record.strips,
            port_positions=constraints.port_positions,
            name=name,
        )

    # ----------------------------------------------------------- front doors

    def _expand_implementation(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        name: str,
    ) -> FlatComponent:
        """Catalog expansion, memoized per (implementation, resolved values)."""
        cache = self.generation_cache
        # The key uses the resolved values; the expansion itself gets the
        # caller's overrides untouched -- resolve_parameters validates
        # overrides strictly, and re-feeding it its own output would
        # reject implementations whose defaults carry keys the top module
        # does not declare.
        key = self.expand_key(implementation, parameters)
        template = cache.expand.lookup(key)
        if template is None:
            template = implementation.expand(parameters, name=name)
            cache.expand.store(key, template)
        return _flat_with_name(template, name)

    def _expand_iif(
        self,
        iif_source: str,
        parameters: Optional[Mapping[str, int]],
        name: str,
    ) -> Tuple[IifModule, FlatComponent]:
        """IIF-source expansion, memoized per (source text, parameters)."""
        cache = self.generation_cache
        key = (
            "iif",
            iif_source,
            tuple(sorted((k, int(v)) for k, v in (parameters or {}).items())),
        )
        cached = cache.expand.lookup(key)
        if cached is not None:
            module, template = cached
            return module, _flat_with_name(template, name)
        module = parse_module(iif_source)
        flat = Expander().expand(module, parameters or {}, name=name)
        cache.expand.store(key, (module, flat))
        return module, flat

    # ------------------------------------------------------------- front ends

    def _generate(
        self,
        flat: FlatComponent,
        constraints: Constraints,
        target: str,
        *,
        implementation: str,
        component_type: str,
        functions: Sequence[str],
        connection_info: str,
    ) -> ComponentInstance:
        """Run the flow on an expanded component; build the instance it names.

        ``implementation`` and ``component_type`` label the instance and
        are the flow's ``cache_context``.
        """
        netlist, report, shape, area_record, layout, iterations, violations, renders = self.run_flow(
            flat,
            constraints,
            target,
            cache_context=(implementation, component_type),
        )
        return ComponentInstance(
            name=flat.name,
            implementation=implementation,
            component_type=component_type,
            parameters=dict(flat.parameters),
            functions=list(functions),
            constraints=constraints,
            flat=flat,
            netlist=netlist,
            delay_report=report,
            shape=shape,
            area_record=area_record,
            connection_info=connection_info,
            target=target,
            layout=layout,
            constraint_violations=violations,
            sizing_iterations=iterations,
            render_cache=renders,
        )

    def generate_from_implementation(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
        instance_name: str,
        target: str = TARGET_LOGIC,
    ) -> ComponentInstance:
        """Generate an instance from a catalog implementation.

        Warming (a ``warm_cache`` entry, a fleet child's bundle) calls
        this too and drops the instance: the stage memos keep the work.
        """
        return self._generate(
            self._expand_implementation(implementation, parameters, instance_name),
            constraints,
            target,
            implementation=implementation.name,
            component_type=implementation.component_type,
            functions=implementation.functions,
            connection_info=implementation.connection_info(),
        )

    def generate_from_iif(
        self,
        iif_source: str,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
        instance_name: str,
        target: str = TARGET_LOGIC,
        functions: Sequence[str] = (),
    ) -> ComponentInstance:
        """Generate an instance directly from an IIF description.

        This is the path control-logic generation uses (Section 3.2.2): the
        control synthesis tool emits boolean equations and registers in IIF
        and asks ICDB for the component.  The description defines every
        sub-function it calls, so its expansion is memoized per (source
        text, parameters).
        """
        module, flat = self._expand_iif(iif_source, parameters, instance_name)
        return self._generate(
            flat,
            constraints,
            target,
            implementation=module.name,
            component_type="Custom",
            functions=functions or module.functions,
            connection_info="",
        )

    def generate_from_structure(
        self,
        structure: StructuralNetlist,
        resolver: Callable,
        constraints: Constraints,
        instance_name: str,
        target: str = TARGET_LOGIC,
    ) -> ComponentInstance:
        """Generate an instance for a cluster of existing ICDB instances.

        ``resolver`` maps a :class:`ComponentRef` to the gate netlist of the
        referenced instance; the cluster is flattened and re-estimated as a
        whole (the partitioner / floorplanner use this to evaluate
        clusterings, Section 6.3 of Appendix B).
        """
        checkpoint("flatten", 0.10)
        merged = flatten_to_gates(structure, resolver)
        merged.name = instance_name
        flat = FlatComponent(
            name=instance_name,
            inputs=list(structure.inputs),
            outputs=list(structure.outputs),
        )
        checkpoint("size", 0.45)
        sizing = size_for_constraints(merged, constraints, self.sizing_options)
        report = sizing.report
        checkpoint("estimate", 0.70)
        shape = shape_function(merged)
        area_record = _area_record(merged, shape, constraints)
        return ComponentInstance(
            name=instance_name,
            implementation=structure.name,
            component_type="Cluster",
            parameters={},
            functions=[],
            constraints=constraints,
            flat=flat,
            netlist=merged,
            delay_report=report,
            shape=shape,
            area_record=area_record,
            connection_info="",
            target=target,
            layout=self._layout_for_target(merged, constraints, area_record, target),
            constraint_violations=report.violations(constraints),
            sizing_iterations=sizing.iterations,
        )
