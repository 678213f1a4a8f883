"""Component generation manager and tool management (Section 4.2 / 4.3).

A *component generator* is an ordered list of tool steps: step 1 produces
delay and shape-function estimates from a design description, step 2
generates the layout.  ICDB's embedded generator runs the full path of
Figure 8 -- IIF expansion, MILO-like logic synthesis and technology
mapping, transistor sizing, delay / area estimation and (on request) strip
layout generation.  Additional generators can be registered through the
tool manager, exactly as the paper inserts external tools via shell
scripts.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..components.catalog import ComponentImplementation, FunctionBinding
from ..constraints import Constraints, canonical_constraints_json
from ..estimation.area import AreaEstimator, AreaRecord
from ..estimation.delay import estimate_delay
from ..estimation.shape import ShapeFunction, shape_function
from ..iif import FlatComponent, IifModule, flat_to_milo, parse_module
from ..layout.generator import ComponentLayout, generate_layout
from ..logic.milo import SynthesisOptions, synthesize
from ..netlist.gates import GateNetlist
from ..netlist.structural import StructuralNetlist, flatten_to_gates
from ..sizing import SizingOptions, size_for_constraints
from ..techlib import CellLibrary, standard_cells
from .gencache import GenerationCache
from .instances import ComponentInstance, TARGET_LAYOUT, TARGET_LOGIC
from .progress import checkpoint


class GenerationError(RuntimeError):
    """Raised when a component cannot be generated."""


@dataclass
class ToolDescription:
    """One registered tool: a named callable with a step classification."""

    name: str
    step: str  # "estimate" or "layout"
    description: str = ""
    runner: Optional[Callable] = None


@dataclass
class GeneratorDescription:
    """A component generator: an ordered list of (step number, tool name)."""

    name: str
    input_format: str
    steps: Tuple[Tuple[int, str], ...]
    description: str = ""


class ToolManager:
    """Registry of tools and component generators (Section 4.2)."""

    def __init__(self) -> None:
        self._tools: Dict[str, ToolDescription] = {}
        self._generators: Dict[str, GeneratorDescription] = {}

    def register_tool(
        self,
        name: str,
        step: str,
        runner: Optional[Callable] = None,
        description: str = "",
    ) -> ToolDescription:
        tool = ToolDescription(name=name, step=step, description=description, runner=runner)
        self._tools[name] = tool
        return tool

    def register_generator(
        self,
        name: str,
        input_format: str,
        steps: Sequence[Tuple[int, str]],
        description: str = "",
    ) -> GeneratorDescription:
        for _, tool_name in steps:
            if tool_name not in self._tools:
                raise GenerationError(
                    f"generator {name!r} references unknown tool {tool_name!r}; "
                    "a tool which does not belong to any component generator will "
                    "never be used"
                )
        generator = GeneratorDescription(
            name=name,
            input_format=input_format,
            steps=tuple(sorted(steps)),
            description=description,
        )
        self._generators[name] = generator
        return generator

    def tools(self) -> List[ToolDescription]:
        return list(self._tools.values())

    def generators(self) -> List[GeneratorDescription]:
        return list(self._generators.values())

    def generator_for_format(self, input_format: str) -> Optional[GeneratorDescription]:
        for generator in self._generators.values():
            if generator.input_format == input_format:
                return generator
        return None

    def unused_tools(self) -> List[str]:
        """Tools not referenced by any generator (never used by ICDB)."""
        used = {tool for gen in self._generators.values() for _, tool in gen.steps}
        return [name for name in self._tools if name not in used]


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


def _flat_with_name(template: FlatComponent, name: str) -> FlatComponent:
    """A light per-instance view of a cached flat-component template.

    The assignment objects (and their interned expressions) are shared;
    only the name and the mutable top-level lists are private.
    """
    if template.name == name:
        return template
    return FlatComponent(
        name=name,
        inputs=list(template.inputs),
        outputs=list(template.outputs),
        internals=list(template.internals),
        assigns=list(template.assigns),
        functions=list(template.functions),
        parameters=dict(template.parameters),
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

    name = "icdb_embedded_generator"

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

        Derived from the options dataclass itself, so a future
        ``SynthesisOptions`` field is part of the key automatically
        instead of silently poisoning the cache.
        """
        return (
            astuple(self.synthesis_options),
            self.cell_library.fingerprint(),
        )

    def _sizing_signature(self) -> Tuple:
        return astuple(self.sizing_options)

    @staticmethod
    def _constraints_signature(constraints: Constraints) -> str:
        return canonical_constraints_json(constraints)

    def stage_keys(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
    ) -> Tuple[Tuple, Tuple, Tuple]:
        """The (expand, synth, flow) memo keys of one catalog generation.

        This is the contract the fleet rides on: a worker process with the
        same catalog and cell library computes byte-identical keys (every
        component is content-derived -- fingerprints, resolved parameter
        values, canonical constraints JSON, re-interned expressions), so
        stage entries it ships install under exactly the keys the server's
        own :meth:`run_flow` will look up.  Computing the synth key
        requires the expansion, which is memoized; repeat calls are cheap.
        """
        values = implementation.resolve_parameters(parameters)
        expand_key = (
            "impl",
            implementation.name,
            implementation.fingerprint(),
            tuple(sorted(values.items())),
        )
        flat = self._expand_implementation(
            implementation, parameters, implementation.name
        )
        synth_key = (flat.signature(), self._synthesis_signature())
        flow_key = (
            synth_key,
            self._constraints_signature(constraints),
            self._sizing_signature(),
            (implementation.name, implementation.component_type),
        )
        return expand_key, synth_key, flow_key

    def prewarm_signature(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
    ) -> Tuple:
        """An expansion-free proxy for :meth:`stage_keys`' flow key.

        Equal proxies guarantee equal flow keys: the flow key is a
        deterministic function of exactly these inputs (expansion and
        synthesis are pure).  The fleet dispatcher keys its warm-skip
        and coalescing maps on this, so routing work to a worker never
        costs the server a full expansion of its own.
        """
        values = implementation.resolve_parameters(parameters)
        return (
            "prewarm",
            implementation.name,
            implementation.fingerprint(),
            tuple(sorted(values.items())),
            self._constraints_signature(constraints),
            self._sizing_signature(),
            self._synthesis_signature(),
        )

    def warm_implementation(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
        name: Optional[str] = None,
    ) -> None:
        """Prime the stage memo for one catalog elaboration.

        Runs expansion, synthesis, sizing and estimation through the
        normal memoized pipeline *without* building or registering an
        instance: afterwards the expand / synth / optimize / flows
        stages hold everything a later ``request_component`` with the
        same signature needs.  Layouts are per-instance and never
        memoized, so no layout is generated.

        ``name`` labels the synthesized template exactly the way a cold
        in-process generation for that instance would, so warmed results
        are byte-identical to unwarmed ones (flow-cache templates keep
        their creator's name; the creator should be the real requester,
        not the warmer).
        """
        flat = self._expand_implementation(
            implementation, parameters, name or implementation.name
        )
        self.run_flow(
            flat,
            constraints,
            TARGET_LOGIC,
            cache_context=(implementation.name, implementation.component_type),
        )

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
        synth_key = (flat.signature(), self._synthesis_signature())
        flow_key = (
            synth_key,
            self._constraints_signature(constraints),
            self._sizing_signature(),
            cache_context,
        )
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
        netlist = cache.synth.lookup(synth_key)
        if netlist is None:
            netlist = synthesize(
                flat,
                self.cell_library,
                self.synthesis_options,
                optimize_cache=cache.optimize,
            )
            cache.synth.store(synth_key, netlist)
        checkpoint("size", 0.45)
        # Copy on write: the synthesized netlist is the synth memo's
        # template, shared as is by every flow that leaves it at unit drive.
        sizing = size_for_constraints(
            netlist, constraints, self.sizing_options, in_place=False
        )
        netlist = sizing.netlist
        report = sizing.report
        checkpoint("estimate", 0.70)
        shape = shape_function(netlist)
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
        # The key uses the *resolved* values (defaults applied) so requests
        # spelling the same elaboration differently share one entry; the
        # expansion itself gets the caller's overrides untouched --
        # resolve_parameters validates overrides strictly, and re-feeding
        # it its own output would reject implementations whose defaults
        # carry keys the top module does not declare.
        values = implementation.resolve_parameters(parameters)
        key = (
            "impl",
            implementation.name,
            implementation.fingerprint(),
            tuple(sorted(values.items())),
        )
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
        subfunction_library: Optional[Mapping[str, IifModule]],
    ) -> Tuple[IifModule, FlatComponent]:
        """IIF-source expansion, memoized per (source text, parameters).

        Requests carrying an ad-hoc sub-function library are not memoized:
        the library is part of the expansion's meaning but has no stable
        identity to key on.
        """
        from ..iif import Expander

        cache = self.generation_cache
        key = None
        if not subfunction_library:
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
        expander = Expander(subfunction_library)
        flat = expander.expand(module, parameters or {}, name=name)
        if key is not None:
            cache.expand.store(key, (module, flat))
        return module, flat

    # ------------------------------------------------------------- front ends

    def generate_from_implementation(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
        instance_name: str,
        target: str = TARGET_LOGIC,
    ) -> ComponentInstance:
        """Generate an instance from a catalog implementation."""
        flat = self._expand_implementation(implementation, parameters, instance_name)
        netlist, report, shape, area_record, layout, iterations, violations, renders = self.run_flow(
            flat,
            constraints,
            target,
            cache_context=(implementation.name, implementation.component_type),
        )
        return ComponentInstance(
            name=instance_name,
            implementation=implementation.name,
            component_type=implementation.component_type,
            parameters=dict(flat.parameters),
            functions=list(implementation.functions),
            constraints=constraints,
            flat=flat,
            netlist=netlist,
            delay_report=report,
            shape=shape,
            area_record=area_record,
            connection_info=implementation.connection_info(),
            target=target,
            layout=layout,
            constraint_violations=violations,
            sizing_iterations=iterations,
            render_cache=renders,
        )

    def generate_from_iif(
        self,
        iif_source: str,
        parameters: Optional[Mapping[str, int]],
        constraints: Constraints,
        instance_name: str,
        target: str = TARGET_LOGIC,
        functions: Sequence[str] = (),
        subfunction_library: Optional[Mapping[str, IifModule]] = None,
    ) -> ComponentInstance:
        """Generate an instance directly from an IIF description.

        This is the path control-logic generation uses (Section 3.2.2): the
        control synthesis tool emits boolean equations and registers in IIF
        and asks ICDB for the component.
        """
        module, flat = self._expand_iif(
            iif_source, parameters, instance_name, subfunction_library
        )
        netlist, report, shape, area_record, layout, iterations, violations, renders = self.run_flow(
            flat,
            constraints,
            target,
            cache_context=(module.name, "Custom"),
        )
        return ComponentInstance(
            name=instance_name,
            implementation=module.name,
            component_type="Custom",
            parameters=dict(flat.parameters),
            functions=list(functions) or list(module.functions),
            constraints=constraints,
            flat=flat,
            netlist=netlist,
            delay_report=report,
            shape=shape,
            area_record=area_record,
            connection_info="",
            target=target,
            layout=layout,
            constraint_violations=violations,
            sizing_iterations=iterations,
            render_cache=renders,
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
        layout = None
        if target == TARGET_LAYOUT:
            layout = generate_layout(
                merged,
                strips=constraints.strips or area_record.strips,
                port_positions=constraints.port_positions,
            )
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
            layout=layout,
            constraint_violations=report.violations(constraints),
            sizing_iterations=sizing.iterations,
        )


def default_tool_manager() -> ToolManager:
    """Tool manager pre-loaded with the embedded generator's tool steps."""
    manager = ToolManager()
    manager.register_tool("iif_expander", "estimate", description="IIF macro expansion")
    manager.register_tool("milo", "estimate", description="logic optimization and technology mapping")
    manager.register_tool("tilos_sizer", "estimate", description="transistor sizing")
    manager.register_tool("delay_estimator", "estimate", description="X/Y/Z path delay estimation")
    manager.register_tool("area_estimator", "estimate", description="strip width / track estimation")
    manager.register_tool("les_layout", "layout", description="strip layout generation")
    manager.register_tool("cif_writer", "layout", description="CIF emission")
    manager.register_generator(
        EmbeddedGenerator.name,
        input_format="iif",
        steps=(
            (1, "iif_expander"),
            (1, "milo"),
            (1, "tilos_sizer"),
            (1, "delay_estimator"),
            (1, "area_estimator"),
            (2, "les_layout"),
            (2, "cif_writer"),
        ),
        description="ICDB embedded component generation path (Figure 8)",
    )
    return manager
