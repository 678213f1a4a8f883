"""Stage-cache bundles: how generation work travels between fleet processes.

A bundle is what a worker child computed for one catalog elaboration:
the expanded flat component and the synthesized netlist (each pickled on
its own inside the bundle) and the flow's results, with the sized
netlist reduced to the sizes the sizer gave its gates.  The server
merges the bundle into its own
:class:`~repro.core.gencache.GenerationCache` and then replays the
original request locally as a warm hit.

The merge makes a fleet-generated design cost the server what a local
one does.  The server computes the memo keys itself, over its own
expand entry; it keeps the expand and synth entries it already holds
(their copies in the bundle are not even unpickled); it rebuilds a sized
flow as a ``clone()`` of its synth netlist with the shipped sizes, as
local sizing builds it (sizing only resizes gates); and it installs an
unsized flow onto its synth netlist and that netlist's one shape
function.  Names unpickle through reconstructors that pass them through
:func:`~repro.logic.expr.shared_name`, and expression nodes re-intern,
so an installed design holds the server's one object per name and per
expression.  Standard cells pickle as references that resolve to the
receiver's own objects, and the bundle carries the child's cell-library
fingerprint, checked before anything is unpickled or stored.

Pickle is only safe among mutually trusting processes; a bundle is a
code-execution vector.  Bundles therefore travel only over the pipes
between a server and the worker children it spawned itself
(:mod:`repro.fleet.dispatcher`): no request kind carries or returns one.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

from ..components.catalog import ComponentImplementation
from ..constraints import Constraints
from ..core.gencache import SynthEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.generation import EmbeddedGenerator
    from ..estimation.area import AreaRecord
    from ..estimation.shape import ShapeFunction
    from ..netlist.gates import GateNetlist

__all__ = ["BUNDLE_STAGES", "compute_bundle", "install_bundle"]

#: The stages a bundle fills, in install order.  ``optimize`` entries
#: stay local: they are keyed per equation and already folded into the
#: shipped synthesis result.
BUNDLE_STAGES = ("expand", "synth", "flows")


def compute_bundle(
    generator: EmbeddedGenerator,
    implementation: ComponentImplementation,
    parameters: Optional[Mapping[str, int]],
    constraints: Optional[Constraints],
    name: Optional[str] = None,
) -> bytes:
    """Run one elaboration to warmth and pickle what the install reads.

    The elaboration is generated as an instance named ``name`` (the
    implementation's name without one) and the instance dropped: the
    stage memos keep the work.  ``name`` labels the synthesized template
    the way the eventual requester would (flow templates keep their
    creator's name), which is what makes warmed results byte-identical to
    unwarmed ones.
    """
    cache = generator.generation_cache
    constraints = constraints if constraints is not None else Constraints()
    keys = generator.stage_keys(implementation, parameters, constraints)
    generator.generate_from_implementation(
        implementation, parameters, constraints, name or implementation.name
    )
    flat, synthesized, flow = (
        cache.stage(stage).peek(key) for stage, key in zip(BUNDLE_STAGES, keys)
    )
    if flat is None or synthesized is None or flow is None:
        # An earlier task's flow hit outlived its synth entry; the server
        # generates this one itself.
        raise LookupError(f"{implementation.name}: stage entries evicted before packing")
    netlist = synthesized.netlist
    sized, report, shape, area_record, iterations, violations, _renders = flow
    sizes = None
    if sized is not netlist:
        sizes = tuple(
            (gate.name, gate.size)
            for gate in sized.instances.values()
            if gate.size != netlist.instances[gate.name].size
        )
    dump = pickle.dumps
    return dump(
        (
            generator.cell_library.fingerprint(),
            dump(flat, protocol=pickle.HIGHEST_PROTOCOL),
            dump(netlist, protocol=pickle.HIGHEST_PROTOCOL),
            (sizes, report, shape, area_record, iterations, violations),
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def install_bundle(
    generator: EmbeddedGenerator,
    bundle: bytes,
    implementation: ComponentImplementation,
    parameters: Optional[Mapping[str, int]],
    constraints: Optional[Constraints],
) -> int:
    """Merge a bundle of this elaboration into the memo; the entries stored.

    First-writer-wins: an entry whose key is already present is kept, so
    a bundle arriving after a local generation (or another worker's
    bundle) raced it never replaces a template other instances may
    already share.  Presence probes use
    :meth:`~repro.core.gencache.CountedLruCache.peek`, so installs do not
    distort the hit/miss accounting.  Raises
    :class:`~repro.techlib.cells.CellLibraryError` -- before storing
    anything -- when the bundle was computed on another cell library.
    """
    # Loaded with the generator; not at import, which a server does at boot.
    from ..techlib.cells import CellLibraryError

    fingerprint, flat_pickle, netlist_pickle, flow = pickle.loads(bundle)
    library = generator.cell_library
    if fingerprint != library.fingerprint():
        raise CellLibraryError(
            f"bundle computed on cell library {fingerprint:#x}, not this "
            f"process's {library.name!r} ({library.fingerprint():#x})"
        )
    cache = generator.generation_cache
    constraints = constraints if constraints is not None else Constraints()
    expand_key = generator.expand_key(implementation, parameters)
    new_flat = new_synthesized = new_flow = None
    flat = cache.expand.peek(expand_key)
    if flat is None:
        flat = new_flat = pickle.loads(flat_pickle)
    _, synth_key, flow_key = generator.stage_keys(
        implementation, parameters, constraints, flat=flat
    )
    synthesized = cache.synth.peek(synth_key)
    if synthesized is None:
        synthesized = new_synthesized = SynthEntry(pickle.loads(netlist_pickle))
    if cache.flows.peek(flow_key) is None:
        sizes, report, shape, area_record, iterations, violations = flow
        if sizes is not None:
            netlist = _sized(synthesized.netlist, sizes)
        else:
            netlist, shipped = synthesized.netlist, shape
            shape = synthesized.share(shipped)
            area_record = _alternative_of(shape, shipped, area_record)
        new_flow = (netlist, report, shape, area_record, iterations, violations, {})
    installed = 0
    for store, key, value in (
        (cache.expand, expand_key, new_flat),
        (cache.synth, synth_key, new_synthesized),
        (cache.flows, flow_key, new_flow),
    ):
        if value is not None and store.peek(key) is None:
            store.store(key, value)
            installed += 1
    return installed


def _sized(netlist: GateNetlist, sizes: Sequence[Tuple[str, float]]) -> GateNetlist:
    """The clone ``size_for_constraints(in_place=False)`` sized, rebuilt
    from the synthesized netlist and the gates it resized."""
    sized = netlist.clone()
    for name, size in sizes:
        sized.instance(name).size = size
    return sized


def _alternative_of(
    shape: ShapeFunction, shipped: ShapeFunction, record: AreaRecord
) -> AreaRecord:
    """``record`` as ``shape`` holds it, when it is one of the shipped
    shape's alternatives (the two shapes list equal records in one order);
    a record estimated on its own (an explicit strip count) as shipped."""
    for mine, theirs in zip(shape.alternatives, shipped.alternatives):
        if theirs is record:
            return mine
    return record
