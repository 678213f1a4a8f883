"""Stage-cache bundles: how generation work travels between fleet processes.

A bundle is the pickled expand / synth / flows memo entries of exactly
one catalog elaboration.  A worker child computes one by running the
elaboration through its own
:class:`~repro.core.gencache.GenerationCache`; the server installs it and
then replays the original request locally as a warm hit.  The expression
IR re-interns on unpickling (every node type defines ``__reduce__`` in
terms of the hash-consing constructors), and the standard cell library
and its cells pickle as references -- ``(library fingerprint, cell
name)`` -- that resolve to the receiver's own objects, so an unpickled
netlist is indistinguishable from a locally synthesized one, and the
keys -- built from content fingerprints, canonical constraints JSON and
structural signatures -- match bit-for-bit across processes.  A
reference whose fingerprint differs from the receiver's standard library
fails the whole install.

Pickle is only safe among mutually trusting processes; a bundle is a
code-execution vector.  Bundles therefore travel only over the pipes
between a server and the worker children it spawned itself
(:mod:`repro.fleet.dispatcher`): no request kind carries or returns one.
"""

from __future__ import annotations

import pickle
from typing import Mapping, Optional

from ..components.catalog import ComponentImplementation
from ..constraints import Constraints
from ..core.generation import EmbeddedGenerator

__all__ = ["BUNDLE_STAGES", "compute_bundle", "install_bundle"]

#: The stages a bundle may carry, in install order.  ``optimize`` entries
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
    """Run one elaboration to warmth and pickle its stage entries.

    ``name`` labels the synthesized template the way the eventual
    requester would (flow templates keep their creator's name), which is
    what makes warmed results byte-identical to unwarmed ones.
    """
    cache = generator.generation_cache
    constraints = constraints if constraints is not None else Constraints()
    keys = generator.stage_keys(implementation, parameters, constraints)
    generator.warm_implementation(implementation, parameters, constraints, name=name)
    entries = []
    for stage, key in zip(BUNDLE_STAGES, keys):
        value = cache.stage(stage).peek(key)
        if value is not None:
            entries.append((stage, key, value))
    return pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)


def install_bundle(generator: EmbeddedGenerator, bundle: bytes) -> int:
    """Install a bundle's stage entries; the number actually stored.

    First-writer-wins: an entry whose key is already present is skipped,
    so a bundle arriving after a local generation (or another worker's
    bundle) raced it never replaces a template other instances may
    already share.  Skipping uses :meth:`~repro.core.gencache.CountedLruCache.peek`,
    so installs do not distort the hit/miss accounting.  Raises
    :class:`~repro.techlib.cells.CellLibraryError` -- before storing
    anything -- when the bundle was mapped onto another standard library.
    """
    cache = generator.generation_cache
    installed = 0
    for stage, key, value in pickle.loads(bundle):
        if stage not in BUNDLE_STAGES:
            continue
        store = cache.stage(stage)
        if store.peek(key) is None:
            store.store(key, value)
            installed += 1
    return installed
