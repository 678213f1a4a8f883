"""Canonical-signature result cache for catalog-based component requests.

Section 2.2 of the paper keeps generated instances around "so they can be
queried, refined and reused instead of regenerated".  The service layer
takes that one step further: a catalog-based ``request_component`` whose
implementation, parameters, constraints and target match an earlier
generation reuses the synthesized netlist and estimates under a fresh
instance name instead of re-running logic synthesis, sizing and
estimation -- the hot path of every datapath builder that instantiates the
same register or multiplexer dozens of times.

The cache key is :meth:`ResultCache.signature`, the one identity of a
catalog elaboration (implementation, resolved parameter values, canonical
constraints JSON, target): two spellings of one elaboration -- a default
size left out or given as an attribute -- share one entry, and the
planner's duplicate prune and the fleet dispatcher key on the same tuple.
Entries are detached snapshot instances (never registered with any
design), so later mutations of served instances -- a ``request_layout``, a
transaction delete -- cannot corrupt the template.  All operations are
lock-protected: sessions of one service share a single cache concurrently.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Hashable, Mapping, Optional, Tuple

from ..constraints import (
    Constraints,
    DEFAULT_CONSTRAINTS,
    canonical_constraints_json,
)
from ..core.gencache import CountedLruCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..components.catalog import ComponentImplementation
    from ..core.instances import ComponentInstance

__all__ = ["DEFAULT_CONSTRAINTS", "ResultCache", "clone_instance"]


def clone_instance(
    template: ComponentInstance, name: str, design: str = ""
) -> ComponentInstance:
    """A fresh instance sharing the template's synthesized artifacts.

    The flat IIF, gate netlist, delay report, shape function, area record
    and render cache are immutable (or append-only) once generated and are
    shared via a shallow copy; everything a later operation may mutate
    (parameter / function / violation lists, the files map) is replaced
    with a private copy.
    """
    clone = copy.copy(template)
    clone.name = name
    clone.parameters = dict(template.parameters)
    clone.functions = list(template.functions)
    clone.constraint_violations = list(template.constraint_violations)
    clone.files = {}
    clone.design = design
    clone.cached = True
    return clone


class ResultCache(CountedLruCache):
    """LRU cache from canonical request signatures to snapshot instances.

    The LRU behaviour and the counter accounting (``hits + misses ==
    lookups``, ``entries == stores - evictions``; a generation cancelled
    before its store leaves no counter or entry behind) live in the shared
    :class:`~repro.core.gencache.CountedLruCache` base, which the
    generation cache's stage caches use too.  This subclass adds the
    elaboration identity and snapshot-on-store semantics.
    """

    @staticmethod
    def signature(
        implementation: ComponentImplementation,
        overrides: Optional[Mapping[str, int]],
        constraints: Constraints,
        target: str,
    ) -> Tuple[str, Tuple[Tuple[str, int], ...], str, str]:
        """The identity of one catalog elaboration.

        It keys the *resolved* parameter values (the implementation's
        defaults with ``overrides`` applied), so every spelling of one
        elaboration has one signature.  Raises
        :class:`~repro.components.catalog.CatalogError` for an override
        the implementation does not declare.
        """
        return (
            implementation.name,
            tuple(sorted(implementation.resolve_parameters(overrides).items())),
            canonical_constraints_json(constraints),
            target,
        )

    def store(self, key: Hashable, instance: ComponentInstance) -> None:
        """Snapshot ``instance`` (a detached clone) as the template for ``key``."""
        super().store(key, clone_instance(instance, instance.name))
