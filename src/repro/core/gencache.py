"""Stage-level memoization for the cold component-generation path.

PRs 1-3 made *cached* requests fast: an identical catalog signature is
served from the instance-level :class:`~repro.api.cache.ResultCache`.
Everything else -- first-time requests, ``use_cache=False`` traffic,
parameter sweeps, custom IIF -- re-ran the full Figure-8 flow.  This
module memoizes the flow *stage by stage* on canonical signatures over the
hash-consed expression IR, so requests that are not instance-identical
still share whatever work they have in common:

* **expand** -- elaborated :class:`~repro.iif.flat.FlatComponent`
  templates per (implementation | IIF source, resolved parameters);
* **synth** -- synthesized / technology-mapped
  :class:`~repro.netlist.gates.GateNetlist` templates per (flat structural
  signature, :class:`~repro.logic.milo.SynthesisOptions`, cell-library
  fingerprint) -- constraints do not matter to synthesis, so a parameter
  sweep over clock widths synthesizes once -- each with the shape
  function of the unit-drive netlist (a :class:`SynthEntry`);
* **flows** -- sized netlist + delay report + shape function + area record
  per (synthesis signature, constraints, sizing options, catalog
  identity): the full estimate bundle of one cold generation.  A flow the
  sizer leaves at unit drive holds its synth entry's netlist and shape;
* **optimize** -- per-equation minimize/factor results keyed by the
  *canonical form* of the equation (support renamed to position-stable
  placeholders), which is how the n regular bit slices of a counter or
  datapath component optimize one representative bit and reuse it for the
  rest.

Every stage is a bounded, thread-safe LRU with the same accounting
invariants as the PR-1 result cache (``hits + misses == lookups``,
``entries == stores - evictions``); :class:`~repro.api.cache.ResultCache`
now shares the implementation.  Entries are pure functions of their keys,
so there is no invalidation protocol: a bound eviction or a same-key
overwrite (two threads racing the same cold generation) only ever drops
work that can be recomputed byte-identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

__all__ = ["CountedLruCache", "GenerationCache", "SynthEntry"]


class SynthEntry:
    """A ``synth`` memo value: the synthesized netlist, which stays at
    unit drive, and its shape function once a flow that leaves the
    netlist at unit drive has computed it (``None`` until then).

    Every such flow shares both, and they are evicted together.
    """

    __slots__ = ("netlist", "shape")

    #: Serializes :meth:`share` (two flows may finish estimating at once).
    _sharing = threading.Lock()

    def __init__(self, netlist: Any):
        self.netlist = netlist
        self.shape = None

    def share(self, shape: Any) -> Any:
        """The entry's shape function: ``shape`` unless another flow
        stored one first."""
        with SynthEntry._sharing:
            if self.shape is None:
                self.shape = shape
            return self.shape


class CountedLruCache:
    """A bounded LRU map with consistent hit/miss/store/eviction accounting.

    All counter movements happen under the cache lock together with the
    entry-map mutation they describe, so at any instant::

        hits + misses == lookups
        entries == stores - evictions

    (a same-key overwrite counts as one store plus one eviction).  These
    are the invariants the concurrency stress suite asserts.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.lookups = 0
        self.stores = 0
        self.evictions = 0

    def lookup(self, key: Hashable) -> Optional[Any]:
        """The value for ``key`` (LRU-refreshed), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            self.lookups += 1
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """The value for ``key`` without touching counters or LRU order.

        Presence probes (packing and installing fleet bundles) must not
        distort the hit/miss accounting the stress suite and the
        observability surface rely on.
        """
        with self._lock:
            return self._entries.get(key)

    def store(self, key: Hashable, value: Any) -> None:
        """Record ``key`` -> ``value``, evicting beyond the bound."""
        with self._lock:
            if key in self._entries:
                self.evictions += 1  # same-key overwrite replaces an entry
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.lookups = 0
            self.stores = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the counters (taken under the lock)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "lookups": self.lookups,
                "stores": self.stores,
                "evictions": self.evictions,
            }


class GenerationCache:
    """The stage-level memo of one :class:`~repro.core.generation.EmbeddedGenerator`.

    Stage caches are public attributes (``expand``, ``synth``, ``flows``,
    ``optimize``), each a :class:`CountedLruCache`; the keys are built by
    the generator and the MILO flow.  One generation cache is shared by
    every session of a service, so cold requests share work across
    sessions and across the PR-3 job worker pool.
    """

    STAGES = ("expand", "synth", "flows", "optimize")

    def __init__(
        self,
        max_expansions: int = 128,
        max_netlists: int = 128,
        max_flows: int = 256,
        max_optimized: int = 2048,
    ):
        self.expand = CountedLruCache(max_expansions)
        self.synth = CountedLruCache(max_netlists)
        self.flows = CountedLruCache(max_flows)
        self.optimize = CountedLruCache(max_optimized)

    def stage(self, name: str) -> CountedLruCache:
        if name not in self.STAGES:
            raise KeyError(f"unknown generation cache stage {name!r}")
        return getattr(self, name)

    def clear(self) -> None:
        for name in self.STAGES:
            self.stage(name).clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counter snapshots plus an aggregate ``total`` entry."""
        out: Dict[str, Dict[str, int]] = {
            name: self.stage(name).stats() for name in self.STAGES
        }
        total: Dict[str, int] = {}
        for snapshot in out.values():
            for key, value in snapshot.items():
                total[key] = total.get(key, 0) + value
        out["total"] = total
        return out
