"""Distributed generation fleet: cold generation in worker child processes.

A single ICDB server process is GIL-bound: its job worker pool overlaps
I/O and bookkeeping, but the CPU-heavy middle of every cold generation
(expansion, synthesis, sizing, estimation) serializes.  The fleet spreads
exactly that middle across *worker children* without moving any of the
server's authority:

* A **worker** (``python -m repro.fleet.worker``) is a child process the
  server starts itself.  It imports only the generation stack, reads
  pickled tasks on stdin and answers each with the pickled stage
  entries of one catalog elaboration (:mod:`repro.fleet.bundle`) on
  stdout.

* The server-side :class:`~repro.fleet.dispatcher.FleetDispatcher` feeds
  its children from one shared queue, merges the returned entries into
  the server's own :class:`~repro.core.gencache.GenerationCache`, and
  lets the normal in-process path replay the request as a warm hit.

This shape is what makes the distribution safe.  Worker work is *pure
cache priming*: re-running it is harmless, so a child dying mid-task is
survived by restarting it and requeueing the task (or falling back to
plain in-process generation).  Every effectful step -- instance naming,
registration, persistence -- happens exactly once, on the server, on the
same code path it always did; results are byte-identical to in-process
generation because they *are* in-process generation, served from a
warmed memo.  Pickles only cross the pipes to children the server
spawned: no socket and no request kind carries one.

No cache key crosses a process boundary: the server computes every key
itself, from content-derived parts -- implementation / cell-library
fingerprints (:mod:`repro.fingerprint`), canonical constraints JSON,
structural signatures over the hash-consed expression IR (whose
``__reduce__`` re-interns on unpickling) -- over the entries it already
holds.  See ``docs/fleet.md``.
"""

from ..lazy import lazy_exports

# Resolved on first access: a worker child (``python -m
# repro.fleet.worker``) must not load the dispatcher's server stack.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".bundle": ("BUNDLE_STAGES", "compute_bundle", "install_bundle"),
    ".dispatcher": ("FleetDispatcher",),
})
