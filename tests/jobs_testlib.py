"""Slow- and barrier-generator helpers for the job scheduler tests.

Lives outside ``conftest.py`` under a unique module name: both ``tests/``
and ``benchmarks/`` carry a ``conftest`` and a bare ``import conftest``
resolves to whichever was loaded first in a whole-repo pytest run.
"""

from __future__ import annotations

import threading
import time

from repro.api import ComponentService
from repro.components import standard_catalog
from repro.core.generation import EmbeddedGenerator
from repro.core.progress import checkpoint


def make_slow_generator(cell_library=None, delay=0.3, slices=6):
    """An :class:`EmbeddedGenerator` that simulates the paper's *external*
    generator tools: before the real flow it sleeps in slices, hitting a
    cooperative checkpoint between every slice.

    The sleep releases the GIL (exactly like waiting on an external MILO /
    LES process would), so concurrent jobs genuinely overlap on one core,
    and cancellation tests get a wide, responsive window.  The generator
    counts the slices it starts (``slices_started``, not thread-safe:
    read it with one flow in flight), so a test can count the slices that
    run after a cancellation instead of timing it.
    """

    class SlowToolGenerator(EmbeddedGenerator):
        slices_started = 0

        def run_flow(self, flat, constraints, target, **kwargs):
            for index in range(slices):
                checkpoint("external_tool", 0.05 + 0.5 * index / slices)
                self.slices_started += 1
                time.sleep(delay / slices)
            return super().run_flow(flat, constraints, target, **kwargs)

    return SlowToolGenerator(cell_library)


def make_slow_service(store_root, delay=0.3, slices=6, job_workers=None):
    """A fresh service whose generator sleeps like an external tool."""
    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=store_root,
        job_workers=job_workers,
    )
    service.generator = make_slow_generator(
        service.cell_library, delay=delay, slices=slices
    )
    return service


def make_barrier_service(store_root, parties, job_workers):
    """A fresh service whose generator's flow first waits on a
    ``threading.Barrier(parties)``.

    The flows pass only when ``parties`` of them run at once, so a test
    counts overlap instead of timing it: a pool that runs fewer flows
    concurrently breaks the barrier after its 10 s timeout, and every
    waiting generation fails.  Each request must run exactly one flow
    (distinct, uncached components), or the barrier's next round starves.
    """
    barrier = threading.Barrier(parties, timeout=10.0)

    class BarrierGenerator(EmbeddedGenerator):
        def run_flow(self, flat, constraints, target, **kwargs):
            barrier.wait()
            return super().run_flow(flat, constraints, target, **kwargs)

    service = ComponentService(
        catalog=standard_catalog(fresh=True),
        store_root=store_root,
        job_workers=job_workers,
    )
    service.generator = BarrierGenerator(service.cell_library)
    return service
