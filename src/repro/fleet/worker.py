"""A fleet worker child: ``python -m repro.fleet.worker``.

Started by :class:`~repro.fleet.dispatcher.FleetDispatcher`, never by
hand.  It builds its own catalog and generator, writes :data:`READY`,
then answers one pickled ``(implementation, parameters, constraints,
name)`` task on stdin with one pickled ``(ok, bundle or error text)`` on
stdout, until stdin closes.  It owns no store and registers nothing,
which is why a SIGKILL mid-task loses no state.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

from ..components.catalog import standard_catalog
from ..core.generation import EmbeddedGenerator
from .bundle import compute_bundle

#: The first object a child writes: its catalog and generator are built.
READY = "icdb-fleet-ready"


def main() -> int:
    # The server decides when a child stops: by closing its stdin.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    tasks, answers = sys.stdin.buffer, os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print lands in the server's log, not in a bundle
    catalog, generator = standard_catalog(fresh=True), EmbeddedGenerator()
    answer = READY
    while True:
        pickle.dump(answer, answers, protocol=pickle.HIGHEST_PROTOCOL)
        answers.flush()
        try:
            implementation, parameters, constraints, name = pickle.load(tasks)
        except EOFError:
            return 0
        try:
            answer = (True, compute_bundle(
                generator, catalog.get(implementation), parameters, constraints, name
            ))
        except Exception as exc:  # noqa: BLE001 - the server falls back
            answer = (False, repr(exc))


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
