"""Cooperative progress reporting and cancellation for long-running work.

Component generation and layout are the ICDB's long-poles: a full
generator run is many stages of pure computation (IIF expansion, logic
synthesis, sizing, estimation, layout) and -- in the paper's deployment --
external tool invocations.  The job scheduler of :mod:`repro.api.service`
needs two things from that pipeline without owning it:

* **progress**: which stage is running and roughly how far along it is,
  so a client polling (or streaming events for) a job sees movement;
* **cancellation**: a submitted job whose client changed its mind must
  stop *between* stages, releasing its worker slot without leaving a
  half-registered instance or half-written artifact behind.

Both are served by one mechanism: the pipeline calls
:func:`checkpoint` at stage boundaries, and whoever scheduled the work
installs an *observer* for the duration of the run (:func:`observed`).
The observer is per-thread (a ``threading.local``), so concurrent jobs on
a worker pool never see each other's checkpoints, and code running outside
any job pays one attribute lookup per checkpoint.

An observer signals cancellation by raising :class:`OperationCancelled`
from the checkpoint callback; the generation stack unwinds before any
instance is registered or any file is written, which is what makes
cancellation free of orphan state.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

#: An observer receives ``(stage, fraction)`` where ``stage`` names the
#: pipeline step about to run and ``fraction`` is a monotonic estimate in
#: ``[0, 1]`` of how much of the operation is already behind it.
ProgressObserver = Callable[[str, float], None]

_LOCAL = threading.local()


class OperationCancelled(RuntimeError):
    """The current operation was cancelled at a cooperative checkpoint."""


def checkpoint(stage: str, fraction: float = 0.0) -> None:
    """Report a stage boundary to this thread's observer (if installed).

    Raises whatever the observer raises -- in particular
    :class:`OperationCancelled` when the scheduling layer wants the
    operation to stop here.  With no observer installed this is a single
    attribute lookup.
    """
    observer = getattr(_LOCAL, "observer", None)
    if observer is not None:
        observer(stage, fraction)


class observed:
    """Context manager installing ``observer`` on the current thread.

    Nestable: the previous observer (usually none) is restored on exit, so
    a job executing another checkpointed operation re-entrantly keeps one
    consistent observer.
    """

    def __init__(self, observer: Optional[ProgressObserver]):
        self._observer = observer
        self._previous: Optional[ProgressObserver] = None

    def __enter__(self) -> "observed":
        self._previous = getattr(_LOCAL, "observer", None)
        _LOCAL.observer = self._observer
        return self

    def __exit__(self, *exc_info) -> None:
        _LOCAL.observer = self._previous
