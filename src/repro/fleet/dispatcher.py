"""Server-side fleet dispatch: pipe-fed worker children, one shared queue.

:class:`FleetDispatcher` sits next to a :class:`~repro.api.service.ComponentService`
and owns its worker children (``python -m repro.fleet.worker``).
Eligible generation work -- the CPU-heavy expand / synth / size /
estimate middle of a cold catalog request, whether it arrived directly,
as a job, or as plan fan-out -- becomes one task on a single shared
queue, and the returned stage bundle is installed into the server's
generation cache so the normal in-process path replays the request as a
warm hit.

One feed thread per child takes the next task, pickles it onto the
child's stdin and reads the bundle off its stdout, so the next idle
child always gets the next task.  A child that dies shows up as EOF or
a broken pipe: its thread requeues the task (up to :data:`MAX_ATTEMPTS`
sends), reaps the child and starts a new one.  Bundles are pure and
installs first-writer-wins, so a task that ran twice still applies once.

When no child is left, or a task fails for good, callers fall back to
plain in-process generation -- the fleet degrades to the plain server,
it never becomes a new failure mode.
"""

from __future__ import annotations

import os
import pickle
import select
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..api.messages import ComponentRequest, Request
from ..components.catalog import ComponentImplementation
from ..constraints import DEFAULT_CONSTRAINTS, Constraints
from ..core.icdb import IcdbError
from ..obs.reqlog import get_logger
from .bundle import install_bundle
from .worker import READY

__all__ = ["FleetDispatcher", "MAX_ATTEMPTS", "TASK_TIMEOUT"]

_LOG = get_logger("repro.fleet.dispatcher")

#: Sends a task gets; after the last one dies with its child the task
#: counts as failed and its caller generates locally.
MAX_ATTEMPTS = 3
#: Seconds a caller (or a whole :meth:`~FleetDispatcher.prewarm_requests`
#: batch) waits for bundles before it falls back to local generation.
TASK_TIMEOUT = 120.0
#: Seconds a child has to build its catalog and generator and report ready.
BOOT_TIMEOUT = 60.0
#: Seconds :meth:`~FleetDispatcher.close` lets running tasks finish.
CLOSE_GRACE = 2.0

#: The ``src`` root a child needs on ``PYTHONPATH`` to import this package.
_SRC_ROOT = str(Path(__file__).resolve().parents[2])


class _Task:
    """One elaboration: the child's answer, then the owner's install."""

    __slots__ = ("job", "attempts", "bundle", "answered", "warmed", "settled")

    def __init__(self, job: tuple):
        #: ``(implementation name, parameters, constraints, name)``.
        self.job = job
        self.attempts = 0
        #: The pickled stage entries; None while (or if) no child delivers.
        self.bundle: Optional[bytes] = None
        self.answered = threading.Event()
        #: Whether the owner installed the bundle; coalesced callers read
        #: it once ``settled`` is set.
        self.warmed = False
        self.settled = threading.Event()


def _spawn() -> subprocess.Popen:
    """Start one worker child in this process group, stderr inherited."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (_SRC_ROOT, env.get("PYTHONPATH")) if path
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.fleet.worker"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )


def _receive(child: subprocess.Popen, timeout: float):
    """The next object ``child`` writes, unpickled from its stdout.

    The only place the server unpickles a child's output.  A child that
    stays silent for ``timeout`` seconds raises :class:`TimeoutError`, as
    a dead one raises :class:`EOFError`.
    """
    if not select.select([child.stdout], [], [], max(0.0, timeout))[0]:
        raise TimeoutError(f"fleet worker silent for {timeout:g} s")
    return pickle.load(child.stdout)


def _await_ready(child: subprocess.Popen, deadline: float) -> None:
    """Return once ``child`` reports ready; raise if it dies or is late."""
    try:
        marker = _receive(child, deadline - time.monotonic())
    except (EOFError, OSError, pickle.UnpicklingError):  # died booting
        marker = None
    if marker != READY:
        raise IcdbError(f"fleet worker failed to start (exit {child.poll()})")


def _reap(child: subprocess.Popen, grace: float = 0.0) -> None:
    """Close ``child``'s stdin, give it ``grace`` seconds, kill, wait."""
    try:
        child.stdin.close()
    except OSError:
        pass  # unflushed bytes for a child that is already gone
    try:
        child.wait(grace)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()


class FleetDispatcher:
    """Routes generation work from one service onto ``workers`` children."""

    def __init__(self, service, workers: int):
        """Start every child side by side; return once all are ready.

        All or nothing, against one deadline: if any child fails to
        start, every child is killed and reaped and the error raised.
        """
        self.service = service
        self._cond = threading.Condition()
        self._queue: Deque[_Task] = deque()
        self._closed = False
        #: prewarm signature -> the task computing it: concurrent requests
        #: for one signature share a single dispatch and its install.
        self._inflight: Dict[Tuple, _Task] = {}
        #: Signatures whose bundles already installed: the dispatcher's
        #: own warm-skip memo, deliberately *not* a generation-cache
        #: probe -- probing the flow memo would require an expansion,
        #: and routing must stay cheap on the server.
        self._warmed: set = set()
        self._counters: Dict[str, int] = dict.fromkeys(
            (
                "dispatched",
                "completed",
                "failed",
                "requeues",
                "restarts",
                "fallbacks",
                "coalesced",
                "installs",
            ),
            0,
        )
        children: List[Optional[subprocess.Popen]] = []
        try:
            for _ in range(workers):
                children.append(_spawn())
            deadline = time.monotonic() + BOOT_TIMEOUT
            for child in children:
                _await_ready(child, deadline)
        except BaseException:
            for child in children:
                _reap(child)
            raise
        #: slot -> its current child; ``None`` once the slot retired.
        self._children = children
        self._threads = [
            threading.Thread(
                target=self._feed, args=(slot,), name=f"fleet-{slot}", daemon=True
            )
            for slot in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -------------------------------------------------------------- children

    def _feed(self, slot: int) -> None:
        """One child's loop: take the next task, send it, read the bundle."""
        child = self._children[slot]
        while child is not None:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed:
                    break
            if child.poll() is not None:
                # Died while idle: replace it before a task is charged.
                child = self._restart(slot, child)
                continue
            with self._cond:
                if not self._queue:
                    continue
                task = self._queue.popleft()
                task.attempts += 1
                self._counters["dispatched"] += 1
            try:
                pickle.dump(task.job, child.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                child.stdin.flush()
                ok, value = _receive(child, TASK_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - EOF, broken pipe, silence
                # Whatever broke the exchange, this child is replaced.
                _LOG.warning("fleet_worker_lost", slot=slot, error=repr(exc))
                with self._cond:
                    retry = task.attempts < MAX_ATTEMPTS and not self._closed
                    if retry:
                        self._queue.appendleft(task)
                        self._counters["requeues"] += 1
                        self._cond.notify()
                if not retry:
                    self._fail(task)
                child = self._restart(slot, child)
                continue
            with self._cond:
                self._counters["completed"] += 1
            # An error answer is deterministic: it would fail locally too,
            # so the caller falls back instead of retrying elsewhere.
            task.bundle = value if ok else None
            task.answered.set()
        if child is not None:
            _reap(child, CLOSE_GRACE)
            with self._cond:
                self._children[slot] = None

    def _restart(
        self, slot: int, old: subprocess.Popen
    ) -> Optional[subprocess.Popen]:
        """Reap ``old`` and boot its replacement; ``None`` retires the slot.

        When the last slot retires, every queued task fails at once and
        later calls fall back without waiting.
        """
        _reap(old)
        child: Optional[subprocess.Popen] = None
        try:
            with self._cond:
                # Registered before it boots, so close() can kill it.
                if not self._closed:
                    child = self._children[slot] = _spawn()
            if child is not None:
                _await_ready(child, time.monotonic() + BOOT_TIMEOUT)
        except (OSError, IcdbError) as exc:  # the slot retires
            _LOG.warning("fleet_restart_failed", slot=slot, error=repr(exc))
            if child is not None:
                _reap(child)
            child = None
        orphans: List[_Task] = []
        with self._cond:
            self._children[slot] = child
            if child is not None:
                self._counters["restarts"] += 1
            elif not any(self._children):
                orphans = list(self._queue)
                self._queue.clear()
        for task in orphans:
            self._fail(task)
        return child

    def _fail(self, task: _Task) -> None:
        with self._cond:
            self._counters["failed"] += 1
        task.answered.set()

    # ------------------------------------------------------------ public work

    def prewarm(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Optional[Constraints],
        name: Optional[str] = None,
    ) -> bool:
        """Offload one cold elaboration; True if a child warmed the memo.

        False means the caller should just generate locally: no live
        child, the flow is already warm, or the dispatch failed (the
        failure is counted, never raised -- the fleet must not introduce
        a failure mode in-process generation does not have).
        """
        claim = self._claim(implementation, parameters, constraints, name)
        if claim is None:
            return False
        return self._settle(*claim, deadline=time.monotonic() + TASK_TIMEOUT)

    def prewarm_requests(self, requests: Sequence[Request]) -> int:
        """Bulk-offload the catalog generations of a request fan-out.

        Used by the planner before it hands candidates to the job pool:
        every eligible :class:`ComponentRequest` is queued at once, the
        children work through them side by side, and the pool then
        replays them as warm hits.  Ineligible requests (IIF /
        structural, unknown names) are left for the normal path
        untouched.  Returns how many warmed.
        """
        with self._cond:
            if self._closed or not any(self._children):
                return 0
        claims = []
        for request in requests:
            if not isinstance(request, ComponentRequest):
                continue
            if request.iif is not None or request.structure is not None:
                continue
            try:
                chosen = self.service.choose_implementation(
                    request.component_name,
                    request.implementation,
                    request.functions,
                )
            except Exception:  # noqa: BLE001 - the real path reports it
                continue
            overrides = dict(request.parameters or {})
            overrides.update(chosen.attributes_to_parameters(request.attributes))
            constraints = (
                request.constraints
                if request.constraints is not None
                else DEFAULT_CONSTRAINTS
            )
            if request.strategy is not None:
                constraints = constraints.with_updates(strategy=request.strategy)
            claim = self._claim(chosen, overrides, constraints, request.instance_name)
            if claim is not None:
                claims.append(claim)
        deadline = time.monotonic() + TASK_TIMEOUT
        return sum(self._settle(*claim, deadline=deadline) for claim in claims)

    def _claim(
        self,
        implementation: ComponentImplementation,
        parameters: Optional[Mapping[str, int]],
        constraints: Optional[Constraints],
        name: Optional[str],
    ) -> Optional[Tuple[Tuple, _Task, bool]]:
        """Queue one elaboration, or join the task already computing it.

        Returns ``(signature, task, owner)``, or ``None`` when there is
        nothing to wait for: the flow is warm, or no child can take work.
        The warm-skip check, the in-flight check and the owner's insert
        share one lock hold, so racing callers dispatch once.
        """
        generator = self.service.generator
        if constraints is None:
            constraints = DEFAULT_CONSTRAINTS
        try:
            flow_key = generator.prewarm_signature(
                implementation, parameters, constraints
            )
        except Exception:  # noqa: BLE001 - let the real path raise it
            return None
        with self._cond:
            if flow_key in self._warmed:
                return None
            task = self._inflight.get(flow_key)
            if task is not None:
                self._counters["coalesced"] += 1
                return flow_key, task, False
            if self._closed or not any(self._children):
                self._counters["fallbacks"] += 1
                return None
            job = (
                implementation.name,
                dict(parameters) if parameters else None,
                constraints,
                name,
            )
            task = self._inflight[flow_key] = _Task(job)
            self._queue.append(task)
            self._cond.notify()
        return flow_key, task, True

    def _settle(
        self, flow_key: Tuple, task: _Task, owner: bool, deadline: float
    ) -> bool:
        """Wait for ``task``; its owner installs the bundle.  True if warm.

        Coalesced callers wait for the owner's install, not just for the
        child's answer, so every caller that returns True replays warm.
        """
        if owner:
            try:
                task.answered.wait(max(0.0, deadline - time.monotonic()))
                bundle = task.bundle
                task.warmed = bundle is not None and self._install(
                    flow_key, task, bundle
                )
            finally:
                with self._cond:
                    self._inflight.pop(flow_key, None)
                task.settled.set()
        else:
            task.settled.wait(max(0.0, deadline - time.monotonic()))
        if not task.warmed:
            with self._cond:
                self._counters["fallbacks"] += 1
        return task.warmed

    def _install(self, flow_key: Tuple, task: _Task, bundle: bytes) -> bool:
        try:
            installed = install_bundle(self.service.generator, bundle)
        except Exception as exc:  # noqa: BLE001 - never into the request
            # A child on another cell library (or a corrupt bundle): its
            # entries would be wrong here, so none install and the caller
            # generates locally.
            _LOG.warning(
                "fleet_install_failed", implementation=task.job[0], error=repr(exc)
            )
            return False
        with self._cond:
            self._counters["installs"] += installed
            if len(self._warmed) > 65536:  # runaway-signature backstop
                self._warmed.clear()
            self._warmed.add(flow_key)
        return True

    # ------------------------------------------------------------------ admin

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (the service's ``fleet`` metrics collector)."""
        with self._cond:
            out = dict(self._counters)
            out["workers_live"] = sum(child is not None for child in self._children)
        return out

    def close(self) -> None:
        """Refuse new work, fail queued tasks, stop and reap every child.

        Running tasks get :data:`CLOSE_GRACE` seconds to finish (and their
        callers to install); a child still busy after that is killed.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            orphans = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for task in orphans:
            self._fail(task)
        deadline = time.monotonic() + CLOSE_GRACE
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        with self._cond:
            late = [child for child in self._children if child is not None]
        for child in late:
            child.kill()
        for thread in self._threads:
            thread.join(CLOSE_GRACE)
