"""The classic ICDB operations, written once for every client surface.

In the paper each CQL command has one program that executes it (Section
2.3); here each request kind has one handler in
:data:`repro.api.service.HANDLERS`.  Each classic operation is one method
of :class:`ClassicOps`: it builds the typed request, sends it through the
surface's ``execute()`` and unwraps the answer.
:class:`~repro.api.service.Session` (and so the ``ICDB`` facade),
:class:`~repro.net.client.RemoteClient` and
:class:`~repro.net.resilience.ResilientClient` all inherit it, so local
and remote calls answer the same values and raise the same errors.

Jobs are written once too: :meth:`ClassicOps.submit` answers a
:class:`JobHandle`, the same class on every surface.  Its live state
follows the job's pushed events -- a remote client's ``job_event``
frames, a local session's in-process subscription -- and its calls go
back through ``execute()``.

A few things stay per surface, each as a hook: what a
``request_component`` summary becomes (:meth:`ClassicOps._component_instance`,
with :attr:`ClassicOps.component_detail`), what ``request_layout``
answers (:meth:`ClassicOps._layout_answer`), what a finished job's
envelope is (:meth:`ClassicOps._job_response`), how the surface starts
receiving its job events (:meth:`ClassicOps._subscribe_jobs`), and
:meth:`ClassicOps.plan`, which a local session runs in process so
``area_time_tradeoff`` re-raises a failed candidate's original
exception.  A surface also provides ``execute(request)`` and a
``current_design`` attribute.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..constraints import Constraints, PortPosition
from ..core.instances import TARGET_LOGIC
from ..netlist.structural import StructuralNetlist
from .messages import (
    JOB_QUEUED,
    JOB_TERMINAL_STATES,
    CancelJob,
    CheckEquivalence,
    ComponentQuery,
    ComponentRequest,
    DesignOp,
    FunctionQuery,
    InstanceQuery,
    JobEvent,
    JobStatus,
    LayoutRequest,
    PlanQuery,
    Request,
    Response,
    Simulate,
    SubmitJob,
)
from .planner import PlanResult, tradeoff_rows, tradeoff_spec
from .query import QuerySpec


def _component_request(
    functions: Optional[Sequence[str]] = None,
    attributes: Optional[Mapping[str, Any]] = None,
    parameters: Optional[Mapping[str, int]] = None,
    **fields: Any,
) -> ComponentRequest:
    """A :class:`ComponentRequest` from ``request_component`` arguments
    (lists and mappings accepted where the request holds tuples/dicts)."""
    return ComponentRequest(
        functions=tuple(functions or ()),
        attributes=dict(attributes) if attributes else None,
        parameters=dict(parameters) if parameters else None,
        **fields,
    )


class JobHandle:
    """Futures-style view of one submitted job.

    Live state (``state`` / ``progress`` / ``stage``) is folded in from
    the job's pushed events as they arrive; the authoritative calls go
    through the owning surface:

    * :meth:`result` -- block until the job ends and return its value,
      re-raising the job's error (a local session re-raises the original
      engine exception); ``timeout`` seconds raise an ``E_TIMEOUT`` error
      while the job keeps running;
    * :meth:`cancel` -- cooperative cancellation;
    * :meth:`events` -- the received pushed events, or (with
      ``remote=True``) the service's retained event history.
    """

    def __init__(self, owner: "ClassicOps", descriptor: Mapping[str, Any]):
        self._owner = owner
        self._lock = threading.Lock()
        self._events: "deque[JobEvent]" = deque(maxlen=256)
        self.descriptor: Dict[str, Any] = dict(descriptor)
        self.job_id = str(descriptor["job_id"])
        self.label = str(descriptor.get("label") or "")
        self.kind = str(descriptor.get("kind") or "")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.job_id!r}, state={self.state!r})"

    # ---------------------------------------------------------- pushed events

    def _apply(self, event: JobEvent) -> None:
        """Fold one pushed event into the live view (worker-thread safe)."""
        with self._lock:
            self._events.append(event)
            if event.seq >= int(self.descriptor.get("seq") or 0):
                self.descriptor["seq"] = event.seq
                self.descriptor["state"] = event.state
                if event.stage:
                    self.descriptor["stage"] = event.stage
                self.descriptor["progress"] = max(
                    float(self.descriptor.get("progress") or 0.0), event.progress
                )

    # -------------------------------------------------------------- live view

    @property
    def state(self) -> str:
        with self._lock:
            return str(self.descriptor.get("state") or JOB_QUEUED)

    @property
    def progress(self) -> float:
        with self._lock:
            return float(self.descriptor.get("progress") or 0.0)

    @property
    def stage(self) -> str:
        with self._lock:
            return str(self.descriptor.get("stage") or "")

    def done(self) -> bool:
        return self.state in JOB_TERMINAL_STATES

    # ------------------------------------------------------------------ calls

    def _update(self, descriptor: Mapping[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if int(descriptor.get("seq") or 0) >= int(
                self.descriptor.get("seq") or 0
            ):
                self.descriptor = dict(descriptor)
            return dict(self.descriptor)

    def status(self) -> Dict[str, Any]:
        """Refresh and return the job descriptor."""
        return self._update(self._owner.job_status(self.job_id))

    def wait(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job is terminal; ``timeout`` is in seconds."""
        return self._update(
            self._owner.job_status(
                self.job_id,
                wait=True,
                timeout_ms=None if timeout is None else timeout * 1000.0,
            )
        )

    def response(self, timeout: Optional[float] = None) -> Response:
        """The job's full :class:`Response` envelope (waits for it)."""
        return self._owner._job_response(self.job_id, self.wait(timeout))

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's result value; raises its error instead."""
        return self.response(timeout).unwrap()

    def instance(self, timeout: Optional[float] = None) -> Any:
        """For component jobs: wait, then answer what ``request_component``
        would on this surface."""
        return self._owner._component_instance(self.result(timeout))

    def cancel(self) -> Dict[str, Any]:
        """Request cooperative cancellation; returns the descriptor."""
        return self._update(self._owner.cancel_job(self.job_id))

    def events(self, since: int = 0, remote: bool = False) -> List[JobEvent]:
        """Job events with ``seq > since``, in ``seq`` order.

        Default: the events this surface received as pushes (a resumed
        remote session starts empty).  ``remote=True`` fetches the
        service's retained history -- authoritative and disconnect-proof.
        """
        if remote:
            descriptor = self._owner.job_status(
                self.job_id, include_events=True, events_since=since
            )
            return [
                JobEvent.from_dict(item) for item in descriptor.get("events") or []
            ]
        with self._lock:
            received = [event for event in self._events if event.seq > since]
        return sorted(received, key=lambda event: event.seq)


class ClassicOps:
    """The classic ICDB operations over a surface's ``execute()``."""

    #: The ``detail`` a ``request_component`` asks for when the caller
    #: names none.  A local session answers the registered instance, so it
    #: asks for the cheap ``"summary"`` projection instead.
    component_detail = "full"

    def __init__(self) -> None:
        #: Live handles by job id (held weakly: a dropped handle stops
        #: collecting events), and pushed events that arrived before
        #: their handle (bounded per job and in jobs).
        self._handles: "weakref.WeakValueDictionary[str, JobHandle]" = (
            weakref.WeakValueDictionary()
        )
        self._event_buffers: "OrderedDict[str, deque]" = OrderedDict()
        self._events_lock = threading.Lock()

    # ------------------------------------------------------------------ hooks

    def _component_instance(self, summary: Dict[str, Any]) -> Any:
        """What a ``request_component`` summary becomes on this surface."""
        raise NotImplementedError

    def _layout_answer(self, value: Dict[str, Any]) -> Any:
        """What ``request_layout`` answers: the wire summary (CIF text,
        area, width, height, strips) unless the surface has the layout."""
        return value

    def _job_response(self, job_id: str, descriptor: Dict[str, Any]) -> Response:
        """The envelope of a finished job, given its terminal descriptor."""
        return Response.from_dict(descriptor.get("response") or {})

    def _subscribe_jobs(self) -> None:
        """Start routing this surface's pushed job events to
        :meth:`_route_event` (idempotent).  A remote client's connection
        already does."""

    def plan(self, spec: QuerySpec) -> PlanResult:
        """Run a declarative component query (see :mod:`repro.api.query`).

        Enumerates candidate ``(implementation, parameters)`` points from
        the catalog, prunes with cheap pre-generation checks, generates
        the survivors through the cached engine -- fanned out over the
        service's job workers when possible -- and answers the ranked
        :class:`~repro.api.planner.PlanResult` with its ``explain()``
        report.
        """
        return PlanResult.from_dict(self.execute(PlanQuery(query=spec)).unwrap())

    # ------------------------------------------------------------------ query

    def function_query(
        self, functions: Sequence[str], want: str = "implementation"
    ) -> List[str]:
        """Components or implementations that execute *all* given functions.

        ``want`` is ``"implementation"`` (implementation names) or
        ``"component"`` (component-type names); anything else raises
        :class:`~repro.core.icdb.IcdbError`.
        """
        return list(
            self.execute(FunctionQuery(functions=tuple(functions), want=want)).unwrap()
        )

    def component_query(
        self,
        component: Optional[str] = None,
        implementation: Optional[str] = None,
        functions: Optional[Sequence[str]] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, List[str]]:
        """The CQL ``component_query``.

        * with ``component`` (and optionally ``functions`` / ``attributes``):
          the matching implementations and component types, both sorted;
        * with ``implementation`` or a generated-instance name: the
          functions it can execute.
        """
        return self.execute(
            ComponentQuery(
                component=component,
                implementation=implementation,
                functions=tuple(functions or ()),
                attributes=dict(attributes) if attributes else None,
            )
        ).unwrap()

    def functions_of(self, name: str) -> List[str]:
        """Functions a generated instance or an implementation can execute."""
        return list(self.component_query(implementation=name).get("function", []))

    # ---------------------------------------------------------------- request

    def request_component(
        self,
        component_name: Optional[str] = None,
        implementation: Optional[str] = None,
        iif: Optional[str] = None,
        structure: Optional[StructuralNetlist] = None,
        functions: Optional[Sequence[str]] = None,
        attributes: Optional[Mapping[str, Any]] = None,
        constraints: Optional[Constraints] = None,
        strategy: Optional[str] = None,
        target: str = TARGET_LOGIC,
        instance_name: Optional[str] = None,
        parameters: Optional[Mapping[str, int]] = None,
        use_cache: bool = True,
        detail: Optional[str] = None,
    ) -> Any:
        """The CQL ``request_component``: generate a component instance.

        Exactly one of the three specification types of Section 3.2.2
        applies: a component / implementation name plus attributes, an IIF
        description, or a structural netlist of existing instances.
        Catalog-based requests are memoized: an identical implementation /
        parameters / constraints / target signature reuses the synthesized
        netlist and estimates under a fresh instance name (``use_cache=False``
        forces a full generator run).
        """
        request = _component_request(
            component_name=component_name,
            implementation=implementation,
            iif=iif,
            structure=structure,
            functions=functions,
            attributes=attributes,
            constraints=constraints,
            strategy=strategy,
            target=target,
            instance_name=instance_name,
            parameters=parameters,
            use_cache=use_cache,
            detail=detail or self.component_detail,
        )
        return self._component_instance(self.execute(request).unwrap())

    def submit_component(self, **kwargs: Any) -> JobHandle:
        """Asynchronous ``request_component``: submit and return a handle.

        Accepts the ``request_component`` arguments; the handle's
        ``instance()`` waits and answers what ``request_component`` would.
        """
        return self.submit(_component_request(**kwargs))

    # --------------------------------------------------------- instance query

    def instance_query(
        self, name: str, fields: Optional[Sequence[str]] = None
    ) -> Dict[str, Any]:
        """The CQL ``instance_query``: everything known about an instance.

        ``fields`` restricts the answer to the named reports; only those are
        rendered.  Asking for ``files`` materializes any lazily deferred
        artifacts first, so the returned paths are readable.
        """
        return self.execute(
            InstanceQuery(name=name, fields=tuple(fields or ()))
        ).unwrap()

    def connect_component(self, name: str) -> str:
        """The CQL ``connect_component``: connection information string."""
        return str(self.instance_query(name, fields=("connect",))["connect"])

    def request_layout(
        self,
        name: str,
        alternative: Optional[int] = None,
        strips: Optional[int] = None,
        port_positions: Sequence[PortPosition] = (),
    ) -> Any:
        """Generate (and store) the layout of an existing instance.

        ``alternative`` is the 1-based index into the instance's shape
        function, as in the paper's ``alternative:3`` layout request.
        """
        return self._layout_answer(
            self.execute(
                LayoutRequest(
                    name=name,
                    alternative=alternative,
                    strips=strips,
                    port_positions=tuple(port_positions),
                )
            ).unwrap()
        )

    # ------------------------------------------------- simulation / verification

    def simulate(
        self,
        name: str,
        vectors: Sequence[Mapping[str, int]],
        engine: str = "gates",
        clock: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Batch-simulate test vectors on an instance.

        Runs the bit-parallel engine over the vectors (one lane per
        vector; a single serial trace when ``clock`` is given) and answers
        ``instance`` / ``engine`` / ``clock`` / ``vectors``, the last one
        output assignment per input vector.
        """
        return self.execute(
            Simulate(
                name=name,
                vectors=tuple(dict(vector) for vector in vectors),
                engine=engine,
                clock=clock,
            )
        ).unwrap()

    def check_equivalence(
        self,
        name: str,
        reference: Optional[str] = None,
        mode: str = "auto",
        clock: Optional[str] = None,
        max_exhaustive: int = 10,
        samples: int = 256,
        cycles: int = 32,
        lanes: int = 64,
        seed: int = 1990,
    ) -> Dict[str, Any]:
        """Verify an instance's gate netlist.

        The candidate's gate netlist is checked against the flat IIF form
        of ``reference`` (another instance; defaults to the candidate
        itself, i.e. "did synthesis preserve the specified function?").
        The answer embeds the :class:`~repro.sim.verify.EquivalenceResult`
        fields.
        """
        return self.execute(
            CheckEquivalence(
                name=name,
                reference=reference,
                mode=mode,
                clock=clock,
                max_exhaustive=max_exhaustive,
                samples=samples,
                cycles=cycles,
                lanes=lanes,
                seed=seed,
            )
        ).unwrap()

    # ------------------------------------------------------------------- jobs

    def submit(self, request: Request, label: str = "") -> JobHandle:
        """Submit any typed request as an asynchronous job of this session."""
        self._subscribe_jobs()
        descriptor = self.execute(SubmitJob(request=request, label=label)).unwrap()
        return self._register_handle(JobHandle(self, descriptor))

    def job_handle(self, job_id: str) -> JobHandle:
        """A handle for an already-submitted job (e.g. after attach)."""
        self._subscribe_jobs()
        return self._register_handle(JobHandle(self, self.job_status(job_id)))

    def _route_event(self, event_dict: Dict[str, Any]) -> None:
        """Deliver one pushed job event to its handle (or buffer it).

        Events can outrun their handle: ``queued`` is pushed while the
        submit answer is still on its way, so unclaimed events are
        buffered per job (bounded) until :meth:`_register_handle` drains
        them.
        """
        event = JobEvent.from_dict(event_dict)
        with self._events_lock:
            handle = self._handles.get(event.job_id)
            if handle is None:
                buffer = self._event_buffers.get(event.job_id)
                if buffer is None:
                    buffer = self._event_buffers[event.job_id] = deque(maxlen=256)
                    while len(self._event_buffers) > 64:
                        self._event_buffers.popitem(last=False)
                buffer.append(event)
                return
        handle._apply(event)

    def _register_handle(self, handle: JobHandle) -> JobHandle:
        with self._events_lock:
            self._handles[handle.job_id] = handle
            buffered = self._event_buffers.pop(handle.job_id, ())
        for event in buffered:
            handle._apply(event)
        return handle

    def job_status(
        self,
        job_id: str,
        wait: bool = False,
        timeout_ms: Optional[float] = None,
        include_events: bool = False,
        events_since: int = 0,
    ) -> Dict[str, Any]:
        """The job's descriptor; with ``wait``, block until it is terminal."""
        return self.execute(
            JobStatus(
                job_id=job_id,
                wait=wait,
                timeout_ms=timeout_ms,
                include_events=include_events,
                events_since=events_since,
            )
        ).unwrap()

    def cancel_job(self, job_id: str) -> Dict[str, Any]:
        """Cooperatively cancel a job; answers its descriptor."""
        return self.execute(CancelJob(job_id=job_id)).unwrap()

    # ---------------------------------------------------- design transactions

    def start_a_design(self, design: str) -> None:
        self.execute(DesignOp(op="start_design", design=design)).unwrap()
        self.current_design = design

    def start_a_transaction(self, design: Optional[str] = None) -> None:
        value = self.execute(
            DesignOp(op="start_transaction", design=design or "")
        ).unwrap()
        self.current_design = str(value["design"])

    def put_in_component_list(
        self, instance: str, design: Optional[str] = None
    ) -> None:
        self.execute(
            DesignOp(op="put_in_list", design=design or "", instance=instance)
        ).unwrap()

    def component_list(self, design: Optional[str] = None) -> List[str]:
        value = self.execute(
            DesignOp(op="component_list", design=design or "")
        ).unwrap()
        return list(value["instances"])

    def end_a_transaction(self, design: Optional[str] = None) -> List[str]:
        """End a transaction: delete the design's instances not in the list."""
        value = self.execute(
            DesignOp(op="end_transaction", design=design or "")
        ).unwrap()
        return list(value["removed"])

    def end_a_design(self, design: Optional[str] = None) -> List[str]:
        """End a design: delete every remaining instance of its component list."""
        value = self.execute(DesignOp(op="end_design", design=design or "")).unwrap()
        if self.current_design == (design or self.current_design):
            self.current_design = ""
        return list(value["removed"])

    # ---------------------------------------------------------------- helpers

    def area_time_tradeoff(
        self,
        component_name: str,
        configurations: Sequence[Tuple[str, Mapping[str, int]]],
        constraints: Optional[Constraints] = None,
        delay_output: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Generate several configurations of a component and tabulate the
        (delay, area) tradeoff -- the Figure 5 experiment.

        One plan: the labelled configurations lower to explicit plan
        points (:func:`~repro.api.planner.tradeoff_spec`) and generate
        through the parallel candidate fan-out.  Rows carry ``label`` /
        ``instance`` / ``delay`` / ``clock_width`` / ``area`` / ``cells``,
        in configuration order.  On a failed configuration the error is
        raised after the remaining configurations have generated.
        """
        result = self.plan(
            tradeoff_spec(component_name, configurations, constraints, delay_output)
        )
        return tradeoff_rows(result)
