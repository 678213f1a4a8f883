"""CQL command execution against the ICDB component service.

Each CQL command has a corresponding executor (Section 2.3: "Each CQL
command has a corresponding program to execute it").  The executor receives
the parsed command plus the caller's input values (bound to ``%`` slots in
order) and returns a dictionary keyed by the keywords of the ``?`` output
slots.

Since the service-layer redesign every command executes through a typed
request object from :mod:`repro.api.messages`: the handler builds the
request, the executor round-trips it through ``to_dict()`` -> JSON ->
``from_dict()`` (so the CQL surface exercises the exact wire contract a
remote transport would use) and hands it to the
:class:`~repro.api.service.ComponentService`, which answers with a
:class:`~repro.api.messages.Response` envelope.  Failures re-raise the
original engine exception, keeping the legacy error behavior intact.

The executor binds to any object exposing ``execute(request) -> Response``:
the legacy :class:`~repro.core.icdb.ICDB` facade (itself a session), a
local :class:`~repro.api.service.Session`, or a
:class:`~repro.net.client.RemoteClient` -- CQL scripts run against a
network ICDB server unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.client import RemoteClient

from ..api.messages import (
    CancelJob,
    CheckEquivalence,
    ComponentQuery,
    ComponentRequest,
    DesignOp,
    FunctionQuery,
    GetMetrics,
    InstanceQuery,
    JobStatus,
    LayoutRequest,
    Ping,
    PlanQuery,
    Request,
    Response,
    Simulate,
    SubmitJob,
    request_from_dict,
)
from ..api.planner import PlanResult
from ..api.query import (
    AttributePredicate,
    Bound,
    FunctionPredicate,
    NamePredicate,
    QuerySpec,
    TypePredicate,
    parse_objective,
    pareto,
)
from ..api.service import Session
from ..constraints import (
    Constraints,
    parse_delay_constraints,
    parse_port_positions,
)
from ..core.instances import TARGET_LAYOUT, TARGET_LOGIC
from ..netlist.structural import StructuralNetlist
from .parser import CqlCommand, CqlSyntaxError, CqlTerm, VariableSlot, parse_command


class CqlExecutionError(RuntimeError):
    """Raised when a command cannot be executed."""


def _as_list(value) -> List[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [item.strip() for item in value.split(",") if item.strip()]
    if isinstance(value, dict):
        return list(value)
    return list(value)


def _as_int(value, keyword: str) -> int:
    try:
        return int(float(value))
    except (TypeError, ValueError) as exc:
        raise CqlExecutionError(f"{keyword} expects an integer, got {value!r}") from exc


def _as_float(value, keyword: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise CqlExecutionError(f"{keyword} expects a number, got {value!r}") from exc


class CqlExecutor:
    """Binds parsed CQL commands to the ICDB component service.

    ``server`` is a :class:`~repro.api.service.Session` -- the legacy
    :class:`~repro.core.icdb.ICDB` facade or one client's own design
    context -- or a :class:`~repro.net.client.RemoteClient` (commands run
    in the connection's server-side session).
    """

    def __init__(self, server: Union[Session, "RemoteClient"]):
        self.server = server

    # ------------------------------------------------------------------ entry

    def execute_text(self, text: str, inputs: Sequence[Any] = ()) -> Dict[str, Any]:
        return self.execute(parse_command(text), inputs)

    def execute(self, command: CqlCommand, inputs: Sequence[Any] = ()) -> Dict[str, Any]:
        resolved = self._bind_inputs(command, list(inputs))
        handler = getattr(self, f"_cmd_{command.command}", None)
        if handler is None:
            raise CqlExecutionError(f"unknown CQL command {command.command!r}")
        return handler(command, resolved)

    def _bind_inputs(self, command: CqlCommand, inputs: List[Any]) -> Dict[str, Any]:
        """Resolve term values, substituting ``%`` slots with caller inputs."""
        values: Dict[str, Any] = {}
        cursor = 0
        for term in command.terms:
            if term.is_input_slot:
                if cursor >= len(inputs):
                    raise CqlExecutionError(
                        f"command {command.command!r} needs an input value for "
                        f"{term.keyword!r} but none was supplied"
                    )
                values[term.keyword] = inputs[cursor]
                cursor += 1
            elif not term.is_output_slot:
                values[term.keyword] = term.value
        return values

    def _run(self, request: Request) -> Response:
        """Execute a typed request through its wire form.

        The request is serialized to JSON and parsed back before dispatch,
        so every CQL command proves the ``to_dict`` / ``from_dict``
        round-trip a socket transport would rely on.  A failed response
        re-raises the original engine exception when it is available (the
        in-process transports) and the structured
        :class:`~repro.core.icdb.IcdbError` otherwise (remote clients).
        """
        wire = request_from_dict(json.loads(json.dumps(request.to_dict())))
        response = self.server.execute(wire)
        if not response.ok:
            if response.exception is not None:
                raise response.exception
            if response.error is not None:
                response.error.raise_as_exception()
            raise CqlExecutionError("request failed with no error information")
        return response

    # --------------------------------------------------------------- queries

    def _cmd_component_query(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        implementation = values.get("implementation")
        component = values.get("component") or values.get("component_name")
        functions = _as_list(values.get("function"))
        wants_functions = any(term.keyword == "function" for term in command.output_slots())
        if wants_functions and (implementation or component):
            name = implementation or component
            response = self._run(ComponentQuery(implementation=str(name)))
            return {"function": response.value.get("function", [])}
        attributes = self._attributes(values)
        response = self._run(
            ComponentQuery(
                component=str(component) if component else None,
                implementation=str(implementation) if implementation else None,
                functions=tuple(functions),
                attributes=attributes or None,
            )
        )
        result = response.value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword in ("implementation",):
                outputs["implementation"] = result.get("implementation", [])
            elif term.keyword in ("component",):
                outputs["component"] = result.get("component", [])
            elif term.keyword == "function":
                outputs["function"] = result.get("function", [])
        return outputs or result

    def _cmd_function_query(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        functions = _as_list(values.get("function"))
        if not functions:
            raise CqlExecutionError("function_query needs a 'function' term")
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword in ("component", "implementation"):
                outputs[term.keyword] = self._run(
                    FunctionQuery(functions=tuple(functions), want=term.keyword)
                ).value
        if not outputs:
            outputs["implementation"] = self._run(
                FunctionQuery(functions=tuple(functions))
            ).value
        return outputs

    # --------------------------------------------------------------- request

    def _build_constraints(self, values: Dict[str, Any]) -> Constraints:
        constraints = Constraints()
        if "clock_width" in values and values["clock_width"] not in (None, ""):
            constraints = constraints.with_updates(
                clock_width=_as_float(values["clock_width"], "clock_width")
            )
        if "seq_delay" in values and values["seq_delay"] not in (None, ""):
            constraints = constraints.with_updates(
                setup_time=_as_float(values["seq_delay"], "seq_delay")
            )
        comb = values.get("comb_delay")
        if comb not in (None, ""):
            if isinstance(comb, dict):
                constraints = constraints.with_updates(
                    comb_delay={key: float(value) for key, value in comb.items()}
                )
            elif isinstance(comb, str) and ("rdelay" in comb or "oload" in comb):
                parsed = parse_delay_constraints(comb)
                constraints = constraints.with_updates(
                    comb_delay=parsed.comb_delay, output_loads=parsed.output_loads
                )
            else:
                constraints = constraints.with_updates(
                    default_comb_delay=_as_float(comb, "comb_delay")
                )
        loads = values.get("oload")
        if isinstance(loads, dict):
            constraints = constraints.with_updates(
                output_loads={key: float(value) for key, value in loads.items()}
            )
        elif loads not in (None, ""):
            constraints = constraints.with_updates(
                default_output_load=_as_float(loads, "oload")
            )
        strategy = values.get("strategy")
        if strategy:
            constraints = constraints.with_updates(strategy=str(strategy))
        if "strips" in values and values["strips"] not in (None, ""):
            constraints = constraints.with_updates(strips=_as_int(values["strips"], "strips"))
        positions = values.get("port_position") or values.get("pin_position")
        if isinstance(positions, str) and positions.strip():
            constraints = constraints.with_updates(
                port_positions=parse_port_positions(positions)
            )
        return constraints

    def _attributes(self, values: Dict[str, Any]) -> Dict[str, Any]:
        attributes: Dict[str, Any] = {}
        raw = values.get("attribute")
        if isinstance(raw, dict):
            attributes.update(raw)
        elif isinstance(raw, list):
            for item in raw:
                attributes[item] = 1
        if "size" in values and values["size"] not in (None, ""):
            attributes["size"] = values["size"]
        return {key: _as_int(value, key) for key, value in attributes.items()}

    def _component_request_from_values(self, values: Dict[str, Any]) -> ComponentRequest:
        """The typed ``request_component`` a command's terms describe."""
        constraints = self._build_constraints(values)
        functions = _as_list(values.get("function"))
        attributes = self._attributes(values)
        target = str(values.get("target") or TARGET_LOGIC)
        structure = values.get("vhdl_net_list")
        iif_source = values.get("iif")
        naming = values.get("naming")
        return ComponentRequest(
            component_name=str(values["component_name"]) if values.get("component_name") else None,
            implementation=str(values["implementation"]) if values.get("implementation") else None,
            iif=str(iif_source) if iif_source else None,
            structure=structure if isinstance(structure, StructuralNetlist) else None,
            functions=tuple(functions),
            attributes=attributes or None,
            constraints=constraints,
            target=TARGET_LAYOUT if target.lower() == TARGET_LAYOUT else TARGET_LOGIC,
            instance_name=str(naming) if naming else None,
        )

    @staticmethod
    def _component_outputs(command: CqlCommand, summary: Mapping[str, Any]) -> Dict[str, Any]:
        """Map a component summary onto the command's ``?`` output slots."""
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword == "instance":
                outputs["instance"] = (
                    [summary["instance"]]
                    if isinstance(term.value, VariableSlot) and term.value.is_array
                    else summary["instance"]
                )
            elif term.keyword == "delay":
                outputs["delay"] = summary["delay"]
            elif term.keyword == "area":
                outputs["area"] = summary["area"]
            elif term.keyword == "shape_function":
                outputs["shape_function"] = summary["shape_function"]
        outputs.setdefault("instance", summary["instance"])
        return outputs

    def _cmd_request_component(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        # Layout request on an existing instance (Section 3.3): the command
        # carries an 'instance' input together with 'alternative' and/or port
        # positions and a CIF output slot.
        existing = values.get("instance")
        output_keywords = [term.keyword for term in command.output_slots()]
        if existing and ("cif_layout" in output_keywords or "alternative" in values):
            return self._layout_request(command, values, str(existing))

        summary = self._run(self._component_request_from_values(values)).value
        return self._component_outputs(command, summary)

    # ------------------------------------------------- design-space exploration

    def _plan_spec_from_values(self, values: Dict[str, Any]) -> QuerySpec:
        """Lower an ``explore`` command's terms onto the query IR."""
        predicates: List[Any] = []
        component = values.get("component") or values.get("component_name")
        if component:
            predicates.append(TypePredicate(component=str(component)))
        implementation = values.get("implementation")
        if implementation:
            names = _as_list(implementation)
            predicates.append(NamePredicate(implementations=tuple(names)))
        functions = _as_list(values.get("function"))
        if functions:
            predicates.append(FunctionPredicate(functions=tuple(functions)))
        attributes = self._attributes(values)
        if attributes:
            predicates.append(AttributePredicate(attributes=dict(attributes)))

        sweep: List[Any] = []
        raw_sweep = values.get("sweep")
        if isinstance(raw_sweep, dict):
            # ``sweep: (size:2|4|8)`` parses as {"size": "2|4|8"}; the axis
            # values are '|'-separated so the list does not split on the
            # attribute-list commas.
            for axis, text in raw_sweep.items():
                points = [
                    _as_int(item, f"sweep axis {axis}")
                    for item in str(text).replace("|", " ").split()
                ]
                sweep.append((str(axis), tuple(points)))
        elif raw_sweep not in (None, ""):
            raise CqlExecutionError(
                f"sweep expects an attribute list like (size:2|4|8), got {raw_sweep!r}"
            )

        bounds = []
        for keyword, metric in (
            ("max_delay", "delay"),
            ("max_area", "area"),
            ("max_clock_width", "clock_width"),
            ("max_cells", "cells"),
        ):
            if keyword in values and values[keyword] not in (None, ""):
                bounds.append(
                    Bound(metric=metric, limit=_as_float(values[keyword], keyword))
                )

        objective_text = values.get("objective")
        objective = (
            parse_objective(str(objective_text))
            if objective_text not in (None, "")
            else pareto("area", "delay")
        )

        limit = values.get("limit")
        delay_output = values.get("delay_output")
        reference = values.get("require_equivalent_to")
        return QuerySpec(
            select=tuple(predicates),
            where=tuple(bounds),
            objective=objective,
            sweep=tuple(sweep),
            attributes=attributes or None,
            constraints=self._build_constraints(values),
            delay_output=str(delay_output) if delay_output else None,
            limit=_as_int(limit, "limit") if limit not in (None, "") else 0,
            require_equivalent_to=str(reference) if reference else None,
        )

    def _cmd_explore(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: explore``: a declarative design-space plan.

        Selection terms (``component`` / ``implementation`` / ``function``
        / ``attribute``) and a ``sweep`` axis list lower to the query IR;
        ``objective`` (``minimize(area)``, ``weighted(area:0.6,delay:0.4)``,
        ``pareto(area,delay)`` -- the default) ranks the generated
        candidates, ``max_delay`` / ``max_area`` / ``max_clock_width`` /
        ``max_cells`` bound them.  Outputs: ``?winner`` (best label),
        ``?front`` (Pareto-front labels), ``?instance`` (winner instance
        names), ``?candidates`` (full candidate reports) and ``?explain``
        (the planning report).
        """
        spec = self._plan_spec_from_values(values)
        result = PlanResult.from_dict(self._run(PlanQuery(query=spec)).value)
        winner = result.winner
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            keyword = term.keyword
            if keyword == "winner":
                outputs["winner"] = winner.label if winner else ""
            elif keyword == "front":
                outputs["front"] = [report.label for report in result.front_reports()]
            elif keyword == "instance":
                names = [
                    report.instance
                    for report in result.winner_reports()
                    if report.instance
                ]
                outputs["instance"] = (
                    names
                    if isinstance(term.value, VariableSlot) and term.value.is_array
                    else (names[0] if names else "")
                )
            elif keyword == "candidates":
                outputs["candidates"] = [
                    report.to_dict() for report in result.candidates
                ]
            elif keyword == "explain":
                outputs["explain"] = result.explain()
        if not outputs:
            outputs = {
                "winner": winner.label if winner else "",
                "front": [report.label for report in result.front_reports()],
            }
        return outputs

    # The paper's appendix spells some commands several ways; accept the
    # typed request kind as a command name too.
    _cmd_plan_query = _cmd_explore

    # ------------------------------------------- simulation / verification

    def _cmd_simulate(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: simulate``: batch vector simulation of an instance.

        ``instance`` names the target; ``vectors`` (usually a ``%`` input
        slot carrying a list of ``{input: bit}`` dicts) are the stimuli;
        optional ``engine`` (``gates`` / ``flat``) and ``clock`` select
        the model and trace mode.  Outputs: ``?vectors`` (one output
        assignment per input vector).
        """
        name = values.get("instance") or values.get("implementation")
        if not name:
            raise CqlExecutionError("simulate needs an 'instance' term")
        vectors = values.get("vectors")
        if isinstance(vectors, Mapping):
            vectors = [vectors]
        if not isinstance(vectors, (list, tuple)) or any(
            not isinstance(vector, Mapping) for vector in vectors
        ):
            raise CqlExecutionError(
                "simulate expects 'vectors' to be a list of input assignments"
            )
        clock = values.get("clock")
        value = self._run(
            Simulate(
                name=str(name),
                vectors=tuple(dict(vector) for vector in vectors),
                engine=str(values.get("engine") or "gates"),
                clock=str(clock) if clock not in (None, "") else None,
            )
        ).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword == "vectors":
                outputs["vectors"] = value["vectors"]
            elif term.keyword == "engine":
                outputs["engine"] = value["engine"]
        outputs.setdefault("vectors", value["vectors"])
        return outputs

    def _cmd_verify(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: verify``: equivalence-check an instance's netlist.

        ``instance`` names the candidate; optional ``reference`` names the
        instance whose flat IIF form is the specification (defaults to the
        candidate itself), ``mode`` one of ``auto`` / ``combinational`` /
        ``sequential``, ``clock`` the lock-step clock.  Outputs:
        ``?equivalent``, ``?vectors_checked``, ``?counterexample``,
        ``?mismatched_outputs``, ``?mode``.
        """
        name = values.get("instance") or values.get("implementation")
        if not name:
            raise CqlExecutionError("verify needs an 'instance' term")
        reference = values.get("reference")
        clock = values.get("clock")
        request = CheckEquivalence(
            name=str(name),
            reference=str(reference) if reference not in (None, "") else None,
            mode=str(values.get("mode") or "auto"),
            clock=str(clock) if clock not in (None, "") else None,
        )
        value = self._run(request).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword in (
                "equivalent",
                "vectors_checked",
                "counterexample",
                "mismatched_outputs",
                "mode",
                "reference",
            ):
                outputs[term.keyword] = value[term.keyword]
        return outputs or {
            "equivalent": value["equivalent"],
            "vectors_checked": value["vectors_checked"],
        }

    _cmd_check_equivalence = _cmd_verify

    # ------------------------------------------------------- asynchronous jobs

    def _cmd_submit(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: submit``: request_component as an asynchronous job.

        Takes the same terms as ``request_component``; answers the job id
        (``?job``) and state immediately instead of blocking for the
        generated instance.  Collect the result with ``command: wait``.
        """
        request = self._component_request_from_values(values)
        descriptor = self._run(
            SubmitJob(request=request, label=str(values.get("label") or ""))
        ).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword in ("job", "job_id"):
                outputs[term.keyword] = descriptor["job_id"]
            elif term.keyword == "state":
                outputs["state"] = descriptor["state"]
        outputs.setdefault("job", descriptor["job_id"])
        return outputs

    def _cmd_wait(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: wait``: block until a submitted job finishes.

        ``job`` names the job; an optional ``timeout`` (seconds) bounds
        the wait.  On success the outputs mirror ``request_component``
        (``?instance``, ``?delay``, ``?area``, ``?shape_function``); a
        failed or cancelled job re-raises its structured error.
        """
        job_id = values.get("job") or values.get("job_id")
        if not job_id:
            raise CqlExecutionError("wait needs a 'job' term")
        timeout = values.get("timeout")
        descriptor = self._run(
            JobStatus(
                job_id=str(job_id),
                wait=True,
                timeout_ms=(
                    _as_float(timeout, "timeout") * 1000.0
                    if timeout not in (None, "")
                    else None
                ),
            )
        ).value
        response = Response.from_dict(descriptor.get("response") or {})
        summary = response.unwrap()  # raises the job's structured error
        outputs = self._component_outputs(command, summary) if isinstance(
            summary, Mapping
        ) and "instance" in summary else {"value": summary}
        outputs.setdefault("state", descriptor["state"])
        return outputs

    def _cmd_cancel(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: cancel``: cooperatively cancel a submitted job."""
        job_id = values.get("job") or values.get("job_id")
        if not job_id:
            raise CqlExecutionError("cancel needs a 'job' term")
        descriptor = self._run(CancelJob(job_id=str(job_id))).value
        return {"job": descriptor["job_id"], "state": descriptor["state"]}

    def _cmd_metrics(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: metrics``: the service's metrics snapshot.

        An optional ``prefix`` term filters metric names; named output
        slots other than ``metrics`` pull individual counter/gauge values
        out of the snapshot (``?requests.total`` style keywords).
        """
        prefix = values.get("prefix")
        prefixes: Tuple[str, ...] = ()
        if isinstance(prefix, str) and prefix.strip():
            prefixes = tuple(
                part.strip() for part in prefix.split(",") if part.strip()
            )
        snapshot = self._run(GetMetrics(prefixes=prefixes)).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword == "metrics":
                outputs["metrics"] = snapshot
            elif term.keyword in snapshot["counters"]:
                outputs[term.keyword] = snapshot["counters"][term.keyword]
            elif term.keyword in snapshot["gauges"]:
                outputs[term.keyword] = snapshot["gauges"][term.keyword]
        outputs.setdefault("metrics", snapshot)
        return outputs

    def _cmd_ping(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        """``command: ping``: the server's liveness / health report.

        An optional ``echo`` term round-trips a payload.  Named output
        slots pull top-level health fields (``?status``, ``?uptime_s``);
        ``?health`` (the default) answers the whole report.
        """
        echo = values.get("echo")
        health = self._run(
            Ping(echo=str(echo) if echo not in (None, "") else "")
        ).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword == "health":
                outputs["health"] = health
            elif term.keyword in health:
                outputs[term.keyword] = health[term.keyword]
        outputs.setdefault("health", health)
        return outputs

    def _layout_request(self, command: CqlCommand, values: Dict[str, Any], instance_name: str) -> Dict[str, Any]:
        alternative = values.get("alternative")
        positions = values.get("port_position") or values.get("pin_position")
        port_positions: Tuple = ()
        if isinstance(positions, str) and positions.strip():
            port_positions = parse_port_positions(positions)
        result = self._run(
            LayoutRequest(
                name=instance_name,
                alternative=(
                    _as_int(alternative, "alternative")
                    if alternative not in (None, "")
                    else None
                ),
                port_positions=port_positions,
            )
        ).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword == "cif_layout":
                outputs["cif_layout"] = result["cif_layout"]
            elif term.keyword == "area":
                outputs["area"] = result["area"]
        outputs.setdefault("cif_layout", result["cif_layout"])
        return outputs

    # ----------------------------------------------------------- instance info

    def _cmd_instance_query(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        name = values.get("instance") or values.get("implementation")
        if not name:
            raise CqlExecutionError("instance_query needs an 'instance' term")
        info = self._run(InstanceQuery(name=str(name))).value
        outputs: Dict[str, Any] = {}
        for term in command.output_slots():
            if term.keyword == "function":
                outputs["function"] = info["function"]
            elif term.keyword == "delay":
                outputs["delay"] = info["delay"]
            elif term.keyword == "area":
                outputs["area"] = info["area"]
            elif term.keyword == "shape_function":
                outputs["shape_function"] = info["shape_function"]
            elif term.keyword == "vhdl_net_list":
                outputs["vhdl_net_list"] = info["VHDL_net_list"]
            elif term.keyword == "vhdl_head":
                outputs["vhdl_head"] = info["VHDL_head"]
            elif term.keyword == "connect":
                outputs["connect"] = info["connect"]
        return outputs or info

    def _cmd_connect_component(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        name = values.get("instance")
        if not name:
            raise CqlExecutionError("connect_component needs an 'instance' term")
        info = self._run(InstanceQuery(name=str(name), fields=("connect",))).value
        return {"connect": info["connect"]}

    # -------------------------------------------------------- list management

    def _cmd_start_a_design(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        self._run(DesignOp(op="start_design", design=str(values.get("design"))))
        return {"design": values.get("design")}

    def _cmd_start_a_transaction(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        response = self._run(
            DesignOp(
                op="start_transaction",
                design=str(values.get("design")) if values.get("design") else "",
            )
        )
        return {"design": response.value["design"]}

    def _cmd_put_in_component_list(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        instance = values.get("instance")
        if not instance:
            raise CqlExecutionError("put_in_component_list needs an 'instance' term")
        self._run(
            DesignOp(
                op="put_in_list",
                design=str(values.get("design")) if values.get("design") else "",
                instance=str(instance),
            )
        )
        return {"instance": instance}

    def _cmd_end_a_transaction(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        response = self._run(
            DesignOp(
                op="end_transaction",
                design=str(values.get("design")) if values.get("design") else "",
            )
        )
        return {"removed": response.value["removed"]}

    def _cmd_end_a_design(self, command: CqlCommand, values: Dict[str, Any]) -> Dict[str, Any]:
        response = self._run(
            DesignOp(
                op="end_design",
                design=str(values.get("design")) if values.get("design") else "",
            )
        )
        return {"removed": response.value["removed"]}

    # Some examples in the paper spell the list-management commands with
    # spaces ("start_a_design" vs "start_design"); accept short aliases.
    _cmd_start_design = _cmd_start_a_design
    _cmd_start_transaction = _cmd_start_a_transaction
    _cmd_end_transaction = _cmd_end_a_transaction
    _cmd_end_design = _cmd_end_a_design
