"""The four workloads: seeded inputs, closed-loop drivers, output checks.

Every workload is a closed loop on one connection: the next request goes
out only after the previous answer arrived, the way a synthesis tool
calls ICDB.  A workload implements

* ``server_args(run_dir)`` -- the server flags of its configuration;
* ``prepare(client)`` -- untimed set-up on a booted server (pre-warming);
* ``run(client, state, phase)`` -- one measured pass of fixed work, one
  ``phase.add()`` per user-visible unit (see :class:`metrics.Phase`);
* ``check(client, state)`` / ``after_stop(state, run_dir, env)`` -- output checks
  before and after the server stops, returning problem strings.

Each pass runs on a freshly booted server and does the same amount of
work whatever the seed: the seed orders and draws the requests, but the
mix they are drawn from is fixed, so runs with different seeds measure
the same thing.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.messages import (
    CheckEquivalence,
    ComponentQuery,
    ComponentRequest,
    DesignOp,
    InstanceQuery,
    PlanQuery,
)
from repro.api.query import QuerySpec, TypePredicate, pareto
from repro.constraints import Constraints

#: Catalog implementations with a ``size`` attribute that elaborate at
#: every benchmark size (``decoder`` / ``encoder`` grow exponentially and
#: get their own capped range; ``extract`` fails at small sizes).
SIZED = (
    "counter", "up_counter", "ripple_counter", "ripple_carry_adder",
    "adder_subtractor", "alu", "incrementer", "comparator", "array_multiplier",
    "register", "shift_register", "register_file", "mux2", "mux4", "mux_scg2",
    "shifter", "barrel_shifter", "buffer", "tri_state", "schmitt_trigger",
    "wire_or", "delay_element", "logic_unit",
)
SWEEP_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24)

#: The fields of a ``detail="summary"`` answer that the engine determines
#: (``instance``, ``cached`` and ``design`` depend on the request history).
SUMMARY_FIELDS = (
    "implementation", "component_type", "target", "clock_width",
    "area_um2", "cells", "met_constraints",
)
PLAN_METRICS = ("area", "delay", "clock_width", "cells")

Signature = Tuple[str, str, int, Optional[float]]


def signature_key(signature: Signature) -> str:
    implementation, attribute, value, clock_width = signature
    return f"{implementation}/{attribute}={value}/cw={clock_width or '-'}"


def component_request(signature: Signature) -> ComponentRequest:
    implementation, attribute, value, clock_width = signature
    return ComponentRequest(
        implementation=implementation,
        attributes={attribute: value},
        constraints=Constraints(clock_width=clock_width) if clock_width else None,
        detail="summary",
    )


def digest(values: Any) -> str:
    """A short, stable digest of JSON-able values (floats to 10 digits)."""

    def canonical(value: Any) -> Any:
        if isinstance(value, float):
            return float(f"{value:.10g}")
        if isinstance(value, (list, tuple)):
            return [canonical(item) for item in value]
        if isinstance(value, dict):
            return {key: canonical(item) for key, item in sorted(value.items())}
        return value

    text = json.dumps(canonical(values), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Digests:
    """Expected output digests keyed by request signature.

    In record mode, observed digests are collected instead of compared
    and :meth:`save` merges them into the expected file.
    """

    def __init__(self, path: Path, record: bool = False):
        self.path = path
        self.record = record
        self.expected: Dict[str, str] = (
            json.loads(path.read_text()) if path.exists() else {}
        )
        self.observed: Dict[str, str] = {}
        self.problems: List[str] = []

    def check(self, key: str, values: Any) -> None:
        value = digest(values)
        if self.record:
            self.observed[key] = value
            return
        expected = self.expected.get(key)
        if expected is None:
            self.problems.append(f"no expected digest for {key}")
        elif expected != value:
            self.problems.append(f"output of {key} differs from its expected digest")

    def check_summary(self, key: str, summary: Dict[str, Any]) -> None:
        self.check(key, [summary.get(field) for field in SUMMARY_FIELDS])

    def save(self) -> None:
        merged = dict(self.expected)
        merged.update(self.observed)
        self.path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")


def _zipf_cumulative(count: int, exponent: float) -> List[float]:
    total = 0.0
    cumulative = []
    for rank in range(1, count + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)
    return cumulative


class Workload:
    name = ""
    #: Percentile reported as ``tail_ms``; at the default run length at
    #: least 10 samples lie beyond it.
    tail_percentile = 99.0

    def __init__(self, seed: int, digests: Digests, smoke: bool = False):
        self.seed = seed
        self.digests = digests
        self.smoke = smoke
        self.rng = random.Random(seed)

    def server_args(self, run_dir: Path) -> List[str]:
        return ["--store-root", str(run_dir / "files")]

    def prepare(self, client) -> Dict[str, Any]:
        return {}

    def run(self, client, state: Dict[str, Any], phase) -> None:
        raise NotImplementedError

    def check(self, client, state: Dict[str, Any]) -> List[str]:
        return []

    def after_stop(self, state: Dict[str, Any], run_dir: Path, env: Dict) -> List[str]:
        return []

    # ------------------------------------------------------------- helpers

    def warm(self, client, signatures: Sequence[Signature]):
        """Request each signature once (untimed) and digest-check the answers.

        Returns the requests in the given order -- their popularity rank --
        with the ``(area, cells)`` each must keep answering once it is
        served from the cache.
        """
        requests, expected = [], []
        for signature in signatures:
            request = component_request(signature)
            response = client.execute(request)
            if not response.ok:
                raise RuntimeError(f"warm-up of {signature_key(signature)} failed: "
                                   f"{response.error}")
            self.digests.check_summary(signature_key(signature), response.value)
            requests.append(request)
            expected.append((response.value["area_um2"], response.value["cells"]))
        return requests, expected


class CachedLookup(Workload):
    """The hot path: a tool re-asking for components it already knows."""

    name = "cached_lookup"
    tail_percentile = 99.0
    IMPLEMENTATIONS = (
        "counter", "up_counter", "ripple_counter", "ripple_carry_adder",
        "adder_subtractor", "alu", "incrementer", "comparator", "register",
        "shift_register", "mux2", "mux4", "mux_scg2", "shifter",
        "barrel_shifter", "logic_unit",
    )
    QUERIES = (
        ComponentQuery(component="Counter"),
        ComponentQuery(component="Register"),
        ComponentQuery(component="Mux_scl"),
        ComponentQuery(functions=("ADD",)),
        ComponentQuery(functions=("INC",)),
    )
    TRANSACTION_OPS = 50
    #: Transactions per pass (each: ``TRANSACTION_OPS`` lookups and the
    #: two requests that end it and start the next).
    TRANSACTIONS = 240

    def signatures(self) -> List[Signature]:
        implementations = self.IMPLEMENTATIONS[:4] if self.smoke else self.IMPLEMENTATIONS
        return [
            (implementation, "size", size, clock_width)
            for implementation in implementations
            for size in (4, 8)
            for clock_width in (None, 30.0)
        ]

    def prepare(self, client) -> Dict[str, Any]:
        design = f"lookup-{self.seed}"
        client.execute(DesignOp(op="start_design", design=design)).unwrap()
        client.execute(DesignOp(op="start_transaction", design=design)).unwrap()
        requests, expected = self.warm(client, self.signatures())
        answers = []
        for query in self.QUERIES:
            value = client.execute(query).unwrap()
            self.digests.check(f"query/{query.component or ','.join(query.functions)}", value)
            answers.append(value)
        # Start the measured phase with an empty transaction.
        client.execute(DesignOp(op="end_transaction", design=design)).unwrap()
        client.execute(DesignOp(op="start_transaction", design=design)).unwrap()
        return {
            "design": design,
            "requests": requests,
            "expected": expected,
            "answers": answers,
            "latest": "",
            "mismatches": 0,
        }

    def run(self, client, state: Dict[str, Any], phase) -> None:
        rng = self.rng
        requests, expected = state["requests"], state["expected"]
        answers, queries = state["answers"], self.QUERIES
        cumulative = _zipf_cumulative(len(requests), 1.1)
        picks = range(len(requests))
        design = state["design"]
        execute = client.execute
        clock = time.perf_counter
        for _ in range(4 if self.smoke else self.TRANSACTIONS):
            draws = rng.choices(picks, cum_weights=cumulative, k=self.TRANSACTION_OPS)
            kinds = [rng.random() for _ in range(self.TRANSACTION_OPS)]
            for pick, kind in zip(draws, kinds):
                if kind < 0.8:
                    start = clock()
                    response = execute(requests[pick])
                    end = clock()
                    if response.ok:
                        value = response.value
                        state["latest"] = value["instance"]
                        if not response.cached or (
                            value["area_um2"], value["cells"]
                        ) != expected[pick]:
                            state["mismatches"] += 1
                elif kind < 0.9 or not state["latest"]:
                    index = pick % len(queries)
                    start = clock()
                    response = execute(queries[index])
                    end = clock()
                    if response.ok and response.value != answers[index]:
                        state["mismatches"] += 1
                else:
                    start = clock()
                    response = execute(
                        InstanceQuery(name=state["latest"], fields=("delay", "area"))
                    )
                    end = clock()
                    if response.ok and not all(response.value.get(f) for f in ("delay", "area")):
                        state["mismatches"] += 1
                phase.add(start, end, 1, 0 if response.ok else 1)
            # Garbage-collect the transaction's instances, as a tool
            # closing one design step would.
            for op in ("end_transaction", "start_transaction"):
                start = clock()
                response = execute(DesignOp(op=op, design=design))
                end = clock()
                phase.add(start, end, 1, 0 if response.ok else 1)
            state["latest"] = ""

    def check(self, client, state: Dict[str, Any]) -> List[str]:
        if state["mismatches"]:
            return [f"{state['mismatches']} cached answers differed from their reference"]
        return []


class ColdSweep(Workload):
    """The Figure-8 flow at first use: every request misses every cache."""

    name = "cold_sweep"
    tail_percentile = 95.0
    EQUIVALENCE_CHECKS = 10

    def signatures(self) -> List[Signature]:
        sized = SIZED[:3] if self.smoke else SIZED
        sizes = (2, 4) if self.smoke else SWEEP_SIZES
        signatures: List[Signature] = [
            (implementation, "size", size, None)
            for implementation in sized
            for size in sizes
        ]
        if not self.smoke:
            signatures += [
                (implementation, "size", size, None)
                for implementation in ("decoder", "encoder")
                for size in (2, 3, 4, 5, 6)
            ]
            signatures += [("clock_driver", "fanout", fanout, None) for fanout in (2, 4, 8, 16)]
        return signatures

    def prepare(self, client) -> Dict[str, Any]:
        # A size sweep: ascending sizes, implementations in seeded order
        # within each size.  Which templates the bounded stage caches
        # still hold at the end then barely depends on the seed, so the
        # server's peak memory does not either.
        blocks: Dict[int, List[Signature]] = {}
        for signature in self.signatures():
            blocks.setdefault(signature[2], []).append(signature)
        order: List[Signature] = []
        for size in sorted(blocks):
            self.rng.shuffle(blocks[size])
            order += blocks[size]
        return {"order": order, "answers": [], "mismatches": 0}

    def run(self, client, state: Dict[str, Any], phase) -> None:
        clock = time.perf_counter
        answers = state["answers"]
        for signature in state["order"]:
            request = component_request(signature)
            start = clock()
            response = client.execute(request)
            end = clock()
            answers.append((signature, response))
            phase.add(start, end, 1, 0 if response.ok else 1)

    def check(self, client, state: Dict[str, Any]) -> List[str]:
        problems = []
        instances = []
        for signature, response in state["answers"]:
            if not response.ok:
                continue
            if response.cached:
                problems.append(f"{signature_key(signature)} was served from the cache")
            self.digests.check_summary(signature_key(signature), response.value)
            if signature[0] != "tri_state":  # the documented verification exception
                instances.append(response.value["instance"])
        # Functional equivalence of synthesized netlists, outside the
        # timed window, on a seeded sample of this pass's instances.
        for name in self.rng.sample(instances, min(self.EQUIVALENCE_CHECKS, len(instances))):
            result = client.execute(CheckEquivalence(name=name))
            if not result.ok or not result.value.get("equivalent"):
                problems.append(f"{name} is not equivalent to its specification")
        return problems


class DesignSession(Workload):
    """Design transactions on a durable server: reads beside journaled writes."""

    name = "design_session"
    tail_percentile = 99.0
    PER_LIFECYCLE = 6
    KEPT = 2
    #: Lifecycles per pass.  A closed design stays in the designs table,
    #: which every design op scans, so the count is fixed: a faster
    #: server must not buy itself a bigger table.
    LIFECYCLES = 500

    def server_args(self, run_dir: Path) -> List[str]:
        return [
            "--data-dir", str(run_dir / "data"),
            "--journal-fsync", "interval",
            "--snapshot-interval", "1",
        ]

    def signatures(self) -> List[Signature]:
        implementations = [name for name in SIZED if name != "array_multiplier"]
        if self.smoke:
            implementations = implementations[:3]
        return [(name, "size", size, None) for name in implementations for size in (4, 8)]

    def prepare(self, client) -> Dict[str, Any]:
        requests, expected = self.warm(client, self.signatures())
        return {"requests": requests, "expected": expected, "mismatches": 0}

    def run(self, client, state: Dict[str, Any], phase) -> None:
        rng = self.rng
        requests, expected = state["requests"], state["expected"]
        cumulative = _zipf_cumulative(len(requests), 1.1)
        picks = range(len(requests))
        execute = client.execute
        clock = time.perf_counter
        for lifecycle in range(5 if self.smoke else self.LIFECYCLES):
            design = f"session-{self.seed}-{lifecycle}"
            draws = rng.choices(picks, cum_weights=cumulative, k=self.PER_LIFECYCLE)
            kept = rng.sample(range(self.PER_LIFECYCLE), self.KEPT)
            responses = []
            start = clock()
            responses.append(execute(DesignOp(op="start_design", design=design)))
            responses.append(execute(DesignOp(op="start_transaction", design=design)))
            names = []
            for pick in draws:
                response = execute(requests[pick])
                responses.append(response)
                if response.ok:
                    names.append(response.value["instance"])
                    if (response.value["area_um2"], response.value["cells"]) != expected[pick]:
                        state["mismatches"] += 1
            for index in kept:
                name = names[index] if index < len(names) else ""
                responses.append(execute(InstanceQuery(name=name, fields=("delay", "area"))))
                responses.append(execute(DesignOp(op="put_in_list", design=design, instance=name)))
            ended = execute(DesignOp(op="end_transaction", design=design))
            closed = execute(DesignOp(op="end_design", design=design))
            end = clock()
            responses += [ended, closed]
            if ended.ok and len(ended.value["removed"]) != self.PER_LIFECYCLE - self.KEPT:
                state["mismatches"] += 1
            if closed.ok and len(closed.value["removed"]) != self.KEPT:
                state["mismatches"] += 1
            failed = sum(1 for response in responses if not response.ok)
            phase.add(start, end, len(responses), failed)

    def check(self, client, state: Dict[str, Any]) -> List[str]:
        if state["mismatches"]:
            return [f"{state['mismatches']} lifecycle answers differed from expectations"]
        return []

    def after_stop(self, state: Dict[str, Any], run_dir: Path, env: Dict) -> List[str]:
        verify = subprocess.run(
            [sys.executable, "-m", "repro.store", "verify", "--data-dir", str(run_dir / "data")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if verify.returncode != 0:
            output = (verify.stdout + verify.stderr).strip()
            return [f"repro.store verify failed: {output[-500:]}"]
        return []


class DsePlan(Workload):
    """Design-space exploration: planner fan-out over the generation fleet."""

    name = "dse_plan"
    tail_percentile = 90.0
    SIZES = (2, 4, 6, 8)
    CLOCK_WIDTHS = (None, 20.0, 30.0, 40.0, 60.0)
    #: The component types of :data:`SIZED`: each plan explores every
    #: implementation of one type.
    FAMILIES = (
        "Counter", "Adder", "Adder_Subtractor", "ALU", "Comparator", "Multiplier",
        "Register", "Register_file", "Mux_scl", "Mux_scg", "Shifter",
        "Barrel_shifter", "Buffer", "Tri_state", "Schmitt_trigger", "Wire_or",
        "Delay", "Logic_unit",
    )

    def server_args(self, run_dir: Path) -> List[str]:
        return super().server_args(run_dir) + ["--fleet-workers", "2"]

    def prepare(self, client) -> Dict[str, Any]:
        families = self.FAMILIES[:2] if self.smoke else self.FAMILIES
        clock_widths = self.CLOCK_WIDTHS[:2] if self.smoke else self.CLOCK_WIDTHS
        plans = [(family, cw) for family in families for cw in clock_widths]
        self.rng.shuffle(plans)
        return {"plans": plans, "answers": []}

    def run(self, client, state: Dict[str, Any], phase) -> None:
        clock = time.perf_counter
        for family, clock_width in state["plans"]:
            spec = QuerySpec(
                select=(TypePredicate(component=family),),
                sweep=(("size", self.SIZES),),
                constraints=Constraints(clock_width=clock_width) if clock_width else None,
                objective=pareto("area", "delay"),
            )
            start = clock()
            response = client.execute(PlanQuery(query=spec))
            end = clock()
            state["answers"].append((family, clock_width, response))
            candidates = response.value["candidates"] if response.ok else []
            failed = sum(1 for c in candidates if c["status"] != "generated")
            phase.add(start, end, max(1, len(candidates)), failed if response.ok else 1)

    def check(self, client, state: Dict[str, Any]) -> List[str]:
        problems = []
        for family, clock_width, response in state["answers"]:
            if not response.ok:
                continue
            candidates = response.value["candidates"]
            for candidate in candidates:
                key = (f"plan/{candidate['implementation']}/size="
                       f"{candidate['parameters'].get('size')}/cw={clock_width or '-'}")
                self.digests.check(key, [candidate["metrics"].get(m) for m in PLAN_METRICS])
            front = pareto_front(candidates, ("area", "delay"))
            if sorted(front) != sorted(response.value["front"]):
                problems.append(
                    f"plan {family} cw={clock_width}: server front "
                    f"{sorted(response.value['front'])} != recomputed {sorted(front)}"
                )
        return problems


def pareto_front(candidates: Sequence[Dict[str, Any]], metrics: Sequence[str]) -> List[int]:
    """Indices of generated candidates no other generated one dominates."""
    epsilon = 1e-9
    generated = [
        (index, candidate["metrics"])
        for index, candidate in enumerate(candidates)
        if candidate["status"] == "generated"
    ]
    front = []
    for index, values in generated:
        dominated = any(
            all(other[m] <= values[m] + epsilon for m in metrics)
            and any(other[m] < values[m] - epsilon for m in metrics)
            for other_index, other in generated
            if other_index != index
        )
        if not dominated:
            front.append(index)
    return front


WORKLOADS = {
    workload.name: workload
    for workload in (CachedLookup, ColdSweep, DesignSession, DsePlan)
}
