"""First use of the Figure-8 flow: a lean-booted server imports it safely.

A server boots with the serving stack only and imports the flow on the
first request that generates, verifies, simulates or lays out.  Job
workers may reach that first use together, so two properties keep every
one of them from reading a half-imported module:

* the modules' load-time imports form no cycle.  Python's import lock
  makes a thread wait for a module another thread is importing; only a
  cycle (module A's body importing B while B's body, in another thread,
  imports A) lets a thread see a module that is still running, or raise a
  deadlock error.  Package ``__init__`` files import none of their
  submodules (they re-export lazily), so no package closes such a cycle
  with its children;
* concurrent first requests answer what a sequential run answers.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _load_time_imports(tree: ast.Module):
    """Import statements a module's body runs: none inside a function or
    under ``if TYPE_CHECKING``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            pending.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            pending.extend(getattr(node, field, None) or ())


def _import_graph():
    """``module -> modules its load imports``, plus the edge from every
    module to its package, which Python imports first (holding the
    module's lock) -- the edge an eager package ``__init__`` would close
    into a cycle."""
    paths = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}
    graph = {}
    for name, path in paths.items():
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        edges = {package} - {name}
        for node in _load_time_imports(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
            edges.update(target for target in targets if target in paths)
        graph[name] = edges
    return graph


def test_load_time_imports_form_no_cycle():
    # ``repro`` and ``repro.lazy`` import each other, but every import of a
    # repro module loads both first, in the importing thread.
    graph = _import_graph()
    preloaded = {"repro", "repro.lazy"}
    state = {}  # name -> "open" while on the walk's stack, "done" after

    def walk(name, path):
        state[name] = "open"
        for target in sorted(graph[name] - preloaded):
            if state.get(target) == "open":
                cycle = path[path.index(target):] + [target]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if target not in state:
                walk(target, path + [target])
        state[name] = "done"

    for name in sorted(set(graph) - preloaded):
        if name not in state:
            walk(name, [name])


#: Boots a service lean, sends eight first requests at once as jobs on four
#: workers (cold generations of different implementations and a plan), then
#: with one instance in place a check, a simulation and a layout together;
#: then sends the same requests one by one to a fresh service.  Prints each
#: run's answers with the plan's timings and generated names left out.
_FIRST_USE = """
import json
import sys
import tempfile

from repro.api import ComponentService
from repro.api.messages import (
    CheckEquivalence,
    ComponentRequest,
    LayoutRequest,
    PlanQuery,
    Simulate,
)
from repro.api.query import QuerySpec, TypePredicate, pareto

FLOW = ("repro.iif", "repro.logic", "repro.netlist", "repro.sim", "repro.core.generation")

first = [
    ComponentRequest(implementation=name, attributes={"size": 4},
                     instance_name=name + "_first", detail="summary")
    for name in ("counter", "ripple_carry_adder", "alu", "comparator",
                 "register", "mux4", "shifter")
]
first.append(PlanQuery(query=QuerySpec(
    select=(TypePredicate("array_multiplier"),),
    sweep=(("size", (2, 3)),),
    objective=pareto("area", "delay"),
)))
then = [
    CheckEquivalence(name="counter_first"),
    Simulate(name="ripple_carry_adder_first",
             vectors=tuple({"I0[0]": a, "I1[0]": b} for a in (0, 1) for b in (0, 1))),
    LayoutRequest(name="alu_first", strips=2),
]


def answer(response):
    assert response.ok, response.error
    value = response.value
    if isinstance(value, dict) and "candidates" in value:
        value = dict(value, explain=None, candidates=[
            dict(candidate, instance=None) for candidate in value["candidates"]
        ])
    return value


def run(submit):
    with tempfile.TemporaryDirectory() as root:
        service = ComponentService(store_root=root, job_workers=4)
        session = service.create_session()
        lean = not any(m.startswith(FLOW) for m in sys.modules)
        answers = []
        for batch in (first, then):
            if submit:
                handles = [session.submit(request) for request in batch]
                answers += [answer(handle.response(timeout=120)) for handle in handles]
            else:
                answers += [answer(session.execute(request)) for request in batch]
        service.jobs.shutdown()
        return lean, answers


lean, concurrent = run(submit=True)
_, sequential = run(submit=False)
print(json.dumps({"lean": lean, "same": concurrent == sequential,
                  "answers": len(concurrent)}))
"""


def test_concurrent_first_use_answers_what_a_sequential_run_answers(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_USE],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"lean": True, "same": True, "answers": 11}
