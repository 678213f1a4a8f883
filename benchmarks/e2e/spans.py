"""The span table: which entry points the traced server wraps, and as what.

Each row names one layer boundary of the ICDB server as
``(span name, module, attribute path)``.  ``traced_server.py`` resolves
every row at start-up and wraps it with a timing span; a row that does
not resolve (a refactor renamed or moved the function) stops the traced
server before it serves anything, so a layer can never silently drop out
of the ledger.

Module-level functions are wrapped where their *caller* looks them up
(``synthesize`` as ``repro.core.generation.synthesize``), because a
``from x import y`` binding is what the call site actually reads.
"""

from __future__ import annotations

from typing import Dict, Tuple

SPANS: Tuple[Tuple[str, str, str], ...] = (
    # The wire: frame JSON codec and the per-connection state machine.
    ("net.decode_frame", "repro.net.protocol", "decode_frame"),
    ("net.encode_frame", "repro.net.protocol", "encode_frame"),
    ("net.send", "repro.net.protocol", "FrameStream.send"),
    ("net.dispatch", "repro.net.server", "FrameDispatcher.dispatch"),
    ("net.decode_request", "repro.net.server", "request_from_dict"),
    ("net.encode_response", "repro.api.messages", "Response.to_dict"),
    # The service: request execution, summaries, persistence, planning.
    ("api.execute", "repro.api.service", "ComponentService.execute"),
    ("api.summary", "repro.api.service", "instance_summary"),
    ("api.persist", "repro.api.service", "ComponentService.register_instance"),
    ("api.plan", "repro.api.planner", "Planner.plan"),
    ("api.jobs.wait", "repro.api.service", "JobManager.run_many"),
    # The Figure-8 generation flow.
    ("core.expand", "repro.core.generation", "EmbeddedGenerator._expand_implementation"),
    ("logic.synthesize", "repro.core.generation", "synthesize"),
    ("logic.prime_implicants", "repro.logic.minimize", "prime_implicants"),
    ("sizing.size", "repro.core.generation", "size_for_constraints"),
    ("estimation.delay", "repro.sizing.tilos", "estimate_delay"),
    ("estimation.shape", "repro.core.generation", "shape_function"),
    ("estimation.area", "repro.estimation.area", "AreaEstimator.alternatives"),
    # The relational database and the design-data file store.
    ("db.insert", "repro.db.engine", "Table.insert"),
    ("db.update", "repro.db.engine", "Table.update"),
    ("db.delete", "repro.db.engine", "Table.delete"),
    ("db.select", "repro.db.engine", "Table.select"),
    ("db.files.write", "repro.db.store", "DesignDataStore.write"),
    ("db.files.remove", "repro.db.store", "DesignDataStore.remove_instance"),
    # The durable store: write-ahead journal and background snapshots.
    ("store.journal.append", "repro.store.journal", "JournalWriter.append"),
    ("store.snapshot", "repro.store.durable", "DurableStore.snapshot"),
    # The generation fleet.
    ("fleet.prewarm_wait", "repro.fleet.dispatcher", "FleetDispatcher.prewarm_requests"),
    ("fleet.install", "repro.fleet.dispatcher", "install_bundle"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(name for name, _, _ in SPANS)

#: Spans that must record at least one call in a traced run of each
#: workload.  A refactor that moves work off a wrapped entry point shows
#: up here as a failed run instead of a layer quietly reading zero.
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "cached_lookup": (
        "net.dispatch", "net.decode_frame", "net.encode_frame", "net.send", "api.execute",
        "api.summary", "api.persist", "db.insert", "db.delete",
    ),
    "cold_sweep": (
        "net.dispatch", "api.persist", "core.expand", "logic.synthesize",
        "logic.prime_implicants", "sizing.size", "estimation.delay",
        "estimation.shape", "estimation.area", "db.files.write",
    ),
    "design_session": (
        "net.dispatch", "api.persist", "db.insert", "db.update", "db.delete",
        "db.select", "store.journal.append",
    ),
    "dse_plan": (
        "net.dispatch", "api.plan", "api.jobs.wait", "fleet.prewarm_wait",
        "fleet.install", "api.persist",
    ),
}
