"""Behavioral-synthesis client demonstrating ICDB's role (Figure 1)."""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".allocation": (
        "Allocation",
        "AllocationError",
        "FunctionalUnit",
        "allocate",
        "storage_requirements",
    ),
    ".datapath": (
        "Datapath",
        "DatapathError",
        "IcdbClient",
        "SimpleComputer",
        "build_datapath",
        "build_simple_computer",
        "control_logic_iif",
        "generate_control_logic",
    ),
    ".dfg": ("DataFlowGraph", "DfgError", "Operation", "expression_dfg"),
    ".scheduling": (
        "Schedule",
        "ScheduledOperation",
        "SchedulingError",
        "choose_clock_width",
        "function_delay_table",
        "schedule_asap",
    ),
})
