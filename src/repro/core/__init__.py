"""ICDB core: the component server, generation manager, instance and
knowledge management."""

from ..lazy import lazy_exports

# Resolved on first access: the instance registry and the tool and
# knowledge registries are part of every boot, the generation manager
# (the Figure-8 flow) only of the first request that generates.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".generation": ("EmbeddedGenerator",),
    ".icdb": ("IcdbError",),
    ".instances": (
        "ComponentInstance",
        "InstanceError",
        "InstanceManager",
        "TARGET_LAYOUT",
        "TARGET_LOGIC",
    ),
    ".knowledge": ("KnowledgeError", "KnowledgeServer"),
    ".tools": (
        "GenerationError",
        "GeneratorDescription",
        "ToolDescription",
        "ToolManager",
        "default_tool_manager",
    ),
    "repro.api.service": ("ICDB",),
})
