"""ICDB core: the component server, generation manager, instance and
knowledge management."""

from ..lazy import lazy_exports
from .generation import (
    EmbeddedGenerator,
    GenerationError,
    GeneratorDescription,
    ToolDescription,
    ToolManager,
    default_tool_manager,
)
from .icdb import IcdbError
from .instances import (
    ComponentInstance,
    InstanceError,
    InstanceManager,
    TARGET_LAYOUT,
    TARGET_LOGIC,
)
from .knowledge import KnowledgeError, KnowledgeServer

# ICDB is a Session subclass in repro.api.service, which imports this
# package while it loads: resolve it on first access.
__getattr__, __dir__ = lazy_exports(globals(), {"repro.api.service": ("ICDB",)})[:2]

__all__ = [
    "ComponentInstance",
    "EmbeddedGenerator",
    "GenerationError",
    "GeneratorDescription",
    "ICDB",
    "IcdbError",
    "InstanceError",
    "InstanceManager",
    "KnowledgeError",
    "KnowledgeServer",
    "TARGET_LAYOUT",
    "TARGET_LOGIC",
    "ToolDescription",
    "ToolManager",
    "default_tool_manager",
]
