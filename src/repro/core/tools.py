"""Tool management (Section 4.2): the registry of tools and component
generators.

A *component generator* is an ordered list of tool steps: step 1 produces
delay and shape-function estimates from a design description, step 2
generates the layout.  The paper inserts external tools via shell
scripts; here a tool is a named callable with a step classification, and
:func:`default_tool_manager` registers the steps of ICDB's embedded
generator (:class:`~repro.core.generation.EmbeddedGenerator`).  The
registry runs nothing itself, so a server records it at boot without
loading the Figure-8 flow.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..wire import Record

#: The name the embedded Figure-8 generator registers under.
EMBEDDED_GENERATOR = "icdb_embedded_generator"


class GenerationError(RuntimeError):
    """Raised when a component cannot be generated."""


class ToolDescription(Record):
    """One registered tool: a named callable with a step classification."""

    name: str
    step: str  # "estimate" or "layout"
    description: str = ""
    runner: Optional[Callable] = None


class GeneratorDescription(Record):
    """A component generator: an ordered list of (step number, tool name)."""

    name: str
    input_format: str
    steps: Tuple[Tuple[int, str], ...]
    description: str = ""


class ToolManager:
    """Registry of tools and component generators (Section 4.2)."""

    def __init__(self) -> None:
        self._tools: Dict[str, ToolDescription] = {}
        self._generators: Dict[str, GeneratorDescription] = {}

    def register_tool(
        self,
        name: str,
        step: str,
        runner: Optional[Callable] = None,
        description: str = "",
    ) -> ToolDescription:
        tool = ToolDescription(name=name, step=step, description=description, runner=runner)
        self._tools[name] = tool
        return tool

    def register_generator(
        self,
        name: str,
        input_format: str,
        steps: Sequence[Tuple[int, str]],
        description: str = "",
    ) -> GeneratorDescription:
        for _, tool_name in steps:
            if tool_name not in self._tools:
                raise GenerationError(
                    f"generator {name!r} references unknown tool {tool_name!r}; "
                    "a tool which does not belong to any component generator will "
                    "never be used"
                )
        generator = GeneratorDescription(
            name=name,
            input_format=input_format,
            steps=tuple(sorted(steps)),
            description=description,
        )
        self._generators[name] = generator
        return generator

    def tools(self) -> List[ToolDescription]:
        return list(self._tools.values())

    def generators(self) -> List[GeneratorDescription]:
        return list(self._generators.values())

    def generator_for_format(self, input_format: str) -> Optional[GeneratorDescription]:
        for generator in self._generators.values():
            if generator.input_format == input_format:
                return generator
        return None

    def unused_tools(self) -> List[str]:
        """Tools not referenced by any generator (never used by ICDB)."""
        used = {tool for gen in self._generators.values() for _, tool in gen.steps}
        return [name for name in self._tools if name not in used]


def default_tool_manager() -> ToolManager:
    """Tool manager pre-loaded with the embedded generator's tool steps."""
    manager = ToolManager()
    manager.register_tool("iif_expander", "estimate", description="IIF macro expansion")
    manager.register_tool("milo", "estimate", description="logic optimization and technology mapping")
    manager.register_tool("tilos_sizer", "estimate", description="transistor sizing")
    manager.register_tool("delay_estimator", "estimate", description="X/Y/Z path delay estimation")
    manager.register_tool("area_estimator", "estimate", description="strip width / track estimation")
    manager.register_tool("les_layout", "layout", description="strip layout generation")
    manager.register_tool("cif_writer", "layout", description="CIF emission")
    manager.register_generator(
        EMBEDDED_GENERATOR,
        input_format="iif",
        steps=(
            (1, "iif_expander"),
            (1, "milo"),
            (1, "tilos_sizer"),
            (1, "delay_estimator"),
            (1, "area_estimator"),
            (2, "les_layout"),
            (2, "cif_writer"),
        ),
        description="ICDB embedded component generation path (Figure 8)",
    )
    return manager
