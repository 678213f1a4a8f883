"""Knowledge acquisition support (Section 2.2).

Users extend ICDB by inserting component definitions, component
implementations (IIF descriptions), component generators and tools.  The
:class:`KnowledgeServer` wraps those insertions: it parses and registers a
new IIF implementation in the catalog, records its metadata in the
relational database, and stores the source text in the design-data store.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..components import genus
from ..components.catalog import (
    ComponentCatalog,
    ComponentImplementation,
    FunctionBinding,
)
from ..db import (
    COMPONENT_TYPES,
    FUNCTIONS,
    GENERATORS,
    IMPLEMENTATIONS,
    IMPLEMENTATION_FUNCTIONS,
    TOOLS,
    Database,
    DesignDataStore,
)
from .tools import GeneratorDescription, ToolDescription, ToolManager


class KnowledgeError(ValueError):
    """Raised when an insertion is malformed."""


class KnowledgeServer:
    """Inserts component knowledge into the catalog, database and store."""

    def __init__(
        self,
        catalog: ComponentCatalog,
        database: Database,
        store: DesignDataStore,
        tool_manager: ToolManager,
    ):
        self.catalog = catalog
        self.database = database
        self.store = store
        self.tool_manager = tool_manager

    # ------------------------------------------------------------- bootstrap

    def load_catalog(self) -> int:
        """Record every catalog implementation in the database (idempotent)."""
        count = 0
        functions_table = self.database.table(FUNCTIONS)
        for name in genus.ALL_FUNCTIONS:
            if functions_table.get(name=name) is None:
                functions_table.insert(name=name, group=genus.function_group(name))
        types_table = self.database.table(COMPONENT_TYPES)
        for component_type in genus.all_component_types():
            if types_table.get(name=component_type.name) is None:
                types_table.insert(
                    name=component_type.name,
                    description=component_type.description,
                    functions=list(component_type.functions),
                )
        for implementation in self.catalog.implementations():
            if self._record_implementation(implementation):
                count += 1
        return count

    def _record_implementation(self, implementation: ComponentImplementation) -> bool:
        table = self.database.table(IMPLEMENTATIONS)
        if table.get(name=implementation.name) is not None:
            return False
        iif_path = self.store.write(implementation.name, "iif", implementation.iif_source)
        table.insert(
            name=implementation.name,
            component_type=implementation.component_type,
            description=implementation.description,
            format="iif",
            parameters=dict(implementation.default_parameters),
            iif_file=iif_path,
            fixed=implementation.fixed,
        )
        link_table = self.database.table(IMPLEMENTATION_FUNCTIONS)
        for function in implementation.functions:
            link_table.insert(implementation=implementation.name, function=function)
        return True

    # ------------------------------------------------------------- insertion

    def insert_implementation(
        self,
        iif_source: str,
        component_type: str,
        functions: Sequence[str],
        name: Optional[str] = None,
        default_parameters: Optional[Mapping[str, int]] = None,
        bindings: Sequence[FunctionBinding] = (),
        description: str = "",
        subfunction_sources: Sequence[str] = (),
    ) -> ComponentImplementation:
        """Insert a new parameterized component implementation from IIF text."""
        from ..iif import parse_module

        module = parse_module(iif_source)
        implementation_name = name or module.name.lower()
        if implementation_name in self.catalog:
            raise KnowledgeError(
                f"an implementation named {implementation_name!r} already exists"
            )
        if not genus.is_component_type(component_type):
            raise KnowledgeError(f"unknown component type {component_type!r}")
        declared = {item.ident for item in module.parameters}
        defaults = dict(default_parameters or {})
        missing = declared - set(defaults)
        if missing:
            raise KnowledgeError(
                f"default values missing for parameters {sorted(missing)} of "
                f"{implementation_name!r}"
            )
        implementation = ComponentImplementation(
            name=implementation_name,
            component_type=genus.component_type(component_type).name,
            functions=tuple(functions),
            iif_source=iif_source,
            default_parameters=defaults,
            bindings=tuple(bindings),
            description=description,
            subfunction_sources=tuple(subfunction_sources),
        )
        self.catalog.add(implementation)
        self._record_implementation(implementation)
        return implementation

    def insert_tool(
        self, name: str, step: str, description: str = "", runner=None
    ) -> ToolDescription:
        """Register an external tool (the paper wraps each in a shell script)."""
        tool = self.tool_manager.register_tool(name, step, runner, description)
        table = self.database.table(TOOLS)
        if table.get(name=name) is None:
            table.insert(name=name, description=description, step=step)
        return tool

    def insert_generator(
        self,
        name: str,
        input_format: str,
        steps: Sequence[Tuple[int, str]],
        description: str = "",
    ) -> GeneratorDescription:
        """Register a component generator as an ordered list of tool steps."""
        generator = self.tool_manager.register_generator(
            name, input_format, steps, description
        )
        table = self.database.table(GENERATORS)
        if table.get(name=name) is None:
            table.insert(
                name=name,
                description=description,
                input_format=input_format,
                steps=[list(step) for step in generator.steps],
            )
        return generator
