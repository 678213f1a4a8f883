"""Component implementation catalog (the generic component library).

An ICDB *component implementation* is a parameterized description of a
component (Section 4.1 of the paper).  Here every implementation carries:

* the IIF source text of the parameterized description (plus the sources of
  any sub-functions it calls);
* the component type and the functions the implementation performs;
* default parameter values and the mapping from GENUS attributes to IIF
  parameters;
* *connection information*: for every function, which control ports must be
  driven to which values and how the function's operands map onto component
  ports (the ``## function`` records returned by ``connect_component``).

:class:`ComponentCatalog` is the in-memory generic component library; the
ICDB core stores its records in the relational database and resolves back to
these objects for generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..fingerprint import stable_fingerprint
from ..iif import Expander, FlatComponent, IifModule, parse_module
from . import genus


class CatalogError(KeyError):
    """Raised when a catalog lookup fails."""


@dataclass(frozen=True)
class ControlSetting:
    """One ``** port value [qualifier]`` line of connection information."""

    port: str
    value: int
    qualifier: str = ""

    def render(self) -> str:
        text = f"** {self.port} {self.value}"
        if self.qualifier:
            text += f" {self.qualifier}"
        return text


@dataclass(frozen=True)
class FunctionBinding:
    """How a component executes one function.

    ``operand_map`` maps function operand names (``I0``, ``I1``, ``O0``,
    ``Cin`` ...) onto component port base names; ``controls`` lists the
    control-port values needed to invoke the function; ``polarity`` records
    whether the mapped output is active high or low.
    """

    function: str
    operand_map: Tuple[Tuple[str, str], ...] = ()
    controls: Tuple[ControlSetting, ...] = ()
    polarity: str = "high"

    def operands(self) -> Dict[str, str]:
        return dict(self.operand_map)

    def render(self) -> str:
        """Render in the paper's connection-information format."""
        lines = [f"## function {self.function}"]
        for operand, port in self.operand_map:
            lines.append(f"{operand} is {port} {self.polarity}")
        for control in self.controls:
            lines.append(control.render())
        return "\n".join(lines)


@dataclass
class ComponentImplementation:
    """A parameterized component implementation stored in the library."""

    name: str
    component_type: str
    functions: Tuple[str, ...]
    iif_source: str
    default_parameters: Dict[str, int] = field(default_factory=dict)
    bindings: Tuple[FunctionBinding, ...] = ()
    description: str = ""
    attribute_parameters: Dict[str, str] = field(default_factory=lambda: {"size": "size"})
    subfunction_sources: Tuple[str, ...] = ()
    fixed: bool = False

    def __post_init__(self) -> None:
        self._module: Optional[IifModule] = None
        self._subfunctions: Optional[Dict[str, IifModule]] = None
        self._fingerprint: Optional[int] = None
        self.functions = tuple(genus.normalize_function(f) for f in self.functions)

    def fingerprint(self) -> int:
        """A stable identity of everything expansion reads.

        Two implementations that share a name but differ in source (two
        services with different catalogs sharing one generation cache)
        must never serve each other's expansions; the fingerprint covers
        the IIF source, the sub-function sources, the functions list and
        the defaults.  It is a process-stable content digest (never the
        randomized built-in ``hash``), so cache keys carrying it match
        between a fleet worker and the server it ships entries to.
        """
        if self._fingerprint is None:
            self._fingerprint = stable_fingerprint(
                self.name,
                self.component_type,
                self.functions,
                self.iif_source,
                self.subfunction_sources,
                tuple(sorted(self.default_parameters.items())),
            )
        return self._fingerprint

    # ---------------------------------------------------------------- parsing

    def module(self) -> IifModule:
        """Parsed (and cached) IIF module of this implementation."""
        if self._module is None:
            self._module = parse_module(self.iif_source)
        return self._module

    def subfunction_modules(self) -> Dict[str, IifModule]:
        """Parsed modules of the sub-functions this implementation calls."""
        if self._subfunctions is None:
            modules: Dict[str, IifModule] = {}
            for source in self.subfunction_sources:
                module = parse_module(source)
                modules[module.name.upper()] = module
            self._subfunctions = modules
        return self._subfunctions

    def parameter_names(self) -> List[str]:
        return self.module().parameter_names()

    # --------------------------------------------------------------- expansion

    def resolve_parameters(
        self, overrides: Optional[Mapping[str, int]] = None
    ) -> Dict[str, int]:
        """Default parameter values with ``overrides`` applied.

        Unknown override keys raise :class:`CatalogError` so that typos in
        attribute names are reported instead of silently ignored.
        """
        values = dict(self.default_parameters)
        if overrides:
            known = set(self.parameter_names())
            for key, value in overrides.items():
                if key not in known:
                    raise CatalogError(
                        f"{self.name} has no parameter {key!r} "
                        f"(parameters: {sorted(known)})"
                    )
                values[key] = int(value)
        missing = [p for p in self.parameter_names() if p not in values]
        if missing:
            raise CatalogError(
                f"{self.name} is missing values for parameters {missing}"
            )
        return values

    def expand(
        self,
        parameters: Optional[Mapping[str, int]] = None,
        name: Optional[str] = None,
        extra_library: Optional[Mapping[str, IifModule]] = None,
    ) -> FlatComponent:
        """Expand the implementation with the given parameter overrides."""
        library: Dict[str, IifModule] = dict(self.subfunction_modules())
        if extra_library:
            for key, module in extra_library.items():
                library[key.upper()] = module
        expander = Expander(library)
        values = self.resolve_parameters(parameters)
        flat = expander.expand(self.module(), values, name=name)
        if not flat.functions:
            flat.functions = list(self.functions)
        return flat

    # --------------------------------------------------------------- metadata

    def performs(self, functions: Iterable[str]) -> bool:
        """True if this implementation performs every function in the set."""
        wanted = {genus.normalize_function(f) for f in functions}
        return wanted.issubset(set(self.functions))

    def binding_for(self, function: str) -> FunctionBinding:
        canonical = genus.normalize_function(function)
        for binding in self.bindings:
            if binding.function == canonical:
                return binding
        raise CatalogError(f"{self.name} has no binding for function {function!r}")

    def connection_info(self) -> str:
        """Connection information for every function, paper format."""
        return "\n".join(binding.render() for binding in self.bindings)

    def supports_attributes(self, names: Iterable[str]) -> bool:
        """True if every named GENUS attribute maps onto an IIF parameter."""
        return all(name in self.attribute_parameters for name in names)

    def attributes_to_parameters(
        self, attributes: Optional[Mapping[str, object]] = None
    ) -> Dict[str, int]:
        """Translate GENUS attribute values into IIF parameter overrides."""
        overrides: Dict[str, int] = {}
        if not attributes:
            return overrides
        for attribute, value in attributes.items():
            parameter = self.attribute_parameters.get(attribute)
            if parameter is not None:
                overrides[parameter] = int(value)
        return overrides


class ComponentCatalog:
    """The generic component library: named parameterized implementations."""

    def __init__(self) -> None:
        self._implementations: Dict[str, ComponentImplementation] = {}

    def __len__(self) -> int:
        return len(self._implementations)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._implementations

    def add(self, implementation: ComponentImplementation) -> ComponentImplementation:
        key = implementation.name.lower()
        if key in self._implementations:
            raise CatalogError(f"implementation {implementation.name!r} already registered")
        self._implementations[key] = implementation
        return implementation

    def get(self, name: str) -> ComponentImplementation:
        try:
            return self._implementations[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"no implementation named {name!r}") from exc

    def implementations(self) -> List[ComponentImplementation]:
        return list(self._implementations.values())

    def names(self) -> List[str]:
        return [impl.name for impl in self._implementations.values()]

    def by_component_type(self, component_type: str) -> List[ComponentImplementation]:
        """Implementations of the given component type (case-insensitive)."""
        wanted = component_type.lower()
        return [
            impl
            for impl in self._implementations.values()
            if impl.component_type.lower() == wanted
        ]

    def by_functions(self, functions: Iterable[str]) -> List[ComponentImplementation]:
        """Implementations that perform *all* of the requested functions."""
        wanted = list(functions)
        return [impl for impl in self._implementations.values() if impl.performs(wanted)]

    def functions_of(self, name: str) -> List[str]:
        return list(self.get(name).functions)

    def known_attributes(self) -> List[str]:
        """Every attribute name some implementation maps (sorted).

        This is the attribute vocabulary of the catalog: queries naming an
        attribute outside it are rejected with ``E_INVALID`` instead of
        silently dropping the filter.
        """
        names = {
            attribute
            for impl in self._implementations.values()
            for attribute in impl.attribute_parameters
        }
        return sorted(names)

    def component_types(self) -> List[str]:
        seen: List[str] = []
        for impl in self._implementations.values():
            if impl.component_type not in seen:
                seen.append(impl.component_type)
        return seen


_STANDARD: Optional[ComponentCatalog] = None


def standard_catalog(fresh: bool = False) -> ComponentCatalog:
    """Return the catalog populated with every built-in implementation.

    The catalog is built once and cached; pass ``fresh=True`` to get an
    independent copy (used by tests that mutate the catalog).
    """
    global _STANDARD
    if _STANDARD is None or fresh:
        catalog = ComponentCatalog()
        from . import arithmetic, counters, interface, selectors, storage

        counters.register(catalog)
        arithmetic.register(catalog)
        storage.register(catalog)
        selectors.register(catalog)
        interface.register(catalog)
        if fresh:
            return catalog
        _STANDARD = catalog
    return _STANDARD
