"""Generic component library: GENUS-style taxonomy plus parameterized IIF
component implementations and the catalog that indexes them."""

from ..lazy import lazy_exports

# ``genus`` is a submodule: ``from repro.components import genus`` imports it.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".catalog": (
        "CatalogError",
        "ComponentCatalog",
        "ComponentImplementation",
        "ControlSetting",
        "FunctionBinding",
        "standard_catalog",
    ),
    ".counters": (
        "COUNTER_IIF",
        "FIGURE5_CONFIGURATIONS",
        "RIPPLE_COUNTER_IIF",
        "TYPE_RIPPLE",
        "TYPE_SYNCHRONOUS",
        "UP_DOWN",
        "UP_ONLY",
        "counter_parameters",
    ),
})

__all__ = sorted([*__all__, "genus"])
