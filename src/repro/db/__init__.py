"""Relational engine, ICDB schema and design-data file store."""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".engine": ("Column", "Database", "DatabaseError", "Table"),
    ".schema": (
        "COMPONENT_TYPES",
        "DESIGNS",
        "DESIGN_FILES",
        "DESIGN_INSTANCES",
        "FUNCTIONS",
        "GENERATORS",
        "IMPLEMENTATIONS",
        "IMPLEMENTATION_FUNCTIONS",
        "INSTANCES",
        "TOOLS",
        "create_schema",
        "new_database",
    ),
    ".store": ("ARTIFACT_EXTENSIONS", "DesignDataStore", "StoreError"),
})
