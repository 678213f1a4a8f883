"""Component Query Language: parser, executor, ``ICDB()`` call interface and
interactive session."""

from ..lazy import lazy_exports

# Resolved on first access, so ``python -m repro.cql.interactive`` runs
# its module once instead of finding it already imported by the package.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".executor": ("CqlExecutionError", "CqlExecutor"),
    ".icdb_call": ("IcdbCall", "OutParam", "make_icdb_call"),
    ".interactive": ("InteractiveSession", "format_result"),
    ".parser": (
        "CqlCommand",
        "CqlSyntaxError",
        "CqlTerm",
        "VariableSlot",
        "parse_command",
        "split_terms",
    ),
})
