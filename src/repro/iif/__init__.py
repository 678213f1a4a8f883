"""Irvine Intermediate Form (IIF): language, parser, expander, flat form.

Public surface::

    from repro.iif import parse_module, Expander, FlatComponent

    module = parse_module(COUNTER_IIF_TEXT)
    flat = Expander().expand(module, {"size": 4, "type": 2, ...})
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".ast": (
        "Assign",
        "Binary",
        "Block",
        "CLine",
        "CallExpr",
        "DeclItem",
        "For",
        "If",
        "IifModule",
        "IifSyntaxError",
        "Name",
        "Num",
        "SubCall",
        "Unary",
    ),
    ".expander": ("Expander", "IifExpansionError", "expand_module"),
    ".flat": (
        "AsyncTerm",
        "CombAssign",
        "FlatComponent",
        "FlatIifError",
        "SeqAssign",
        "bus_signals",
        "expand_signal",
    ),
    ".lexer": ("Token", "tokenize"),
    ".parser": ("parse_expression", "parse_module", "parse_modules"),
    ".printer": (
        "assign_to_text",
        "expr_to_text",
        "flat_milo_body",
        "flat_to_milo",
        "module_to_iif",
    ),
})
