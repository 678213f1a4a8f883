"""Transistor sizing tool (TILOS-like greedy critical-path sizing)."""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".tilos": ("SizingOptions", "SizingResult", "size_for_constraints"),
})
