"""Synthetic standard-cell library (delay X/Y/Z parameters, widths, tracks)."""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".cells": (
        "BASE_STRIP_HEIGHT_UM",
        "Cell",
        "CellLibrary",
        "CellLibraryError",
        "MAX_SIZE",
        "MIN_SIZE",
        "TRACK_PITCH_UM",
        "WIDTH_PER_TRANSISTOR_UM",
        "default_library",
        "standard_cells",
    ),
})
