"""Delay, area and shape-function estimators (Section 4.4 of the paper)."""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".area": (
        "AreaEstimator",
        "AreaRecord",
        "estimate_area",
        "render_area_records",
        "track_utilization",
    ),
    ".delay": ("DelayAnalysis", "DelayReport", "estimate_delay"),
    ".shape": ("ShapeFunction", "pareto_filter", "shape_function"),
})
