"""Strip-based layout generation and slicing floorplanning."""

from ..lazy import lazy_exports

# The floorplanner's module is ``slicing``, not ``floorplan``: importing a
# submodule binds its name on the package, which would shadow the
# ``floorplan`` function exported here.
__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".slicing": (
        "Block",
        "FloorplanResult",
        "Placement",
        "Shape",
        "Slice",
        "floorplan",
        "row",
        "stack",
    ),
    ".generator": (
        "ComponentLayout",
        "LayoutError",
        "LayoutRect",
        "PlacedPort",
        "generate_layout",
    ),
    ".strips": (
        "PlacedCell",
        "StripPlacement",
        "net_spans",
        "place_in_strips",
        "routing_tracks_per_strip",
    ),
})
