"""Two-colorings of the plane and monochromatic triangle search.

The public names load lazily (PEP 562): ``import monotri`` imports no
submodule, and the first use of a name, as ``monotri.X`` or
``from monotri import X``, imports the module that defines it.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "geom": (
        "DEFAULT_TOL", "Circle", "CircleHit", "DegenerateSegment", "DistanceMismatch",
        "GeometryError", "Infeasible", "Point", "Region", "RigidMotion", "SchemaError",
        "Segment", "TriangleSpec", "UnitVector", "distance", "place_triangle",
        "rotate_about", "third_vertex",
    ),
    "colorings": (
        "BoundaryPiece", "Color", "HalfPlaneColoring", "MalformedProfile",
        "PolygonalColoring", "StripColoring", "UnresolvedFace", "ZebraColoring",
        "ZebraConditionReport", "ZebraProfile", "all_black_coloring",
        "check_zebra_conditions", "circle_polyline_intersections", "coloring_from_dict",
        "l_shape_coloring",
    ),
    "scan": (
        "AlmostUnitPair", "AvoidanceReport", "HexagonProbe", "NotOnBoundary", "ScanGrid",
        "ScanWitness", "avoidance_scan", "boundary_angle_audit", "find_almost_unit",
        "find_monochromatic_copy", "hexagon_probe", "verify_witness",
    ),
    "forcing": (
        "ConstructionInconsistent", "DegenerateSides", "EightPointConfig", "ForcingVerdict",
        "TripleClassification", "build_config", "classify_triples", "forcing_check_i",
        "forcing_check_ii",
    ),
    "lines": ("AllParallel", "Line", "LinesSolution", "solve_unit_triangles", "sweep_oracle"),
    "render": ("RenderSpec", "render_svg"),
}

# Each public name, and each submodule's own name, with the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
