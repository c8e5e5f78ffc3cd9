"""Two-colorings of the plane and monochromatic triangle search."""

from .geom import (
    DEFAULT_TOL,
    Circle,
    CircleHit,
    DegenerateSegment,
    DistanceMismatch,
    GeometryError,
    Infeasible,
    Point,
    Region,
    RigidMotion,
    Segment,
    TriangleSpec,
    UnitVector,
    circle_polyline_intersections,
    distance,
    place_triangle,
    rotate_about,
    third_vertex,
)
from .colorings import (
    BoundaryPiece,
    Color,
    HalfPlaneColoring,
    MalformedProfile,
    PolygonalColoring,
    SchemaError,
    StripColoring,
    UnresolvedFace,
    ZebraColoring,
    ZebraConditionReport,
    ZebraProfile,
    all_black_coloring,
    check_zebra_conditions,
    coloring_from_dict,
    l_shape_coloring,
)
from .scan import (
    AlmostUnitPair,
    AvoidanceReport,
    HexagonProbe,
    NotOnBoundary,
    ScanGrid,
    ScanWitness,
    avoidance_scan,
    boundary_angle_audit,
    find_almost_unit,
    find_monochromatic_copy,
    hexagon_probe,
    verify_witness,
)
from .forcing import (
    ConstructionInconsistent,
    DegenerateSides,
    EightPointConfig,
    ForcingVerdict,
    TripleClassification,
    build_config,
    classify_triples,
    forcing_check_i,
    forcing_check_ii,
)
from .lines import (
    AllParallel,
    Line,
    LinesSolution,
    solve_unit_triangles,
    sweep_oracle,
)
from .render import RenderSpec, render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
