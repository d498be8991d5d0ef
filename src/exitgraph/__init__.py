"""Exit edges of planar point sets.

Compute the exit graph of a labeled point set in general position three
independent ways (double-wedge brute force, 4-hole characterization, dual
projective line arrangement), verify counting bounds and structural
properties, and emit deterministic reports and SVG figures.
"""

from .geometry import (
    CollinearTripleError,
    DuplicatePointError,
    ExitEdge,
    GeometryError,
    Point,
    PointSet,
    SizeMismatchError,
    TooFewPointsError,
    certify_general_position,
    convex_hull,
    point,
    shear_to_generic,
    trusted_point_set,
)
from .oracle import (
    FourHole,
    LabelOutOfRangeError,
    NonDistinctLabelsError,
    enumerate_four_holes,
    exit_edges_bruteforce,
    exit_edges_via_holes,
    is_exit_edge_with_witness,
)
from .dual import (
    ConcurrentLinesError,
    DualTriangle,
    ExitGraph,
    NonDistinctSlopesError,
    TripleSharedExitVertexError,
    dual_triangles,
    exit_edges_dual,
)
from .analysis import (
    ExitStructureComparison,
    LineStats,
    StatsReport,
    compare_exit_structures,
    exit_graph_crossings,
    exit_graph_stats,
    outer_face_vertices,
    random_general_position,
    same_order_type_labeled,
    search_min_exit_edges,
    stats_report,
)
from .morph import (
    ImmediateDegeneracyError,
    MorphEvent,
    QuadraticRoot,
    first_collinearity_morph,
)
from .pointfile import (
    PointSyntaxError,
    parse_point_list,
    parse_points,
    serialize_points,
)
from .report import build_report, render_json
from .svg import render_svg

__version__ = "0.1.0"
