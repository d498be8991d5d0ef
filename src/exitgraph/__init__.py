"""Exit edges of planar point sets.

Compute the exit graph of a labeled point set in general position three
independent ways (double-wedge brute force, 4-hole characterization, dual
projective line arrangement), verify counting bounds and structural
properties, and emit deterministic reports and SVG figures.
"""

from .geometry import (
    CollinearTripleError,
    DegenerateLineError,
    DuplicatePointError,
    ExitEdge,
    GeometryError,
    OnLineError,
    Orientation,
    Point,
    PointSet,
    SharedEndpointError,
    TooFewPointsError,
    certify_general_position,
    convex_hull,
    line_separates,
    orientation,
    point,
    segments_cross,
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
    four_holes_at_edge,
    is_exit_edge_with_witness,
    witness_side,
)
from .dual import (
    ConcurrentLinesError,
    DualLine,
    DualTriangle,
    ExitGraph,
    Hourglass,
    NonDistinctSlopesError,
    TripleSharedExitVertexError,
    crossing_position,
    dual_triangles,
    dualize,
    exit_edges_dual,
    hourglasses,
)
from .arrangement import (
    ArrangementVertex,
    ProjectiveArrangement,
    ProjectiveCell,
    ProjectiveEdge,
    TriangularCell,
    build_arrangement,
    crossing_halfplane_has_private_triangle,
    line_triangle_counts,
    marked_cell,
    marked_cell_by_orientation,
    orient_lines,
    peel_orientation,
    triangular_cells,
)
from .analysis import (
    ExitStructureComparison,
    LineStats,
    StatsReport,
    compare_exit_structures,
    exit_graph_crossings,
    exit_graph_stats,
    find_order_type_bijection,
    outer_face_vertices,
    random_general_position,
    same_order_type_labeled,
    search_min_exit_edges,
    stats_report,
)
from .geometry import SizeMismatchError
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
