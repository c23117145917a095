"""Exact parameter-space region enumeration for tunable combinatorial
algorithms: linkage-based clustering with interpolated merge rules,
parametric dynamic-programming sequence alignment, and two-part tariff
pricing.

The geometry layer (halfspaces, convex cells, and one construction per
dimension that a cell's facets, witness and vertices are read off: the
interval, polygon clipping and vertex enumeration) is exact and runs no
LP: a halfspace is its primitive integer row, points are rationals, and
every construction and point test runs on the rows and on integer points
scaled from the rationals, so no floating-point value decides anything.
Each domain module maps its behavior structure onto the shared region
layer, whose one cell builder is `compute_vertex_cell` and whose one region
type is `Subdivision`, built by one walk over the regions' adjacency graph
(`compute_subdivision`): from the form minimal at the parent's witness (a
clustering merge step, `envelope_cells`), from the known regions (the
alignment root), or over tuple labels from one seed tuple, cell by cell an
intersection of one cell per factor (the tariff profiles,
`compute_overlay`).
"""

from .geometry import (
    ConvexCell,
    GeometryError,
    Halfspace,
    box_cell,
    polygon_area,
    polygon_vertices,
)
from .rationals import Rational, as_rational, format_rational, parse_rational, rat
from .regions import (
    AffineForm,
    DegenerateCellError,
    Subdivision,
    cells_share_facet,
    compute_overlay,
    compute_subdivision,
    compute_vertex_cell,
    envelope_cells,
)
from .clustering import (
    ClusterTree,
    ClusteringInstance,
    ExecutionTreeNode,
    MergeFamily,
    best_parameter,
    build_execution_tree,
    generate_dataset,
    hamming_loss,
    simulate_merge_sequence,
)
from .seqalign import (
    Alignment,
    AlignmentDPSpec,
    AlignmentPartition,
    build_execution_dag,
    dp_solve,
    get_preset,
    ray_search_2d,
)
from .tariff import (
    TariffInstance,
    buyer_choice,
    buyer_choices,
    check_piece_bound,
    compute_price_regions,
    maximize_revenue,
)

__version__ = "0.1.0"
