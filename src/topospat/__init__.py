"""topospat: spatially variable feature detection via persistent homology.

Builds a spatial neighborhood graph over 2-D locations, computes the
0-dimensional persistent homology of the superlevel-set filtration of each
feature, vectorises the diagrams into Betti curves, persistence landscapes or
total lifetime, and tests for spatial dependence with a one-sample randomized
permutation test (Moran's I is available in the same harness as a baseline).
"""

__version__ = "0.1.0"

from .evaluate import (
    EvalResult,
    auprc,
    bootstrap_sd,
    sensitivity_specificity,
    spearman,
    top_k_true_proportion,
)
from .exceptions import (
    DegenerateDataError,
    DimensionError,
    DomainMismatchError,
    GeometryError,
    GeometryWarning,
    LoadError,
    ParameterError,
    ParseError,
    StateError,
    TopospatError,
    ValidationError,
)
from .ingest import (
    Dataset,
    exclude_prefixes,
    load_dataset,
    load_labels,
    qc_filter,
    shifted_log_transform,
    write_dataset,
)
from .persistence import (
    PersistenceDiagram,
    diagram_stats,
    sublevel_diagram,
    superlevel_betti_counts,
    superlevel_diagram,
    superlevel_diagrams,
    write_diagram,
)
from .simulate import (
    CountDistribution,
    SimConfig,
    SpatialPattern,
    default_effect_sizes,
    domain_mask,
    sample_feature,
    sample_locations,
    simulate_dataset,
)
from .spatial_graph import (
    GraphKind,
    SpatialGraph,
    delaunay_graph,
    epsilon_graph,
    hex_grid_graph,
    rect_grid_graph,
    write_graph,
)
from .spatial_stats import (
    SummaryMethod,
    TestConfig,
    TestReport,
    benjamini_hochberg,
    morans_i,
    permutation_test,
    read_report,
    run_battery,
    write_report,
)
from .summaries import (
    LandscapeSet,
    StepCurve,
    betti_curve,
    curve_lp_distance,
    curve_lp_norm,
    landscape,
    landscape_lp_distance,
    landscape_lp_distances,
    landscape_lp_norm,
    mean_landscape,
    mean_step_curve,
    total_lifetime,
    write_landscape,
    write_step_curve,
)
