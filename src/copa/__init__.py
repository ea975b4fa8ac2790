"""Exact machinery for copartitions.

A copartition couples a ground partition (parts in one congruence
class) to a sky partition (parts in another) through the rectangle
their part counts span.  This package enumerates them, counts them by
closed form and by truncated q-series, draws their diagrams, applies
the size-preserving bijections that explain their identities, and ships
the verification suites that check every claim against independent
computations.
"""

from .bijections import (
    copartition_to_eo,
    copartition_to_pair,
    cp001_to_rim_cell,
    cp111_to_partition,
    enumerate_eo_star,
    eo_crank,
    eo_to_copartition,
    inverse_match_table,
    is_eo_star,
    pair_to_copartition,
    partition_to_cp111,
    render_pair_merge,
    rim_cell_to_cp001,
)
from .copartitions import (
    Copartition,
    CopartitionParams,
    coerce_params,
    conjugate_copartition,
    enlarged_sky,
    from_json,
    from_json_dict,
    make_copartition,
    scale_copartition,
    split_enlarged_sky,
    to_json,
    to_json_dict,
    unscale_copartition,
)
from .diagrams import diagram_cells, render_ascii, render_diagram, render_svg
from .enumeration import (
    CrankTally,
    RefinedCount,
    count_copartitions,
    count_formula,
    count_refined,
    crank_tally,
    enumerate_copartitions,
)
from .errors import (
    BadInputError,
    CopaError,
    DomainError,
    EmptyGroundError,
    EmptySkyError,
    InvalidPartitionError,
    MinimumPartError,
    NoClosedFormError,
    NotEOStarError,
    ResidueError,
    SeriesError,
    SplitError,
    ZeroPartError,
)
from .partitions import (
    PartitionStatistics,
    as_partition,
    conjugate,
    diversity,
    divisor_count_in_class,
    enumerate_partitions,
    partition_count,
    partition_statistics,
    perimeter,
    rim_cells,
)
from .reporting import VerificationReport
from .series import (
    TruncatedSeries,
    count_cell,
    count_series,
    eo_star_gf,
    gf_double_sum,
    gf_product,
    mock_theta_nu,
    pochhammer_factor,
    rr_function,
    theta_f,
    theta_product,
    theta_sum,
)
from .verify import SUITES, run_all, run_suite

__version__ = "0.1.0"
