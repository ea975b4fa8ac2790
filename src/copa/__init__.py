"""Exact machinery for copartitions.

A copartition couples a ground partition (parts in one congruence
class) to a sky partition (parts in another) through the rectangle
their part counts span.  This package enumerates them, counts them by
closed form and by truncated q-series, draws their diagrams, applies
the size-preserving bijections that explain their identities, and ships
the verification suites that check every claim against independent
computations.

Importing the package loads only the counting core.  The bijection,
diagram, reporting and verify modules and their names load on first use
(PEP 562), and import and list as the others do.
"""

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
    AttributeAccessError,
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

__version__ = "0.1.0"

# Each name that loads on first use, with its module.
_DEFERRED = {
    name: module
    for module, names in (
        ("bijections", "copartition_to_eo copartition_to_pair cp001_to_rim_cell "
         "cp111_to_partition enumerate_eo_star eo_crank eo_to_copartition "
         "inverse_match_table is_eo_star pair_to_copartition partition_to_cp111 "
         "render_pair_merge rim_cell_to_cp001"),
        ("diagrams", "diagram_cells render_ascii render_diagram render_svg"),
        ("reporting", "VerificationReport"),
        ("verify", "SUITES run_all run_suite"),
    )
    for name in names.split()
}
_SUBMODULES = ("bijections", "diagrams", "reporting", "verify")

# What `from copa import *` binds: the names above, the submodules that
# importing them bound, and the deferred names and modules.
__all__ = [name for name in globals() if name[0] != "_"] + [*_DEFERRED, *_SUBMODULES]


def __getattr__(name: str):
    """A deferred name or module, imported on first use.  Every call binds
    the names of each deferred module loaded so far, so later reads are
    plain lookups, and once all four are loaded the hook is dropped:
    CPython specializes attribute reads only on modules without one."""
    import importlib
    module = name if name in _SUBMODULES else _DEFERRED.get(name)
    if module is None:
        raise AttributeAccessError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{module}")
    names = globals()
    names.update({n: getattr(names[m], n) for n, m in _DEFERRED.items() if m in names})
    if all(m in names for m in _SUBMODULES):
        names.pop("__getattr__", None)
    return names[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED, *_SUBMODULES})
