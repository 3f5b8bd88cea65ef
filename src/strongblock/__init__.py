"""Strong blocking sets from unions of subgeometries, and minimal codes."""

from .bounds import (
    bset_size_poly,
    interval_violation_report,
    one_mod_p_profile,
    szonyi_membership,
)
from .codes import (
    GeneratorMatrix,
    check_minimal,
    export_code,
    generator_from_points,
    import_code,
    support_profiles,
    weight_distribution,
)
from .field import Field
from .geometry import PointSet, ProjectiveSpace
from .partition import (
    BSet,
    RGroup,
    build_bset,
    build_rgroup,
    full_partition,
    subgeometry_points,
)
from .search import (
    blocking_status,
    find_independent_tuple,
    is_r_independent,
    line_stats_weight1,
)
from .strong import (
    expected_size,
    union_subgeometries,
    verify_blocking,
    verify_strong_blocking,
)

__version__ = "0.1.0"

__all__ = [
    "BSet",
    "Field",
    "GeneratorMatrix",
    "PointSet",
    "ProjectiveSpace",
    "RGroup",
    "blocking_status",
    "bset_size_poly",
    "build_bset",
    "build_rgroup",
    "check_minimal",
    "expected_size",
    "export_code",
    "find_independent_tuple",
    "full_partition",
    "generator_from_points",
    "import_code",
    "interval_violation_report",
    "is_r_independent",
    "line_stats_weight1",
    "one_mod_p_profile",
    "subgeometry_points",
    "support_profiles",
    "szonyi_membership",
    "union_subgeometries",
    "verify_blocking",
    "verify_strong_blocking",
    "weight_distribution",
]
