"""redhom: invariant connections and transport on reductive homogeneous spaces."""

from .algebra import StructuredLieAlgebra, expand_in_matrix_basis, expm
from .catalog import (
    SpaceBundle,
    biinvariant_gram,
    diagnostic_battery,
    grassmann_like,
    group_as_space,
    so3,
    so_n,
    sphere2,
    stiefel,
)
from .connection import (
    AlphaMap,
    TensorAtOrigin,
    basis_sectional_curvatures,
    canonical_first,
    canonical_second,
    curvature,
    is_metric,
    levi_civita_alpha,
    naturally_reductive_check,
    sectional_curvature,
    torsion,
)
from .reductive import (
    DecompositionError,
    MetricOnM,
    ReductiveDecomposition,
    build_decomposition,
    check_ad_H_invariance_bilinear,
    check_metric_invariance,
    normal_decomposition,
    symmetric_decomposition,
)
from .reporting import CheckReport, DEFAULT_TOLERANCES, resolve_tolerances
from .transport import (
    ConvergenceResult,
    CurveSpec,
    Trajectory,
    convergence_probe,
    geodesic,
    geodesic_convergence,
    horizontal_lift,
    parallel_transport,
    realize_curve,
)

__version__ = "0.1.0"
