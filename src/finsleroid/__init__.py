"""Numerical engine for a spatial-anisotropic relativistic metric.

The package implements the full closed-form stack of a one-charge anisotropic
deformation of a Lorentzian background — squared norm, momentum, metric
tensors, cubic form, geodesic spray, momentum-space dual, anisotropic angles,
and a conformal isomorphism onto a flat model — together with an independent
finite-difference oracle layer that verifies every closed form.
"""

from __future__ import annotations

from .background import (
    BackgroundField,
    BackgroundSample,
    load_config,
    parse_config,
    sample,
)
from .errors import (
    ChartDomain,
    CNotUnit,
    ConfigDimensionError,
    ConfigDuplicateError,
    ConfigError,
    ConfigSyntaxError,
    DegenerateNu,
    DegenerateQ,
    DomainError,
    FinsleroidError,
    GeometryError,
    MixedSectors,
    NoConvergence,
    NullCartan,
    UnsupportedCovector,
    UnsupportedImage,
    UnsupportedSector,
)
from .expressions import FieldExpression, parse_expression
from .kinematics import (
    AuxVectors,
    KinematicScalars,
    Sector,
    aux_vectors,
    classify,
    random_admissible,
    scalars,
)
from .metric import (
    FrameComponents,
    MetricBundle,
    angular_metric,
    cartan_norm,
    cartan_tensor,
    cartan_vector,
    covariant_momentum,
    determinant_ratio,
    frame_components,
    indicatrix_curvature,
    inverse_metric,
    metric_bundle,
    metric_function,
    metric_tensor,
)
from .spray import (
    GeodesicTrajectory,
    SprayData,
    geodesic_integrate,
    spray_coefficients,
    spray_oracle,
)
from .dual import (
    CovectorStack,
    covector_stack,
    hamiltonian,
    hamiltonian_numeric,
    hj_residual,
)
from .anglegeo import (
    UarPoint,
    angle,
    angle_closed_form,
    flatness_check,
    scalar_product,
    uar_closed_diagonals,
    uar_from_angles,
    uar_metric,
    uar_to_angles,
)
from .conformal import (
    ConformalImage,
    factor_space_angle,
    factor_space_curvature,
    pushforward_metric_check,
    zeta_inverse,
    zeta_jacobian,
    zeta_map,
)
from .numdiff import FDConfig, fd_gradient, fd_hessian, fd_jacobian

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # background
    "BackgroundField",
    "BackgroundSample",
    "load_config",
    "parse_config",
    "sample",
    # errors
    "FinsleroidError",
    "ConfigError",
    "ConfigSyntaxError",
    "ConfigDimensionError",
    "ConfigDuplicateError",
    "GeometryError",
    "UnsupportedSector",
    "DegenerateQ",
    "DegenerateNu",
    "NullCartan",
    "UnsupportedCovector",
    "UnsupportedImage",
    "CNotUnit",
    "NoConvergence",
    "MixedSectors",
    "DomainError",
    "ChartDomain",
    # expressions
    "FieldExpression",
    "parse_expression",
    # kinematics
    "Sector",
    "KinematicScalars",
    "AuxVectors",
    "classify",
    "scalars",
    "aux_vectors",
    "random_admissible",
    # metric
    "MetricBundle",
    "FrameComponents",
    "metric_function",
    "covariant_momentum",
    "metric_tensor",
    "inverse_metric",
    "determinant_ratio",
    "cartan_vector",
    "cartan_norm",
    "cartan_tensor",
    "angular_metric",
    "indicatrix_curvature",
    "frame_components",
    "metric_bundle",
    # spray
    "SprayData",
    "GeodesicTrajectory",
    "spray_coefficients",
    "spray_oracle",
    "geodesic_integrate",
    # dual
    "CovectorStack",
    "covector_stack",
    "hamiltonian",
    "hamiltonian_numeric",
    "hj_residual",
    # angles
    "UarPoint",
    "angle",
    "scalar_product",
    "angle_closed_form",
    "uar_from_angles",
    "uar_to_angles",
    "uar_metric",
    "uar_closed_diagonals",
    "flatness_check",
    # conformal
    "ConformalImage",
    "zeta_map",
    "zeta_jacobian",
    "pushforward_metric_check",
    "zeta_inverse",
    "factor_space_curvature",
    "factor_space_angle",
    # oracle layer
    "FDConfig",
    "fd_gradient",
    "fd_jacobian",
    "fd_hessian",
]
