"""The public surface: every name ``finsleroid`` exports and the parameters
of every exported callable. A name or a parameter that goes, and any new
option, shows up as a diff to this file."""

from __future__ import annotations

import inspect

import finsleroid

# exception classes; they take their message alone
ERRORS = [
    "CNotUnit",
    "ChartDomain",
    "ConfigDimensionError",
    "ConfigDuplicateError",
    "ConfigError",
    "ConfigSyntaxError",
    "DegenerateNu",
    "DegenerateQ",
    "DomainError",
    "FinsleroidError",
    "GeometryError",
    "MixedSectors",
    "NoConvergence",
    "NullCartan",
    "UnsupportedCovector",
    "UnsupportedImage",
    "UnsupportedSector",
]

# the parameters of every other exported callable, in order; a trailing "="
# marks one that has a default, so a caller may leave it out
PARAMETERS = {
    "AuxVectors": ("u", "v_cov", "v_contra", "e"),
    "BackgroundField": ("dim", "a", "b_cov", "g"),
    "BackgroundSample": (
        "x", "a", "a_inv", "b_cov", "b_contra", "c", "g", "h_time", "h_space", "da", "db", "dg",
        "christoffel", "nabla_b", "curl", "christoffel_zero", "b_parallel", "dg_zero",
        "frame_holder",
    ),
    "ConformalImage": ("zeta", "kappa", "S2", "p"),
    "CovectorStack": ("y_cov", "b_hat", "q_hat", "B_hat", "f_hat", "J_hat", "eps"),
    "FDConfig": ("step_rel_first=", "richardson="),
    "FieldExpression": ("ast",),
    "FrameComponents": ("R", "g_frame"),
    "GeodesicTrajectory": ("samples", "F2_drift", "step", "length", "exit_reason="),
    "KinematicScalars": (
        "b", "gamma", "q", "eps", "h", "g_plus", "g_minus", "B", "L", "A", "f", "J", "chi", "nu",
        "X", "scale",
    ),
    "MetricBundle": (
        "F2", "y_cov", "g_cov", "g_contra", "det_ratio", "C_cov", "C_contra", "CC", "cartan",
        "h_ang",
    ),
    "Sector": ("tag", "side"),
    "SprayData": ("G", "E", "Mbar", "f2", "riem"),
    "UarPoint": ("z0", "eta", "phi", "chi"),
    "angle": ("sample", "y1", "y2"),
    "angle_closed_form": ("sample", "y1", "y2"),
    "angular_metric": ("sample", "y"),
    "aux_vectors": ("sample", "y", "scal"),
    "cartan_norm": ("sample", "y"),
    "cartan_tensor": ("sample", "y"),
    "cartan_vector": ("sample", "y"),
    "classify": ("sample", "y"),
    "covariant_momentum": ("sample", "y"),
    "covector_stack": ("sample", "y_cov"),
    "determinant_ratio": ("sample", "y"),
    "factor_space_angle": ("sample", "y1", "y2"),
    "factor_space_curvature": ("sample", "m", "tag"),
    "fd_gradient": ("fn", "x", "config="),
    "fd_hessian": ("fn", "x"),
    "fd_jacobian": ("fn", "x", "config="),
    "flatness_check": ("sample", "point", "tag"),
    "frame_components": ("sample", "y"),
    "geodesic_integrate": (
        "field", "x0", "y0", "length", "method=", "step=", "tol=", "max_steps=",
    ),
    "hamiltonian": ("sample", "y_cov"),
    "hamiltonian_numeric": ("sample", "y_cov"),
    "hj_residual": ("field", "action", "mass", "x"),
    "indicatrix_curvature": ("sample", "y", "seeds="),
    "inverse_metric": ("sample", "y"),
    "load_config": ("path",),
    "metric_bundle": ("sample", "y"),
    "metric_function": ("sample", "y"),
    "metric_tensor": ("sample", "y"),
    "parse_config": ("text",),
    "parse_expression": ("text",),
    "pushforward_metric_check": ("sample", "y"),
    "random_admissible": ("sample", "rng", "tag", "count", "margin=", "max_tries="),
    "sample": ("field", "x"),
    "scalar_product": ("sample", "y1", "y2"),
    "scalars": ("sample", "y"),
    "spray_coefficients": ("sample", "y"),
    "spray_oracle": ("field", "x", "y"),
    "uar_closed_diagonals": ("sample", "point", "tag"),
    "uar_from_angles": ("sample", "point", "tag"),
    "uar_metric": ("sample", "point", "tag"),
    "uar_to_angles": ("sample", "y"),
    "zeta_inverse": ("sample", "zeta"),
    "zeta_jacobian": ("sample", "y"),
    "zeta_map": ("sample", "y"),
}


def _parameters(obj) -> tuple[str, ...]:
    return tuple(
        p.name + ("=" if p.default is not p.empty else "")
        for p in inspect.signature(obj).parameters.values()
    )


def test_exported_names():
    assert sorted(finsleroid.__all__) == sorted(["__version__", *ERRORS, *PARAMETERS])
    assert len(set(finsleroid.__all__)) == len(finsleroid.__all__)


def test_errors_are_package_errors():
    for name in ERRORS:
        assert issubclass(getattr(finsleroid, name), finsleroid.FinsleroidError), name


def test_parameters_of_every_exported_callable():
    got = {name: _parameters(getattr(finsleroid, name)) for name in PARAMETERS}
    assert got == PARAMETERS
