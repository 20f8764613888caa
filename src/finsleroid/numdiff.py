"""Independent finite-difference oracle layer and the central tolerance table.

Every closed-form identity shipped by this package is cross-checked against
plain central differences computed here. This module deliberately knows
nothing about the geometry: it differentiates black-box callables, so a bug in
a closed form cannot leak into its own check.

Key entry points
----------------
FDConfig
    Relative first-derivative step (scaled per coordinate by ``1 + |x_i|``)
    and an optional single Richardson extrapolation level of first derivatives.
fd_gradient / fd_jacobian / fd_hessian
    Central differences for scalar and vector maps. First derivatives have one
    stencil, ``_stencil``, and ``_combine`` takes its values, so a caller can
    evaluate all its probe points in one batch.

All verification tolerances used across the test battery are defined once
here as module constants so that every check and the command-line ``check``
battery agree on what "passing" means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "FDConfig",
    "fd_gradient",
    "fd_jacobian",
    "fd_hessian",
    "TOL_EULER_CHAIN",
    "TOL_METRIC_INVERSE",
    "TOL_DET_RATIO",
    "TOL_INDICATRIX",
    "TOL_INDICATRIX_CONST",
    "TOL_CARTAN_NORM",
    "TOL_SPRAY_ORACLE",
    "TOL_BERWALD",
    "TOL_GEODESIC_F2",
    "TOL_NOETHER_DRIFT",
    "TOL_DUAL_CLOSED",
    "TOL_DUAL_NUMERIC",
    "TOL_DUAL_REFERENCE",
    "TOL_ANGLE_ROUTES",
    "TOL_ANGLE_EXACT",
    "TOL_UAR_ROUNDTRIP",
    "TOL_UAR_F2",
    "TOL_UAR_OFFDIAG",
    "TOL_UAR_DIAG",
    "TOL_UAR_KA",
    "TOL_CONFORMAL_S",
    "TOL_CONFORMAL_POWER",
    "TOL_CONFORMAL_ROUNDTRIP",
    "TOL_FACTOR_CURVATURE",
    "TOL_FRAME_CONSTANT",
    "TOL_FRAME_VARYING",
    "TOL_FD_SELFTEST",
    "TOL_CHART_COVARIANCE",
    "TOL_GEODESIC_CHART",
    "TOL_GEODESIC_CHART_END",
    "TOL_GEODESIC_BERWALD",
]

# --- tolerances (single source of truth) ------------------------------------

#: Euler chain (momentum = half slope of the squared norm, metric = slope of
#: the momentum, Cartan = half slope of the metric), relative.
TOL_EULER_CHAIN = 1e-5
#: Contravariant metric times covariant metric versus identity, absolute.
TOL_METRIC_INVERSE = 1e-9
#: Closed-form determinant ratio versus numerically computed ratio, relative.
TOL_DET_RATIO = 1e-9
#: Indicatrix curvature versus its charge-only closed form, absolute.
TOL_INDICATRIX = 1e-6
#: Direction independence of the indicatrix curvature, absolute.
TOL_INDICATRIX_CONST = 1e-6
#: Normalised Cartan-vector square versus its closed form, absolute.
TOL_CARTAN_NORM = 1e-10
#: Closed-form spray versus the finite-difference spray oracle, relative.
TOL_SPRAY_ORACLE = 1e-5
#: Spray reduction on parallel backgrounds (exact identity), absolute.
TOL_BERWALD = 1e-8
#: Squared-norm drift along an integrated geodesic of unit parameter length.
TOL_GEODESIC_F2 = 1e-6
#: Drift of a conserved covariant momentum component along an integrated
#: geodesic, relative to the largest momentum component at the start.
TOL_NOETHER_DRIFT = 1e-11
#: Closed-form duality round trip at unit preferred-direction norm, relative.
TOL_DUAL_CLOSED = 1e-9
#: Newton duality round trip below unit norm, relative.
TOL_DUAL_NUMERIC = 1e-7
#: Newton squared co-norm versus the 50-digit momentum-map reference below
#: unit norm, relative.
TOL_DUAL_REFERENCE = 1e-12
#: Agreement of the three angle routes (direct, chart, factor space), absolute.
TOL_ANGLE_ROUTES = 1e-10
#: Exact angle invariants (self-angle, symmetry, scale invariance), absolute.
TOL_ANGLE_EXACT = 1e-12
#: Angular-chart round trip, relative on components.
TOL_UAR_ROUNDTRIP = 1e-9
#: Squared norm reproduced from chart coordinates, relative.
TOL_UAR_F2 = 1e-10
#: Off-diagonal chart-metric entries, absolute.
TOL_UAR_OFFDIAG = 1e-9
#: Diagonal chart-metric entries versus closed forms, relative.
TOL_UAR_DIAG = 1e-8
#: Conformal-flattening factor consistency, relative.
TOL_UAR_KA = 1e-8
#: Pushforward metric congruence residual, relative.
TOL_CONFORMAL_S = 1e-9
#: Power law between squared norms of a vector and its conformal image.
TOL_CONFORMAL_POWER = 1e-10
#: Conformal map round trip, relative on components.
TOL_CONFORMAL_ROUNDTRIP = 1e-9
#: Factor-space curvature extraction (nested finite differences), absolute.
TOL_FACTOR_CURVATURE = 1e-5
#: Adapted-frame reconstruction of the base metric, absolute: constant fields.
TOL_FRAME_CONSTANT = 1e-12
#: Adapted-frame reconstruction of the base metric: position-dependent fields.
TOL_FRAME_VARYING = 1e-9
#: Finite-difference self-test on polynomials of degree at most four.
TOL_FD_SELFTEST = 1e-9
#: The stack in a change of chart (constant linear, or curved) versus its
#: tensor transform, relative to the largest component (rounding alone).
TOL_CHART_COVARIANCE = 1e-12
#: Geodesics in two charts, relative to the largest component: rk4 (step
#: 1/64) node by node, above rounding since its truncation error depends on
#: the chart, and rk45 (``tol = 1e-11``) at the end point.
TOL_GEODESIC_CHART = 1e-9
TOL_GEODESIC_CHART_END = 1e-11
#: A Berwald background's geodesic versus its base metric's, node by node.
TOL_GEODESIC_BERWALD = 1e-12


def _relmax(difference: np.ndarray, reference: np.ndarray) -> float:
    """Largest entry of ``difference`` relative to the largest of ``reference``:
    the residual the tolerances above bound."""
    scale = max(float(np.abs(reference).max()), 1e-300)
    # a numpy division, so that an overflow raises under the command's errstate
    return float(np.abs(difference).max() / scale)


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class FDConfig:
    """Step policy for the first-derivative oracles.

    The step along coordinate ``i`` is ``step_rel_first * (1 + |x_i|)``.
    With ``richardson`` set, each derivative is evaluated at the base step and
    at half the step and combined to cancel the leading error term.
    """

    step_rel_first: float = 6e-6
    richardson: bool = False

    def steps_first(self, x: np.ndarray) -> np.ndarray:
        return self.step_rel_first * (1.0 + np.abs(x))


#: Relative second-derivative step of :func:`fd_hessian`.
STEP_REL_SECOND = 1.2e-4


# --- first derivatives -------------------------------------------------------


def _stencil(x: np.ndarray, config: FDConfig) -> np.ndarray:
    """The probe points of a first-derivative stencil, one per row: for each
    coordinate ``i`` in turn, ``x + h e_i`` and ``x - h e_i``, then with
    ``richardson`` the same at ``h / 2``."""
    steps = config.steps_first(x)
    signs = np.array([1.0, -1.0, 0.5, -0.5] if config.richardson else [1.0, -1.0])
    points = np.tile(x, (x.size * signs.size, 1))
    axes = np.repeat(np.arange(x.size), signs.size)
    points[np.arange(axes.size), axes] += (steps[:, None] * signs).ravel()
    return points


def _combine(values: np.ndarray, x: np.ndarray, config: FDConfig) -> np.ndarray:
    """The derivative ``J[..., i]`` from the values at the :func:`_stencil`
    rows: central differences, then one Richardson step ``(4 fine - coarse) / 3``."""
    steps = config.steps_first(x)
    values = values.reshape(x.size, -1, 2, *values.shape[1:])
    h = steps.reshape(-1, *(1,) * (values.ndim - 3))
    coarse = (values[:, 0, 0] - values[:, 0, 1]) / (2.0 * h)
    if config.richardson:
        fine = (values[:, 1, 0] - values[:, 1, 1]) / (2.0 * (0.5 * h))
        coarse = (4.0 * fine - coarse) / 3.0
    return np.moveaxis(coarse, 0, -1)


def fd_gradient(
    fn: Callable[[np.ndarray], float], x: Sequence[float], config: FDConfig = FDConfig()
) -> np.ndarray:
    """Central-difference gradient of a scalar map (its :func:`fd_jacobian`)."""
    return fd_jacobian(fn, x, config)


def fd_jacobian(
    fn: Callable[[np.ndarray], np.ndarray], x: Sequence[float], config: FDConfig = FDConfig()
) -> np.ndarray:
    """Central-difference Jacobian ``J[..., i] = d fn / d x_i`` of a vector map,
    with ``fn`` called once per :func:`_stencil` row, in row order."""
    x_arr = np.asarray(x, dtype=float)
    values = np.array([np.asarray(fn(point), dtype=float) for point in _stencil(x_arr, config)])
    return _combine(values, x_arr, config)


# --- second derivatives ------------------------------------------------------


def _hessian_entry(fn, x: np.ndarray, i: int, j: int, hi: float, hj: float) -> float:
    if i == j:
        plus = np.array(x)
        minus = np.array(x)
        plus[i] += hi
        minus[i] -= hi
        return (float(fn(plus)) - 2.0 * float(fn(x)) + float(fn(minus))) / (hi * hi)
    total = 0.0
    for si in (1.0, -1.0):
        for sj in (1.0, -1.0):
            probe = np.array(x)
            probe[i] += si * hi
            probe[j] += sj * hj
            total += si * sj * float(fn(probe))
    return total / (4.0 * hi * hj)


def fd_hessian(fn: Callable[[np.ndarray], float], x: Sequence[float]) -> np.ndarray:
    """Central-difference Hessian of a scalar map (symmetric by construction),
    at the step ``STEP_REL_SECOND * (1 + |x_i|)`` along coordinate ``i``."""
    x_arr = np.asarray(x, dtype=float)
    n = x_arr.size
    steps = STEP_REL_SECOND * (1.0 + np.abs(x_arr))
    hessian = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            value = _hessian_entry(fn, x_arr, i, j, steps[i], steps[j])
            hessian[i, j] = value
            hessian[j, i] = value
    return hessian
