"""Conformal isomorphism onto a flat-metric model space (unit axis norm).

A fibrewise map sends each supported direction to an image vector whose
plain quadratic norm reproduces the anisotropic norm up to a conformal
factor: the pushforward of the direction-dependent metric along the map is
exactly a multiple of the seed quadratic form. Restricted to the unit shell
the map descends to the factor space of rays, where the induced metric has
constant sectional curvature — the same constant the indicatrix-curvature
route produces.

Key entry points
----------------
zeta_map / ConformalImage
    The image vector with its conformal factor and quadratic norm.
zeta_jacobian / pushforward_metric_check
    Fibre derivative of the map and the conformality residual.
zeta_inverse
    Reconstruction of the direction from its image.
factor_space_curvature / factor_space_angle
    Constant-curvature extraction on the factor space and the angle route
    through the image vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .background import BackgroundSample
from .errors import MixedSectors, UnsupportedImage
from .kinematics import Sector, classify
from .metric import _Direction
from .numdiff import FDConfig, fd_jacobian
from .anglegeo import (
    UarPoint,
    _arc,
    _binary_normalised,
    _chart_jacobian,
    _clamped,
    _pair,
    _require_dim4,
    _require_unit,
    positively_parallel,
    uar_from_angles,
)

__all__ = [
    "ConformalImage",
    "zeta_map",
    "zeta_jacobian",
    "pushforward_metric_check",
    "zeta_inverse",
    "factor_space_curvature",
    "factor_space_angle",
]

#: Relative tolerance below which an image vector counts as isotropic.
S2_TOL_REL = 1e-12

#: Central-difference steps for the factor-space Christoffel symbols and
#: their derivatives.
FACTOR_FD = FDConfig(step_rel_first=1e-4)


@dataclass(frozen=True)
class ConformalImage:
    """Image vector ``zeta`` with conformal factor ``kappa``, quadratic norm
    ``S2 = a(zeta, zeta)``, and metric multiplier ``p = kappa**2``."""

    zeta: np.ndarray
    kappa: float
    S2: float
    p: float


def zeta_map(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> ConformalImage:
    """Map a supported direction to its conformal image."""
    _require_unit(sample, "the conformal map")
    return _zeta(_Direction(sample, y, sector))


def _zeta(d: _Direction) -> ConformalImage:
    """Conformal image read from one direction record (unit norm checked)."""
    zeta, kappa = _image(d)
    s2 = float(zeta @ d.sample.a @ zeta)
    return ConformalImage(zeta=zeta, kappa=kappa, S2=s2, p=kappa * kappa)


def _image(d: _Direction) -> tuple[np.ndarray, float]:
    """The image vector ``zeta`` and the conformal factor ``kappa`` of one
    direction record, without the quadratic norm ``S2``."""
    sample, scal = d.sample, d.scal
    h = scal.h
    kappa = (1.0 / h) * abs(d.f2) ** (0.5 * (1.0 - h))
    v_contra = d.y + scal.b * sample.b_contra
    return (h * v_contra - scal.A * sample.b_contra) * (scal.J / (kappa * h)), kappa


def zeta_jacobian(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> np.ndarray:
    """Fibre derivative ``Z[i, m] = d zeta^i / d y^m`` (off the axis)."""
    _require_unit(sample, "the conformal map derivative")
    return _zeta_jacobian(_Direction(sample, y, sector))


def _zeta_jacobian(d: _Direction, image: ConformalImage | None = None) -> np.ndarray:
    """Fibre derivative of the map read from one direction record (and its image, if held)."""
    sample, scal = d.sample, d.scal
    aux = d.aux  # raises DegenerateQ on the axis ray
    h = scal.h
    zeta, kappa = _image(d) if image is None else (image.zeta, image.kappa)
    scale = scal.J / (kappa * h)
    b_contra = sample.b_contra
    core = (
        h * (np.eye(sample.dim) + np.outer(b_contra, sample.b_cov))
        - np.outer(
            b_contra,
            sample.b_cov + scal.eps * sample.g * aux.v_cov / (2.0 * scal.q),
        )
    ) * scale
    y_cov = (aux.u - sample.g * scal.q * sample.b_cov) * scal.J**2
    weight = (sample.g * scal.q / (2.0 * scal.B)) * aux.e - (1.0 - h) * y_cov / d.f2
    return core + np.outer(zeta, weight)


def pushforward_metric_check(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> float:
    """Relative residual of conformality: the pulled-back seed form times the
    conformal multiplier must reproduce the direction-dependent metric."""
    _require_unit(sample, "the conformal map")
    d = _Direction(sample, y, sector)
    return _pushforward_residual(d, _zeta(d))


def _pushforward_residual(d: _Direction, image: ConformalImage) -> float:
    """Conformality residual read from one direction record and its image
    (unit norm checked)."""
    jac = _zeta_jacobian(d, image)
    reconstructed = image.p * jac.T @ d.sample.a @ jac
    g_cov = d.g_cov
    return float(
        np.abs(reconstructed - g_cov).max() / max(np.abs(g_cov).max(), 1e-300)
    )


def zeta_inverse(sample: BackgroundSample, zeta: Sequence[float]) -> np.ndarray:
    """Reconstruct the direction whose conformal image is ``zeta``."""
    _require_unit(sample, "the inverse conformal map")
    z_arr = np.asarray(zeta, dtype=float)
    s2 = float(z_arr @ sample.a @ z_arr)
    scale = float(np.linalg.norm(z_arr))
    if abs(s2) <= S2_TOL_REL * scale * scale:
        raise UnsupportedImage("image vector is isotropic for the seed form")
    zb = float(z_arr @ sample.b_cov)
    g = sample.g
    if s2 > 0.0:
        eps, h, expected = 1, sample.h_time, "time-future"
        f = math.asinh(zb / math.sqrt(s2))
        signed_norm = s2 ** (0.5 / h)
        lead, other = _pair(f, eps)
    else:
        eps, h, expected = -1, sample.h_space, "space-like"
        u = -zb / math.sqrt(-s2)
        if u <= -1.0 + 1e-12:
            raise UnsupportedImage("image vector lies on the excluded branch endpoint")
        f = -math.acos(min(u, 1.0))
        signed_norm = -((-s2) ** (0.5 / h))
        # below 2**-26, acos(u) is pi/2 - u rounded to 2**-53 absolute, so cos f
        # would carry u to a relative 2**-27 or worse; the exact pair there,
        # acos (whose bits the reports pin) everywhere else
        lead, other = (-math.sqrt(1.0 - u * u), u) if abs(u) < 2.0**-26 else _pair(f, eps)
    b = signed_norm * (other - 0.5 * (g / h) * lead) / math.exp(-0.5 * (g / h) * f)
    chi = f / h
    inv_j = math.exp(0.5 * g * chi)
    h_kappa = abs(s2) ** (0.5 * (1.0 - h) / h)
    y = -b * sample.b_contra + (1.0 / h) * (
        z_arr + zb * sample.b_contra
    ) * (h_kappa * inv_j)
    tag = classify(sample, y).tag
    if tag != expected:
        raise UnsupportedImage(
            f"reconstructed direction classifies as {tag}, expected {expected}"
        )
    return y


# --- factor space ------------------------------------------------------------


def _factor_metric(sample: BackgroundSample, m: Sequence[float], tag: str) -> np.ndarray:
    """Seed form pulled back along the image vector's analytic derivatives in
    the unit-shell factor coordinates ``m = (eta, phi, chi)``."""
    eta, phi, chi = (float(component) for component in m)
    point = UarPoint(z0=1.0, eta=eta, phi=phi, chi=chi)
    y = uar_from_angles(sample, point, tag)
    h = sample.h_time if tag == "time-future" else sample.h_space
    dy_dm = sample.frame_inv @ _chart_jacobian(point, sample.g, h, tag)[:, 1:]
    legs = _zeta_jacobian(_Direction(sample, y, None)) @ dy_dm
    return (legs.T @ sample.a @ legs) / (h * h)


def factor_space_curvature(
    sample: BackgroundSample, m: Sequence[float], tag: str
) -> float:
    """Constant sectional curvature of the factor-space metric at ``m``.

    Fits the constant-curvature relation between the curvature tensor and the
    factor metric by least squares over all index combinations; the fitted
    constant is the sectional curvature.
    """
    _require_unit(sample, "the factor-space curvature")
    _require_dim4(sample, "the factor-space curvature")
    m_arr = np.asarray(m, dtype=float)

    def metric_at(point: np.ndarray) -> np.ndarray:
        return _factor_metric(sample, point, tag)

    def christoffel_at(point: np.ndarray) -> np.ndarray:
        i_ab = metric_at(point)
        d_i = np.moveaxis(fd_jacobian(metric_at, point, FACTOR_FD), -1, 0)
        inverse = np.linalg.inv(i_ab)
        # Gamma^a_{bc} = 1/2 i^{ad} (d_b i_{dc} + d_c i_{db} - d_d i_{bc})
        return 0.5 * np.einsum(
            "ad,bdc->abc",
            inverse,
            d_i.transpose(0, 1, 2) + d_i.transpose(2, 1, 0) - d_i.transpose(1, 0, 2),
        )

    i_ab = metric_at(m_arr)
    gamma = christoffel_at(m_arr)
    d_gamma = np.moveaxis(fd_jacobian(christoffel_at, m_arr, FACTOR_FD), -1, 0)

    # R^a_{bcd} = d_d Gamma^a_{cb} - d_c Gamma^a_{db} + Gamma^a_{dm} Gamma^m_{cb}
    #             - Gamma^a_{cm} Gamma^m_{db}
    # (sign convention fixed so this route agrees with the cubic-form shell
    # curvature carried over by the conformal isomorphism)
    riemann_up = (
        np.einsum("dacb->abcd", d_gamma)
        - np.einsum("cadb->abcd", d_gamma)
        + np.einsum("adm,mcb->abcd", gamma, gamma)
        - np.einsum("acm,mdb->abcd", gamma, gamma)
    )
    riemann = np.einsum("am,mbcd->abcd", i_ab, riemann_up)
    target = np.einsum("ac,bd->abcd", i_ab, i_ab) - np.einsum(
        "ad,bc->abcd", i_ab, i_ab
    )
    return float(np.sum(riemann * target) / np.sum(target * target))


def factor_space_angle(
    sample: BackgroundSample, y1: Sequence[float], y2: Sequence[float]
) -> float:
    """Angle between two same-sector directions via their conformal images."""
    _require_unit(sample, "the factor-space angle")
    y1_arr = np.asarray(y1, dtype=float)
    y2_arr = np.asarray(y2, dtype=float)
    # the angle reads only the images' directions, whose norms may overflow or turn subnormal
    z1, _ = _binary_normalised(_image(_Direction(sample, y1_arr, None))[0])
    z2, _ = _binary_normalised(_image(_Direction(sample, y2_arr, None))[0])
    s1 = float(z1 @ sample.a @ z1)
    s2 = float(z2 @ sample.a @ z2)
    if positively_parallel(y1_arr, y2_arr) and s1 * s2 > 0.0:
        return 0.0
    if s1 > 0.0 and s2 > 0.0:
        eps, h = 1, sample.h_time
    elif s1 < 0.0 and s2 < 0.0:
        eps, h = -1, sample.h_space
    else:
        raise MixedSectors("image vectors lie on opposite sides of the seed cone")
    tau = eps * float(z1 @ sample.a @ z2) / math.sqrt(s1 * s2)
    return _arc(_clamped(tau, eps, "image pair invariant"), eps, h)
