"""Anisotropic angles, scalar products, and the angular chart (dimension 4).

The angle between two directions of the same sector is invariant under the
anisotropy: it is computed directly from the scalar chains, reproduced by a
closed form in chart coordinates, and (in the conformal module) by mapping to
the factor space — three genuinely different routes that the tests require to
agree. The routes read one ``metric._Direction`` record per direction, and
each ends in the same inversion of its pair invariant: ``_clamped`` checks the
invariant against the ``acosh`` (time) or ``acos`` (space) domain and clamps
it, and ``_arc`` inverts it.

The angular chart parameterises a supported direction by its norm ``z0``, a
boost angle ``eta``, an azimuth ``phi``, and the normalised angular variable
``chi`` along the preferred direction. In these coordinates the induced
metric is diagonal, and a further two-variable substitution exhibits it as
conformally flat.

Every chart formula is written once for both sectors, which differ only by
the sector sign ``eps`` and the half-charge root ``h``: a chart point has the
frame components ``z0 (p e0, p e1 cos phi, p e1 sin phi, s)``, with the signed
profiles ``p = eps * lead``, ``s = eps * other`` and the boost legs ``(e0, e1)``.

Key entry points
----------------
angle / scalar_product
    Direct route from the two direction records.
uar_from_angles / uar_to_angles
    The chart and its inverse (axis rays canonicalised).
angle_closed_form
    Chart-coordinate closed form of the angle.
uar_metric / uar_closed_diagonals / flatness_check
    Induced chart metric by congruence, its closed diagonal, and the
    conformally flat normal form with factor ``(1/h^2) |F^2|^(1-h)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .background import BackgroundSample
from .errors import ChartDomain, CNotUnit, DomainError, MixedSectors, UnsupportedSector
from .kinematics import Q_MIN_REL, classify
from .metric import _Direction, metric_tensor

__all__ = [
    "UarPoint",
    "positively_parallel",
    "angle",
    "scalar_product",
    "angle_closed_form",
    "uar_from_angles",
    "uar_to_angles",
    "uar_metric",
    "uar_closed_diagonals",
    "flatness_check",
]

#: Clamp window for inverse trigonometric/hyperbolic arguments.
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class UarPoint:
    """Chart coordinates: norm ``z0 > 0``, boost ``eta``, azimuth ``phi`` in
    ``[0, 2 pi)``, normalised angular variable ``chi`` (sector-dependent
    range)."""

    z0: float
    eta: float
    phi: float
    chi: float


# --- guards ------------------------------------------------------------------


def _require_unit(sample: BackgroundSample, what: str) -> None:
    if not sample.c_is_unit:
        raise CNotUnit(f"{what} requires unit preferred-direction norm")


def _require_dim4(sample: BackgroundSample, what: str) -> None:
    if sample.dim != 4:
        raise ChartDomain(f"{what} is implemented for dimension 4")


def _chart_sector(sample: BackgroundSample, tag: str) -> tuple[float, float]:
    """Sector sign ``eps`` and half-charge root ``h`` of a chart sector."""
    if tag not in ("time-future", "space-like"):
        raise UnsupportedSector(f"no chart for sector {tag!r}")
    return (1.0, sample.h_time) if tag == "time-future" else (-1.0, sample.h_space)


def _require_chart_point(
    sample: BackgroundSample, point: UarPoint, tag: str
) -> tuple[float, float]:
    """``_chart_sector`` of ``tag`` for a point in its chart: finite, with
    ``z0 > 0`` and, in the space sector, ``chi`` in ``(-pi/h, 0]``."""
    if not all(map(math.isfinite, (point.z0, point.eta, point.phi, point.chi))):
        raise ChartDomain(f"chart point {point} has a non-finite coordinate")
    if point.z0 <= 0.0:
        raise ChartDomain(f"chart norm z0 = {point.z0!r} must be positive")
    eps, h = _chart_sector(sample, tag)
    if eps < 0 and not -math.pi / h - CLAMP_TOL <= point.chi <= CLAMP_TOL:
        raise ChartDomain(f"space-sector chi = {point.chi!r} outside (-pi/h, 0]")
    return eps, h


def _binary_normalised(v: np.ndarray) -> tuple[np.ndarray, int]:
    """``v`` times ``2**-e`` and the exponent ``e`` that brings its largest
    component into ``[0.5, 1)``. The scaling is exact, so a quantity that is
    homogeneous in ``v`` keeps its bits where it stays in the normal float
    range; only products that would overflow or turn subnormal change."""
    _, exponent = math.frexp(float(np.max(np.abs(v))))
    return np.ldexp(v, -exponent), exponent


def _paired_records(
    sample: BackgroundSample, y1: Sequence[float], y2: Sequence[float]
) -> tuple[_Direction, _Direction, int]:
    """Records of the two same-sector directions, each scaled by
    :func:`_binary_normalised` so that the pair products of the angle routes
    stay in range, and the sum of the two exponents."""
    y1_arr, e1 = _binary_normalised(np.asarray(y1, dtype=float))
    y2_arr, e2 = _binary_normalised(np.asarray(y2, dtype=float))
    s1 = classify(sample, y1_arr)
    s2 = classify(sample, y2_arr)
    if not s1.supported:
        raise UnsupportedSector(f"first direction is {s1.tag}")
    if not s2.supported:
        raise UnsupportedSector(f"second direction is {s2.tag}")
    if s1.tag != s2.tag:
        raise MixedSectors(f"directions lie in different sectors: {s1.tag} vs {s2.tag}")
    return _Direction(sample, y1_arr), _Direction(sample, y2_arr), e1 + e2


def _clamped(tau: float, eps: int, what: str) -> float:
    """Pair invariant ``tau`` clamped into the ``acosh`` domain (``eps > 0``)
    or the ``acos`` domain; beyond ``CLAMP_TOL``, or not finite, it subtends
    no real angle."""
    if not math.isfinite(tau):
        raise DomainError(f"{what} {tau!r} is not finite")
    if eps > 0:
        if tau < 1.0 - CLAMP_TOL:
            raise DomainError(f"{what} {tau!r} below the hyperbolic domain")
        return max(tau, 1.0)
    if abs(tau) > 1.0 + CLAMP_TOL:
        raise DomainError(f"{what} {tau!r} outside the circular domain")
    return min(max(tau, -1.0), 1.0)


def _arc(tau: float, eps: int, h: float) -> float:
    """Angle of a clamped pair invariant: ``acosh`` in the time sector, ``acos``
    in the space sector, over the half-charge root ``h``."""
    return (math.acosh(tau) if eps > 0 else math.acos(tau)) / h


# --- direct route ------------------------------------------------------------


def positively_parallel(y1: np.ndarray, y2: np.ndarray) -> bool:
    """True when ``y2`` is a positive multiple of ``y1`` up to rounding.

    The pair invariant of a parallel pair is exactly 1 analytically, but the
    inverse-cosh route amplifies its last-ulp rounding to ~1e-8; the angle
    routes short-circuit such pairs to an exact zero instead.
    """
    k = int(np.argmax(np.abs(y1)))
    if y1[k] == 0.0 or y2[k] == 0.0:
        return False
    lam = y2[k] / y1[k]
    if lam <= 0.0:
        return False
    return bool(
        np.max(np.abs(y2 - lam * y1)) <= 8e-16 * abs(lam) * float(np.max(np.abs(y1)))
    )


def _pair_cosine(d1: _Direction, d2: _Direction) -> float:
    """Normalised pair invariant: hyperbolic cosine of ``h * angle`` in the
    time sector, circular cosine in the space sector (clamped)."""
    if positively_parallel(d1.y, d2.y):
        return 1.0
    k1, k2 = d1.scal, d2.scal
    r12 = float(d1.y @ d1.sample.a @ d2.y) + k1.b * k2.b
    h = k1.h
    product = k1.B * k2.B
    if math.isinf(product):
        # the invariant would read 0 over an infinite root: a right angle
        raise DomainError(f"pair product {product!r} overflows")
    tau = k1.eps * (h * h * r12 - k1.A * k2.A) / math.sqrt(abs(product))
    return _clamped(tau, k1.eps, "pair invariant")


def angle(sample: BackgroundSample, y1: Sequence[float], y2: Sequence[float]) -> float:
    """Anisotropic angle between two same-sector directions (direct route)."""
    _require_unit(sample, "the anisotropic angle")
    d1, d2, _ = _paired_records(sample, y1, y2)
    return _arc(_pair_cosine(d1, d2), d1.scal.eps, d1.scal.h)


def scalar_product(
    sample: BackgroundSample, y1: Sequence[float], y2: Sequence[float]
) -> float:
    """Anisotropic scalar product; reduces to the squared norm on the diagonal."""
    _require_unit(sample, "the anisotropic scalar product")
    d1, d2, exponent = _paired_records(sample, y1, y2)
    tau = _pair_cosine(d1, d2)
    eps = d1.scal.eps
    return math.ldexp(eps * math.sqrt(eps * d1.f2) * math.sqrt(eps * d2.f2) * tau, exponent)


# --- chart -------------------------------------------------------------------


def _pair(f: float, eps: float) -> tuple[float, float]:
    """The sector's function pair at ``f``: ``(cosh f, sinh f)`` in the time
    sector (``eps > 0``), ``(sin f, cos f)`` in the space sector."""
    return (math.cosh(f), math.sinh(f)) if eps > 0 else (math.sin(f), math.cos(f))


def _boost(eta: float, eps: float) -> tuple[float, float]:
    """Boost legs ``(e0, e1)`` of the chart frame: ``(cosh eta, sinh eta)`` in
    the time sector, ``(sinh eta, cosh eta)`` in the space sector."""
    return (math.cosh(eta), math.sinh(eta)) if eps > 0 else (math.sinh(eta), math.cosh(eta))


def _profiles(chi: float, g: float, h: float, eps: float) -> tuple[float, float, float]:
    """Profiles of the chart at ``chi``: ``(Ch, Sh, Sh*)`` in the time sector,
    ``(Sin, Cos, Cos*)`` in the space sector."""
    f = h * chi
    j = math.exp(-0.5 * (g / h) * f)
    lead, other = _pair(f, eps)
    return (
        lead / (j * h),
        (other - 0.5 * (g / h) * lead) / j,
        (other + 0.5 * (g / h) * lead) / j,
    )


def uar_from_angles(sample: BackgroundSample, point: UarPoint, tag: str) -> np.ndarray:
    """Direction for chart coordinates ``point`` in sector ``tag``."""
    _require_unit(sample, "the angular chart")
    _require_dim4(sample, "the angular chart")
    eps, h = _require_chart_point(sample, point, tag)
    z0 = point.z0
    lead, other, _ = _profiles(point.chi, sample.g, h, eps)
    p, s = eps * lead, eps * other
    e0, e1 = _boost(point.eta, eps)
    # z0 e0 first in the space sector: the product order the reference chart pins
    first = z0 * p * e0 if eps > 0 else z0 * e0 * p
    frame_components = np.array(
        [first, z0 * p * e1 * math.cos(point.phi), z0 * p * e1 * math.sin(point.phi), z0 * s]
    )
    return sample.frame_inv @ frame_components


def uar_to_angles(sample: BackgroundSample, y: Sequence[float]) -> UarPoint:
    """Chart coordinates of a supported direction (axis rays get
    ``eta = phi = 0``)."""
    _require_unit(sample, "the angular chart")
    _require_dim4(sample, "the angular chart")
    return _uar_point(_Direction(sample, y))


def _uar_point(d: _Direction) -> UarPoint:
    """Chart coordinates of a direction read from its record."""
    scal = d.scal
    z0 = math.sqrt(abs(d.f2))
    r = d.sample.frame @ d.y
    rho = math.hypot(r[1], r[2])
    if scal.q <= Q_MIN_REL * scal.scale:
        # q also vanishes off the axis, where the transverse part is null
        transverse = d.y + scal.b * d.sample.b_contra
        if float(np.linalg.norm(transverse)) > Q_MIN_REL * scal.scale:
            raise ChartDomain("direction has a null transverse part: no chart boost")
        eta, phi = 0.0, 0.0
    else:
        phi = math.atan2(r[2], r[1])
        if phi < 0.0:
            phi += 2.0 * math.pi
        eta = math.asinh((rho if scal.eps > 0 else r[0]) / scal.q)
    return UarPoint(z0=z0, eta=eta, phi=phi, chi=scal.chi)


def angle_closed_form(
    sample: BackgroundSample, y1: Sequence[float], y2: Sequence[float]
) -> float:
    """Angle via chart coordinates of the two directions."""
    _require_unit(sample, "the closed-form angle")
    _require_dim4(sample, "the closed-form angle")
    d1, d2, _ = _paired_records(sample, y1, y2)
    if positively_parallel(d1.y, d2.y):
        return 0.0
    p1 = _uar_point(d1)
    p2 = _uar_point(d2)
    eps, h = d1.scal.eps, d1.scal.h
    lead1, other1 = _pair(h * p1.chi, eps)
    lead2, other2 = _pair(h * p2.chi, eps)
    e0_1, e1_1 = _boost(p1.eta, eps)
    e0_2, e1_2 = _boost(p2.eta, eps)
    z12 = eps * (e0_1 * e0_2 - e1_1 * e1_2 * math.cos(p1.phi - p2.phi))
    tau = lead1 * lead2 * z12 - eps * other1 * other2
    return _arc(_clamped(tau, eps, "chart pair invariant"), eps, h)


# --- chart metric ------------------------------------------------------------


def _chart_jacobian(point: UarPoint, g: float, h: float, tag: str) -> np.ndarray:
    """Analytic Jacobian ``d(frame components)/d(z0, eta, phi, chi)``; the
    ``eta`` derivative swaps the boost legs."""
    eps = 1.0 if tag == "time-future" else -1.0
    z0, cphi, sphi = point.z0, math.cos(point.phi), math.sin(point.phi)
    lead, other, other_star = _profiles(point.chi, g, h, eps)
    p, s, dp = eps * lead, eps * other, eps * other_star
    e0, e1 = _boost(point.eta, eps)
    return np.array(
        [
            [p * e0, p * e1 * cphi, p * e1 * sphi, s],
            [z0 * p * e1, z0 * p * e0 * cphi, z0 * p * e0 * sphi, 0.0],
            [0.0, -z0 * p * e1 * sphi, z0 * p * e1 * cphi, 0.0],
            [z0 * dp * e0, z0 * dp * e1 * cphi, z0 * dp * e1 * sphi, z0 * lead],
        ]
    ).T


def uar_metric(sample: BackgroundSample, point: UarPoint, tag: str) -> np.ndarray:
    """Induced chart metric by congruence with the direction-dependent metric."""
    y = uar_from_angles(sample, point, tag)
    g_cov = metric_tensor(sample, y)
    g_frame = sample.frame_inv.T @ g_cov @ sample.frame_inv
    _, h = _chart_sector(sample, tag)
    jac = _chart_jacobian(point, sample.g, h, tag)
    return jac.T @ g_frame @ jac


def uar_closed_diagonals(sample: BackgroundSample, point: UarPoint, tag: str) -> np.ndarray:
    """Closed form of the chart-metric diagonal."""
    eps, h = _require_chart_point(sample, point, tag)
    z0 = point.z0
    lead, _ = _pair(h * point.chi, eps)
    _, e1 = _boost(point.eta, eps)
    return np.array(
        [eps, -eps * (z0 * lead / h) ** 2, -((z0 * e1 * lead / h) ** 2), -(z0 * z0)]
    )


def flatness_check(
    sample: BackgroundSample, point: UarPoint, tag: str
) -> tuple[float, float]:
    """Fit the conformally flat normal form of the chart metric.

    Transforms the sector-signed chart metric to the two-variable normal
    coordinates and fits the proportionality constant against the flat target
    ``diag(1, -1, -rho^2, -rho^2 sinh^2 eta)`` (time) or
    ``diag(1, 1, -rho^2, rho^2 cosh^2 eta)`` (space). Returns the fitted
    factor (expected ``(1/h^2)|F^2|^(1-h)``) and the relative residual.
    """
    a_chart = uar_metric(sample, point, tag)
    eps, h = _chart_sector(sample, tag)
    z0 = point.z0
    power = z0**h
    lead, other = _pair(h * point.chi, eps)
    _, e1 = _boost(point.eta, eps)
    rho = power * lead
    jac2 = h * power * np.array([[lead / z0, other], [other / z0, eps * lead]])
    target = np.diag([1.0, -eps, -rho * rho, -eps * rho * rho * e1**2])

    # full Jacobian d(rho, tau, eta, phi)/d(z0, eta, phi, chi)
    jac_full = np.zeros((4, 4))
    jac_full[:2, [0, 3]] = jac2
    jac_full[2, 1] = jac_full[3, 2] = 1.0
    inverse = np.linalg.inv(jac_full)
    transformed = inverse.T @ (eps * a_chart) @ inverse

    weight = float(np.sum(target * target))
    factor = float(np.sum(transformed * target) / weight)
    residual = float(
        np.linalg.norm(transformed - factor * target) / np.linalg.norm(factor * target)
    )
    return factor, residual
