"""Direction classification and the scalar chain underlying the metric.

For a background sample and a direction ``y`` this module computes the
support scalar ``b = b_i y^i``, the augmented quadratic form
``gamma = (a_ij + b_i b_j) y^i y^j``, the transverse radius ``q = sqrt|gamma|``,
and the derived chain (half-charge roots, cone margins, angular variable,
anisotropy weight) that every closed-form tensor in the package is built from.

Three private pieces are written once: ``_measure`` (a vector's ``|y|``,
``b`` and ``gamma``, computed once per chain), ``_margins`` (the time-cone
margins) and ``_chain`` (the sector chain at a charge, on ``(b, q, gamma)``
with ``q = sqrt|gamma|`` from the caller). Directions read them at ``g``, the
covector chain of :mod:`finsleroid.dual` at ``-g``, and its Newton model at
``g``. Classification hands out the twelve ``Sector`` values built at import.

A direction has one scalar chain, ``_scalar_values``: on a measurement it
refuses non-finite values, makes the sector decision, runs ``_chain`` and the
trace-weight guards, and returns the chain's plain values. ``scalars`` wraps
them in its record on the measurement it takes, and the finite-difference
rows of :mod:`finsleroid.metric` read them on each row of a stacked
measurement without a record, so every guard is written once.

Supported directions fall into two open cones:

* ``time-future`` — inside the future metric cone (``gamma > 0``, both cone
  margins positive, future time orientation);
* ``space-like`` — outside the augmented cone (``gamma < 0``), extended by
  the null shell on the negative-support side, which contains the preferred
  axis ray.

Directions on the metric cone itself are tagged ``isotropic``; past cones,
the gap between the cones on the positive-support side, and the opposite
axis ray are ``unsupported``.

Key entry points
----------------
classify
    Tolerance-guarded sector and side tags (never raises on finite input).
scalars
    The full scalar chain; raises ``DomainError`` on a non-finite measurement
    and ``UnsupportedSector`` outside the two supported cones.
aux_vectors
    Lowered direction, transverse parts, and the angular gradient direction.
random_admissible
    Seeded rejection sampler used by the check battery and the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .background import BackgroundSample, _built
from .errors import DegenerateNu, DegenerateQ, DomainError, NoConvergence, UnsupportedSector

__all__ = [
    "Sector",
    "KinematicScalars",
    "AuxVectors",
    "classify",
    "scalars",
    "aux_vectors",
    "random_admissible",
    "GAMMA_TOL_REL",
    "MARGIN_TOL_REL",
    "Q_MIN_REL",
    "NU_MIN_REL",
]

#: Relative tolerance on ``gamma`` (degree-2 homogeneous) for cone tests.
GAMMA_TOL_REL = 1e-9
#: Relative tolerance on degree-1 homogeneous margins (``b``, cone margins).
MARGIN_TOL_REL = 1e-9
#: Below this relative transverse radius, operations dividing by ``q`` refuse.
Q_MIN_REL = 1e-10
#: Below this relative dual radius, operations dividing by ``nu`` refuse.
NU_MIN_REL = 1e-12


@dataclass(frozen=True)
class Sector:
    """Classification of a direction.

    ``tag`` is one of ``time-future``, ``space-like``, ``isotropic``,
    ``unsupported``; ``side`` is ``right`` (positive support), ``left``
    (negative support), or ``boundary``.
    """

    tag: str
    side: str

    @property
    def supported(self) -> bool:
        return self.tag in ("time-future", "space-like")

    @property
    def eps(self) -> int:
        """Sector sign: +1 in the time-future cone, -1 in the space-like cone."""
        if self.tag == "time-future":
            return 1
        if self.tag == "space-like":
            return -1
        raise UnsupportedSector(f"direction is {self.tag}; no sector sign")


#: Every ``Sector``, built once; classification hands these out.
_SECTORS = {
    (tag, side): Sector(tag, side)
    for tag in ("time-future", "space-like", "isotropic", "unsupported")
    for side in ("right", "left", "boundary")
}


@dataclass(frozen=True)
class KinematicScalars:
    """The scalar chain at one direction.

    ``b`` support scalar, ``gamma`` augmented quadratic form, ``q`` transverse
    radius, ``eps`` sector sign, ``h`` half-charge root, ``g_plus``/``g_minus``
    cone-slope roots, ``B`` cone quadratic, ``L``/``A`` shifted radii, ``f``
    angular variable, ``J`` anisotropy weight, ``chi`` normalised angular
    variable, ``nu`` dual radius, ``X`` trace weight, ``scale`` the Euclidean
    length ``|y|`` that the relative guards scale with.
    """

    b: float
    gamma: float
    q: float
    eps: int
    h: float
    g_plus: float
    g_minus: float
    B: float
    L: float
    A: float
    f: float
    J: float
    chi: float
    nu: float
    X: float
    scale: float


@dataclass(frozen=True)
class AuxVectors:
    """Auxiliary vectors: ``u_i = a_ij y^j``, transverse parts ``v``, and the
    angular gradient direction ``e_i`` (orthogonal to ``y``)."""

    u: np.ndarray
    v_cov: np.ndarray
    v_contra: np.ndarray
    e: np.ndarray


# --- the three pieces every chain reads ---------------------------------------


def _measure(a: np.ndarray, b_vec: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """``(|v|, b, v.a.v + b^2)`` with ``b = b_vec . v``; covectors pass ``(a_inv, b_contra)``."""
    b = float(b_vec @ v)
    # np.linalg.norm of a 1-D array is sqrt(v.dot(v)); math.sqrt rounds alike
    return math.sqrt(float(v.dot(v))), b, float(v @ a @ v) + b * b


def _margins(b: float, q: float, g: float, h: float) -> tuple[float, float]:
    """Time-cone margins ``(b - g_minus q, g_plus q - b)``, positive inside the cone."""
    return b - (-0.5 * g - h) * q, (-0.5 * g + h) * q - b


def _chain(
    b: float, q: float, gamma: float, g: float, h: float, eps: int
) -> tuple[float, float, float, float]:
    """``(B, A, f, J)`` of the sector-``eps`` chain at charge ``g``, ``q = sqrt|gamma|``."""
    big_b = gamma - g * b * q - b * b
    big_a = b + 0.5 * g * q
    if eps > 0:
        low, high = _margins(b, q, g, h)
        f = 0.5 * math.log(low / high)
    else:
        f = math.atan2(h * q, big_a) - math.pi
    return big_b, big_a, f, math.exp(-0.5 * (g / h) * f)


# --- classification ----------------------------------------------------------


def classify(sample: BackgroundSample, y: Sequence[float]) -> Sector:
    """Classify direction ``y`` at the sampled point with relative tolerances."""
    y_arr = np.asarray(y, dtype=float)
    return _sector(sample, y_arr, *_measure(sample.a, sample.b_cov, y_arr))


def _sector(
    sample: BackgroundSample, y_arr: np.ndarray, scale: float, b: float, gamma: float
) -> Sector:
    """The classification decision on a direction's ``(|y|, b, gamma)``; the
    time orientation is the sign of ``time_cov @ y``, the sample's
    ``time_leg @ a`` applied to ``y`` (so ``time_leg @ a @ y`` bit for bit),
    built on the first read, which only a time-cone direction makes."""
    tol_gamma = GAMMA_TOL_REL * scale * scale
    tol_margin = MARGIN_TOL_REL * scale

    if b > tol_margin:
        side = "right"
    elif b < -tol_margin:
        side = "left"
    else:
        side = "boundary"

    if gamma > tol_gamma:
        margin_low, margin_high = _margins(b, math.sqrt(gamma), sample.g, sample.h_time)
        if abs(margin_low) <= tol_margin or abs(margin_high) <= tol_margin:
            tag = "isotropic"
        elif margin_low > 0.0 and margin_high > 0.0 and (
            float(sample.time_cov @ y_arr) > 0.0
        ):
            tag = "time-future"
        else:
            tag = "unsupported"
    elif gamma < -tol_gamma or side == "left":  # the left side of the null shell too
        tag = "space-like"
    else:  # on the augmented null shell
        tag = "unsupported" if side == "right" else "isotropic"
    return _SECTORS[tag, side]


# --- scalar chain ------------------------------------------------------------


def scalars(sample: BackgroundSample, y: Sequence[float]) -> KinematicScalars:
    """Compute the scalar chain for a supported direction, classified as
    :func:`classify` would from the measurement the chain takes anyway.

    Raises
    ------
    DomainError
        If ``|y|``, ``b`` or ``gamma`` is not finite.
    UnsupportedSector
        If the direction is isotropic or unsupported.
    DegenerateQ / DegenerateNu
        Only below unit preferred-direction norm, where the trace weight
        divides by ``q`` and ``nu``.
    """
    y_arr = np.asarray(y, dtype=float)
    scale, b, gamma = _measure(sample.a, sample.b_cov, y_arr)
    q, big_b, j, eps, h, big_a, f, nu, x_weight = _scalar_values(sample, y_arr, scale, b, gamma)
    g = sample.g
    return _built(KinematicScalars, {
        "b": b, "gamma": gamma, "q": q, "eps": eps, "h": h, "g_plus": -0.5 * g + h,
        "g_minus": -0.5 * g - h, "B": big_b, "L": q - eps * 0.5 * g * b, "A": big_a, "f": f,
        "J": j, "chi": f / h, "nu": nu, "X": x_weight, "scale": scale,
    })


def _scalar_values(
    sample: BackgroundSample, y_arr: np.ndarray, scale: float, b: float, gamma: float
) -> tuple[float, float, float, int, float, float, float, float, float]:
    """The scalar chain on a direction's measurement ``(|y|, b, gamma)`` as the
    plain values ``(q, B, J, eps, h, A, f, nu, X)``: the finiteness check, the
    sector decision, the chain and its guards."""
    if not (math.isfinite(scale) and math.isfinite(b) and math.isfinite(gamma)):
        raise DomainError(
            f"direction {tuple(y_arr.tolist())} measures |y| = {scale!r}, b = {b!r}, "
            f"gamma = {gamma!r}; the scalar chain needs finite values"
        )
    sector = _sector(sample, y_arr, scale, b, gamma)
    if not sector.supported:
        raise UnsupportedSector(
            f"direction {tuple(y_arr.tolist())} is {sector.tag} (side {sector.side})"
        )
    eps = sector.eps

    g = sample.g
    h = sample.h_time if eps > 0 else sample.h_space
    q = math.sqrt(abs(gamma))
    big_b, big_a, f, j = _chain(b, q, gamma, g, h, eps)

    one_minus_c2 = 1.0 - sample.c * sample.c
    nu = q - eps * one_minus_c2 * g * b
    if abs(one_minus_c2) <= 1e-15:
        x_weight = 1.0 / sample.dim
    else:
        if q <= Q_MIN_REL * scale:
            raise DegenerateQ("trace weight needs a positive transverse radius below unit norm")
        if nu <= NU_MIN_REL * scale:
            raise DegenerateNu(f"dual radius nu = {nu!r} is not positive")
        x_weight = 1.0 / (sample.dim + eps * one_minus_c2 * big_b / (q * nu))
    return q, big_b, j, eps, h, big_a, f, nu, x_weight


def aux_vectors(
    sample: BackgroundSample,
    y: Sequence[float],
    scal: KinematicScalars,
) -> AuxVectors:
    """Auxiliary vectors for tensor assembly.

    Raises
    ------
    DegenerateQ
        On the axis ray, where the angular gradient direction divides by
        ``q^2``.
    """
    y_arr = np.asarray(y, dtype=float)
    u = sample.a @ y_arr
    v_contra = y_arr + scal.b * sample.b_contra
    v_cov = u + scal.b * sample.b_cov
    if scal.q <= Q_MIN_REL * scal.scale:
        raise DegenerateQ("angular gradient direction is undefined on the axis ray")
    e = -sample.b_cov + scal.eps * (scal.b / (scal.q * scal.q)) * v_cov
    return AuxVectors(u=u, v_cov=v_cov, v_contra=v_contra, e=e)


# --- sampling ----------------------------------------------------------------


def random_admissible(
    sample: BackgroundSample,
    rng: np.random.Generator,
    tag: str,
    count: int,
    *,
    margin: float = 0.0,
    max_tries: int = 100_000,
) -> np.ndarray:
    """Draw ``count`` unit-Euclidean-norm directions classified as ``tag``.

    ``margin`` additionally requires the direction to sit comfortably inside
    its cone (all relevant homogeneous margins exceed ``margin`` at unit
    norm), which keeps finite-difference probes from crossing sector walls.
    Below unit preferred-direction norm, space-like draws whose dual radius
    ``nu`` is not positive (see :func:`scalars`) are rejected as well.

    Raises
    ------
    NoConvergence
        If ``max_tries`` draws yield fewer than ``count`` directions.
    """
    if tag not in ("time-future", "space-like"):
        raise ValueError(f"can only sample supported sectors, not {tag!r}")
    one_minus_c2 = 1.0 - sample.c * sample.c
    out = np.empty((count, sample.dim))
    found = 0
    for _ in range(max_tries):
        if found == count:
            break
        y = rng.standard_normal(sample.dim)
        norm = math.sqrt(float(y.dot(y)))  # np.linalg.norm, as in _measure
        if norm < 1e-12:
            continue
        y /= norm
        scale, b, gamma = _measure(sample.a, sample.b_cov, y)
        if _sector(sample, y, scale, b, gamma).tag != tag:
            continue
        q = math.sqrt(abs(gamma))
        if margin > 0.0:
            if tag == "time-future":
                low, high = _margins(b, q, sample.g, sample.h_time)
                if gamma <= margin * margin or low <= margin or high <= margin:
                    continue
            elif gamma >= -margin * margin:
                continue
        if tag == "space-like" and abs(one_minus_c2) > 1e-15:
            if q + one_minus_c2 * sample.g * b <= NU_MIN_REL:
                continue  # the dual radius nu vanishes: no trace weight here
        out[found] = y
        found += 1
    if found < count:
        raise NoConvergence(
            f"rejection sampling exhausted {max_tries} tries with {found}/{count} accepted"
        )
    return out
