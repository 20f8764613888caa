"""Correctness checks for the benchmark workloads, written with numpy alone.

Nothing here imports ``finsleroid``. Each check compares a program output
with an independent computation (the scalar chain of the paper, written
again below) or with a property the method must have (Euler relations,
conservation laws, straight lines on a constant background). No check
compares against a stored copy of an earlier output.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math

import numpy as np

#: Squared-norm drift allowed along a geodesic of at most unit parameter
#: length; the same value as ``TOL_GEODESIC_F2`` in the package.
TOL_GEODESIC_F2 = 1e-6
#: Drift allowed in a conserved momentum component, relative to the
#: largest initial momentum component.
TOL_MOMENTUM = 1e-6
#: ``g^-1 g`` against the identity, absolute (``TOL_METRIC_INVERSE``).
TOL_METRIC_INVERSE = 1e-9
#: Closed determinant ratio against ``numpy.linalg.det``, relative.
TOL_DET_RATIO = 1e-9
#: Indicatrix curvature against ``-eps - g^2/4``, absolute.
TOL_INDICATRIX = 1e-6
#: Agreement with the scalar chain below and the Euler relations, relative.
TOL_CHAIN = 1e-10
#: A geodesic on a constant background against the straight line, absolute.
TOL_LINE = 1e-10

#: The base metric of every configuration the benchmark uses.
MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])

#: The identities of the ``check`` battery. ``angle_routes`` is counted per
#: pair of directions; every other identity runs once per direction.
BATTERY_IDENTITIES = (
    "angle_routes",
    "cartan_norm",
    "conformal_power",
    "conformal_pushforward",
    "conformal_roundtrip",
    "det_ratio",
    "dual_closed",
    "dual_newton",
    "euler_metric",
    "euler_momentum",
    "frame",
    "indicatrix",
    "metric_inverse",
    "momentum_contraction",
    "norm_trace",
    "spray_oracle",
    "uar_norm",
    "uar_roundtrip",
)
PAIR_IDENTITIES = frozenset({"angle_routes"})


# --- backgrounds -------------------------------------------------------------


def background(config: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Preferred covector and charge at positions ``x`` (shape ``(..., 4)``).

    These are the fields of ``configs/<config>.cfg``, written out again so
    the checks do not read them through the package. All three share the
    Minkowski base metric.
    """
    x1 = np.asarray(x, dtype=float)[..., 1]
    b_cov = np.zeros(x1.shape + (4,))
    if config == "desk":
        b_cov[..., 3] = 1.0
        g = np.full(x1.shape, 0.6)
    elif config == "desk_shifted_b":
        b_cov[..., 3] = 1.0 - 0.1 * x1
        g = np.full(x1.shape, 0.6)
    elif config == "desk_variable_g":
        b_cov[..., 3] = 1.0
        g = 0.6 * np.exp(-x1)
    else:
        raise ValueError(f"no independent background for {config!r}")
    return b_cov, g


#: Coordinates that no field of the configuration depends on; their
#: covariant momentum components are conserved along geodesics.
CYCLIC = {"desk": (0, 1, 2, 3), "desk_shifted_b": (0, 2, 3), "desk_variable_g": (0, 2, 3)}


# --- the scalar chain --------------------------------------------------------


def _support(b_cov: np.ndarray, y: np.ndarray):
    """``u_i = a_ij y^j``, ``b = b_i y^i``, ``gamma = a(y, y) + b^2`` and
    ``q = sqrt|gamma|``."""
    u = y @ MINKOWSKI
    b = np.sum(b_cov * y, axis=-1)
    gamma = np.sum(u * y, axis=-1) + b * b
    return u, b, gamma, np.sqrt(np.abs(gamma))


def chain(b_cov: np.ndarray, g: np.ndarray, y: np.ndarray, eps: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared norm ``F^2`` and momentum ``y_i`` from the paper's scalar chain.

    ``b = b_i y^i``, ``gamma = a(y, y) + b^2``, ``q = sqrt|gamma|``,
    ``h = sqrt(1 + eps g^2/4)``, ``B = gamma - g b q - b^2``; the angular
    variable ``f`` is ``(1/2) ln((b + (g/2 + h) q) / ((h - g/2) q - b))`` in
    the time-future cone and ``atan2(h q, b + g q/2) - pi`` in the
    space-like one; ``J = exp(-g f / (2 h))``, ``F^2 = B J^2`` and
    ``y_i = (a_ij y^j - g q b_i) J^2``. Leading axes broadcast.
    """
    u, b, gamma, q = _support(b_cov, np.asarray(y, dtype=float))
    h = np.sqrt(1.0 + eps * 0.25 * g * g)
    big_b = gamma - g * b * q - b * b
    if eps > 0:
        f = 0.5 * np.log((b + (0.5 * g + h) * q) / ((h - 0.5 * g) * q - b))
    else:
        f = np.arctan2(h * q, b + 0.5 * g * q) - math.pi
    j2 = np.exp(-(g / h) * f)
    f2 = big_b * j2
    y_cov = (u - (g * q)[..., None] * b_cov) * j2[..., None]
    return f2, y_cov


def sector_margin(b_cov: np.ndarray, g: np.ndarray, y: np.ndarray, eps: int) -> np.ndarray:
    """How far inside its cone each unit direction lies (positive = inside).

    Time-future: the smallest of ``q``, both cone margins and the time
    component (the adapted frame's time leg is ``e_0`` on these
    backgrounds). Space-like: ``q`` on the ``gamma < 0`` side of the
    augmented cone, negative elsewhere.
    """
    y = np.asarray(y, dtype=float)
    _, b, gamma, q = _support(b_cov, y)
    if eps > 0:
        h = np.sqrt(1.0 + 0.25 * g * g)
        low = b + (0.5 * g + h) * q
        high = (h - 0.5 * g) * q - b
        inside = np.minimum(np.minimum(low, high), y[..., 0])
        return np.where(gamma > 0.0, np.minimum(q, inside), -q)
    return np.where(gamma < 0.0, q, -q)


# --- sweep -------------------------------------------------------------------


def check_direction(
    y: np.ndarray,
    eps: int,
    g: float,
    b_cov: np.ndarray,
    *,
    F2: float,
    y_cov: np.ndarray,
    g_cov: np.ndarray,
    g_contra: np.ndarray,
    det_ratio: float,
    curvature: float,
    R: np.ndarray,
    g_frame: np.ndarray,
) -> list[str]:
    """The metric stack of one direction on the constant ``desk`` background."""
    problems = []
    f2_ref, y_cov_ref = chain(b_cov, np.float64(g), y, eps)
    scale_p = float(np.max(np.abs(y_cov_ref)))
    if not abs(F2 - f2_ref) <= TOL_CHAIN * abs(f2_ref):
        problems.append(f"F2 {F2!r} != chain {f2_ref!r}")
    if not np.max(np.abs(y_cov - y_cov_ref)) <= TOL_CHAIN * scale_p:
        problems.append("momentum differs from the scalar chain")
    if not abs(float(y @ y_cov) - F2) <= TOL_CHAIN * abs(F2):
        problems.append("Euler relation y . y_cov = F2 fails")
    if not np.max(np.abs(g_cov @ y - y_cov)) <= TOL_CHAIN * scale_p:
        problems.append("Euler relation g y = y_cov fails")
    if not np.max(np.abs(g_contra @ g_cov - np.eye(y.size))) <= TOL_METRIC_INVERSE:
        problems.append("inverse metric times metric is not the identity")
    det_ref = float(np.linalg.det(g_cov) / np.linalg.det(MINKOWSKI))
    if not abs(det_ratio - det_ref) <= TOL_DET_RATIO * abs(det_ref):
        problems.append(f"determinant ratio {det_ratio!r} != {det_ref!r}")
    if not abs(curvature - (-eps - 0.25 * g * g)) <= TOL_INDICATRIX:
        problems.append(f"indicatrix curvature {curvature!r} != {-eps - 0.25 * g * g!r}")
    # On desk the adapted frame is the coordinate frame: its last leg is
    # -b^i/c = e_3 and the others are the remaining coordinate axes.
    if not np.max(np.abs(R - y)) <= TOL_CHAIN:
        problems.append("frame components of the direction differ from the direction")
    if not np.max(np.abs(g_frame - g_cov)) <= TOL_METRIC_INVERSE:
        problems.append("frame metric differs from the metric in the coordinate frame")
    return problems


# --- geodesic ----------------------------------------------------------------


def check_geodesic(config: str, eps: int, length: float, samples: np.ndarray) -> list[str]:
    """One completed trajectory: rows of ``s, x[4], v[4], F2``."""
    problems = []
    s, x, v, f2_col = samples[:, 0], samples[:, 1:5], samples[:, 5:9], samples[:, 9]
    if not abs(s[-1] - length) <= 1e-12 * length:
        problems.append(f"trajectory ends at s = {s[-1]!r}, not {length!r}")
    if not np.all(np.diff(s) > 0.0):
        problems.append("trajectory parameter is not increasing")
    b_cov, g = background(config, x)
    f2, y_cov = chain(b_cov, g, v, eps)
    if not np.max(np.abs(f2_col - f2)) <= TOL_CHAIN * abs(f2[0]):
        problems.append("F2 column differs from the scalar chain")
    drift = float(np.max(np.abs(f2 - f2[0])))
    if not drift <= TOL_GEODESIC_F2:
        problems.append(f"F2 drift {drift!r} above {TOL_GEODESIC_F2}")
    cyclic = list(CYCLIC[config])
    moved = float(np.max(np.abs(y_cov[:, cyclic] - y_cov[0, cyclic])))
    if not moved <= TOL_MOMENTUM * float(np.max(np.abs(y_cov[0]))):
        problems.append(f"cyclic momentum drifts by {moved!r}")
    if config == "desk":
        line = x[0] + s[:, None] * v[0]
        off = max(float(np.max(np.abs(x - line))), float(np.max(np.abs(v - v[0]))))
        if not off <= TOL_LINE:
            problems.append(f"geodesic on a constant background leaves its line by {off!r}")
    return problems


# --- check battery -----------------------------------------------------------


def parse_records(stdout: str) -> dict[str, str]:
    records = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            records[key] = value
    return records


def check_battery(code: int, stdout: str, samples: int) -> list[str]:
    """One ``finsleroid check`` report: exit 0, ``status = ok``, every
    identity run and passed, and ``2 * samples`` directions per identity."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    records = parse_records(stdout)
    if records.get("status") != "ok":
        problems.append(f"status = {records.get('status')}")
    if records.get("checks_failed") != "0":
        problems.append(f"checks_failed = {records.get('checks_failed')}")
    for name in BATTERY_IDENTITIES:
        status = records.get(f"check.{name}.status")
        if status != "pass":
            problems.append(f"{name}: status {status}")
            continue
        count = int(records.get(f"check.{name}.count", "0"))
        if name in PAIR_IDENTITIES:
            if count < 1:
                problems.append(f"{name}: no pair checked")
        elif count != 2 * samples:
            problems.append(f"{name}: {count} directions, expected {2 * samples}")
        residual = float(records.get(f"check.{name}.residual", "nan"))
        tol = float(records.get(f"check.{name}.tol", "nan"))
        if not residual <= tol:
            problems.append(f"{name}: residual {residual!r} above {tol!r}")
    return problems
