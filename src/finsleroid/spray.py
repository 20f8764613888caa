"""Geodesic spray: closed coefficients, an independent oracle, an integrator.

The closed-form spray coefficients combine four pieces: a drift term driven by
the covariant derivative of the preferred direction, a rotation term driven by
its curl, a charge-gradient term driven by the slope of the anisotropy charge,
and the base-metric connection term. The oracle route never touches the
closed forms: it differentiates the squared norm and the momentum with
respect to position by central differences and raises the index with the
inverse metric, so the two routes are independent down to the scalar chain.
The closed route reads one ``metric._Direction`` record per (sample,
direction). The oracle samples each position of its one stencil once and
evaluates ``[F^2, y_cov]`` at all of them in one batch, byte-equal to those
records.

Key entry points
----------------
spray_coefficients
    Closed-form spray at a sampled point (``SprayData``).
spray_oracle
    Finite-difference route for the same vector.
geodesic_integrate
    Fixed-step (rk4) or adaptive (rk45) integration of the spray equation,
    with sector-exit detection after every accepted step. One loop takes
    both methods' steps; an rk45 node reuses the record of its step's last
    stage where that stage lies at the node (first-same-as-last).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .background import BackgroundField, BackgroundSample, _built, sample as sample_background
from .errors import DegenerateNu, GeometryError, NoConvergence
from .kinematics import classify
from .metric import _Direction, _f2_and_momentum_rows, _record
from .numdiff import FDConfig, _combine, _stencil

__all__ = [
    "SprayData",
    "GeodesicTrajectory",
    "spray_coefficients",
    "spray_oracle",
    "geodesic_integrate",
    "charge_slope_scalars",
]

#: Default step policy for the spray oracle (position differentiation).
ORACLE_FD = FDConfig(step_rel_first=1e-6, richardson=True)

# rk45 rejections in a row that end a run; 50 cuts of up to 5x leave 1e-35 of a step
_MAX_REJECTED_IN_A_ROW = 50
_EPS = float(np.finfo(float).eps)  # the smallest rk45 tolerance


@dataclass(frozen=True)
class SprayData:
    """Closed-form spray pieces: total ``G``, charge-gradient part ``E``,
    logarithmic charge-slope of the squared norm ``Mbar``, squared norm
    ``f2``, and the base-connection part ``riem``."""

    G: np.ndarray
    E: np.ndarray
    Mbar: float
    f2: float
    riem: np.ndarray


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Integrated trajectory.

    ``samples`` has one row per accepted node: parameter value, position,
    velocity, squared norm (``1 + 2 N + 1`` columns). ``F2_drift`` is the
    worst deviation of the squared norm from its initial value; ``step`` the
    fixed step (or initial adaptive step); ``length`` the parameter length
    actually covered. ``exit_reason`` is ``None`` for a completed run, else a
    diagnostic describing the truncation.
    """

    samples: np.ndarray
    F2_drift: float
    step: float
    length: float
    exit_reason: str | None = None


# --- charge-slope machinery --------------------------------------------------


def charge_slope_scalars(sample: BackgroundSample, scal) -> tuple[float, float, float]:
    """Exact charge-slopes ``(df/dg, W, Mbar)`` of the scalar chain.

    ``W`` is the charge-slope of the logarithm of the squared anisotropy
    weight and ``Mbar`` that of the squared norm.
    """
    g, eps = sample.g, scal.eps
    h, q, b, big_b, f = scal.h, scal.q, scal.b, scal.B, scal.f
    big_g = g / h
    df_dg = (q / big_b) * (q / (2.0 * h) - eps * big_g * b / 4.0)
    w = -f / h**3 - big_g * df_dg
    mbar = -b * q / big_b + w
    return df_dg, w, mbar


# --- closed-form spray -------------------------------------------------------


def spray_coefficients(sample: BackgroundSample, y: Sequence[float]) -> SprayData:
    """Closed-form spray coefficients ``G^i`` at a sampled point."""
    return _spray(_record(sample, y))


def _spray(d: _Direction) -> SprayData:
    """Closed-form spray coefficients read from one direction record.

    A term that the sample's stage facts show to be exactly zero is skipped:
    the connection term where ``christoffel_zero`` (``riem`` is then +0.0,
    the value of the einsum over zeros), the drift and rotation terms where
    the charge is zero or ``b_parallel`` holds, and the charge-gradient term
    where ``dg_zero``. Every skip leaves the bits of the result as they were.
    """
    sample, y_arr, scal = d.sample, d.y, d.scal
    g, eps, q = sample.g, scal.eps, scal.q
    j2 = scal.J * scal.J

    if sample.christoffel_zero:
        riem = np.zeros(sample.dim)
    else:
        riem = np.einsum("inm,n,m->i", sample.christoffel, y_arr, y_arr)
    total = riem.copy()

    f2 = scal.B * j2
    _, w, mbar = charge_slope_scalars(sample, scal)

    # with a parallel b both terms add zeros of either sign to a total that
    # holds no -0.0, so they change no bit
    if g != 0.0 and not sample.b_parallel:
        drift = float(y_arr @ sample.nabla_b @ y_arr)
        curl_low = sample.curl @ y_arr  # f_j = f_jn y^n
        curl_up = sample.a_inv @ curl_low
        b_curl = float(sample.b_contra @ curl_low)

        coeff = drift - g * q * b_curl
        if coeff != 0.0:
            if scal.nu <= 1e-300:
                raise DegenerateNu("spray drift term divides by the dual radius nu = 0")
            v_contra = y_arr + scal.b * sample.b_contra
            total += -eps * (g / scal.nu) * coeff * v_contra
        total += g * q * curl_up

    e_vec = np.zeros(sample.dim)
    if not sample.dg_zero:
        g_contra = d.g_contra
        y_cov = d.y_cov
        dy_dg_cov = -q * sample.b_cov * j2 + w * y_cov
        yg = float(y_arr @ sample.dg)
        e_vec = yg * (g_contra @ dy_dg_cov) - 0.5 * mbar * f2 * (g_contra @ sample.dg)
        total += e_vec

    return _built(SprayData, {"G": total, "E": e_vec, "Mbar": mbar, "f2": f2, "riem": riem})


# --- oracle ------------------------------------------------------------------


def spray_oracle(field: BackgroundField, x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """Finite-difference spray: position-differentiate squared norm and
    momentum at fixed direction, then raise the index with the inverse metric.
    Each position of the one stencil is sampled once, and one batch gives the
    stacked vector ``[F^2, y_cov]`` at all of them."""
    x_arr = np.asarray(x, dtype=float)
    probes = _probe_samples(field, x_arr)
    return _oracle(field, probes, x_arr, np.asarray(y, dtype=float))


def _probe_samples(field: BackgroundField, x: np.ndarray) -> list:
    """The samples at the stencil of ``x``, which serve every direction there."""
    return [sample_background(field, position) for position in _stencil(x, ORACLE_FD)]


def _oracle(
    field: BackgroundField, probes: list, x: np.ndarray, y: np.ndarray, d: _Direction | None = None
) -> np.ndarray:
    """The spray oracle at ``(x, y)`` from the samples ``probes`` at the stencil
    of ``x``. ``d`` is the record at ``(x, y)``; without it, ``x`` is sampled
    after the differences, so that a probe's error comes first."""
    rows = _f2_and_momentum_rows(probes, np.tile(y, (len(probes), 1)))
    stacked = _combine(rows, x, ORACLE_FD)  # stacked[1 + k, m] = d y_k / d x^m
    grad, jac = stacked[0], stacked[1:]
    if d is None:
        d = _Direction(sample_background(field, x), y)
    return d.g_contra @ (jac @ y - 0.5 * grad)


# --- integration -------------------------------------------------------------

# Dormand-Prince 5(4) tableau, without its nodes (the spray is autonomous); row i
# of _DP_A forms stage i + 2 from the stages before it
_DP_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rhs(field: BackgroundField, state: np.ndarray, dim: int, d: _Direction | None = None):
    """Spray right-hand side at ``state`` and the record it read: ``d`` when
    the caller holds it, else the record of a new sample."""
    velocity = state[dim:]
    if d is None:
        d = _Direction(sample_background(field, state[:dim]), velocity)
    return np.concatenate([velocity, -_spray(d).G]), d


def _rk4(field: BackgroundField, state: np.ndarray, h: float, dim: int, k1, tol: float):
    """A classical Runge-Kutta step from the stage ``k1``: the candidate, an
    error of 0 and no last stage."""
    k2 = _rhs(field, state + 0.5 * h * k1, dim)[0]
    k3 = _rhs(field, state + 0.5 * h * k2, dim)[0]
    k4 = _rhs(field, state + h * k3, dim)[0]
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, None


def _dp45(field: BackgroundField, state: np.ndarray, h: float, dim: int, k1, tol: float):
    """A Dormand-Prince step from the stage ``k1``: the order-5 candidate, its
    error in units of ``tol``, and the last stage ``(state, record, k)``."""
    stages = [k1]
    for row in _DP_A:
        at = state + h * sum(coeff * stages[j] for j, coeff in enumerate(row))
        k, d = _rhs(field, at, dim)
        stages.append(k)
    stages_arr = np.stack(stages)
    order5 = state + h * (_DP_B5 @ stages_arr)
    order4 = state + h * (_DP_B4 @ stages_arr)
    scale = tol + tol * np.abs(order5)
    err = float(np.sqrt(np.mean(((order5 - order4) / scale) ** 2)))
    return order5, err, (at, d, k)


def _accept_node(
    field: BackgroundField, state: np.ndarray, dim: int, start_tag: str, s_next: float, last=None
) -> tuple[_Direction | None, str | None]:
    """Measure the node ``state`` reached at ``s_next`` once; return its
    record, or ``None`` and the reason the run stops short of it. The step's
    last stage ``last = (state, record, k)`` gives the record where its state
    has the node's bytes and its record is in the start sector (first-same-
    as-last); otherwise the node is sampled. Only a node outside the start
    sector, or refused by its record, is classified, for the reason."""
    sign = 1 if start_tag == "time-future" else -1
    if last is not None and last[1].scal.eps == sign and last[0].tobytes() == state.tobytes():
        return last[1], None
    try:
        here = sample_background(field, state[:dim])
        velocity = state[dim:]
        try:
            node = _Direction(here, velocity)
        except (GeometryError, ArithmeticError):
            tag = classify(here, velocity).tag
            if tag == start_tag:
                raise  # refused in the start sector: the refusal is the reason
        else:
            if node.scal.eps == sign:
                return node, None
            tag = classify(here, velocity).tag
        return None, f"sector exit at s = {s_next:.9g}: velocity became {tag}"
    except GeometryError as exc:
        return None, f"geometry degenerated at s = {s_next:.9g}: {exc}"


def _first_step(length: float, method: str, step: float | None) -> tuple[float, float]:
    """``step``, or the default: ``length / 4096`` for rk4, ``length / 100`` for
    rk45; and the step count: for rk4 ``ceil(length / h - 1e-12)``, at least 1,
    else ``math.inf`` (an overflowing rk4 count is left to ``max_steps``). A
    ``length`` whose default step underflows to zero is a ``ValueError``, and
    so is an rk4 run whose loop step ``h = length / n_steps`` (not the step
    asked for) leaves ``h / 6`` below the normal floats: the update
    ``(h / 6) * (k1 + ...)`` would lose the motion."""
    if step is not None:
        h = float(step)
    else:
        count = 4096 if method == "rk4" else 100
        h = length / count
        if h == 0.0:
            raise ValueError(
                f"length {length!r} is too short: its default {method} step "
                f"length / {count} underflows to 0"
            )
    steps_needed = length / h - 1e-12
    if method != "rk4" or steps_needed == math.inf:
        return h, math.inf
    n_steps = max(1, math.ceil(steps_needed))
    if length / n_steps / 6.0 < np.finfo(float).tiny:
        raise ValueError(
            f"rk4 step h = {length!r} / {n_steps} = {length / n_steps!r} leaves "
            f"h / 6 below the normal float range"
        )
    return h, n_steps


def geodesic_integrate(
    field: BackgroundField,
    x0: Sequence[float],
    y0: Sequence[float],
    length: float,
    *,
    method: str = "rk4",
    step: float | None = None,
    tol: float = 1e-9,
    max_steps: int = 200_000,
) -> GeodesicTrajectory:
    """Integrate the spray equation from ``(x0, y0)`` over parameter ``length``.

    ``method`` is ``rk4`` (fixed step, default ``length / 4096``) or ``rk45``
    (adaptive embedded pair controlled by ``tol``, first step by default
    ``length / 100``); one loop takes the steps of both. After every accepted
    step the velocity is re-classified; leaving the initial sector (or
    entering a degenerate configuration) truncates the trajectory at the last
    good node and records the reason. Each accepted node is measured once,
    into one direction record that classifies it and gives its squared norm
    and, for rk4, the next step's first stage; an rk45 node takes the record
    of its step's last stage where that stage lies at the node.
    ``max_steps`` bounds the rk4 step count and the rk45 accepted steps; rk45
    rejects a non-finite error estimate, bounds the rejections in a row, and
    stops at a step too small to advance ``s``.

    Raises
    ------
    ValueError
        Unknown ``method``, a ``length`` or ``step`` that is not positive
        and finite, a ``length`` so short that its default step underflows to
        zero, an rk4 run whose loop step ``h = length / n_steps`` leaves
        ``h / 6`` below the normal floats (the update would lose the motion),
        or a ``tol`` that is not finite or is below the float resolution
        ``np.finfo(float).eps``.
    NoConvergence
        If the run needs more than ``max_steps`` steps, rk45 more than
        ``_MAX_REJECTED_IN_A_ROW`` rejections in a row, or an rk45 step
        ``h`` with ``s + h == s``.
    """
    if method not in ("rk4", "rk45"):
        raise ValueError(f"unknown integration method {method!r}")
    for name, value in (("length", length), ("step", step)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not (math.isfinite(tol) and tol >= _EPS):  # below it, err overflows or reads 0
        raise ValueError(f"tol must be finite and at least {_EPS!r}, got {tol!r}")
    h, n_steps = _first_step(length, method, step)
    x_arr = np.asarray(x0, dtype=float)
    y_arr = np.asarray(y0, dtype=float)
    dim = x_arr.size

    start = sample_background(field, x_arr)
    start_tag = classify(start, y_arr).tag
    node = _Direction(start, y_arr)  # the record at the current node
    f2_start = node.f2
    rows = [np.concatenate([[0.0], x_arr, y_arr, [f2_start]])]
    state = np.concatenate([x_arr, y_arr])
    s_now = 0.0
    exit_reason: str | None = None

    adaptive = method == "rk45"
    if adaptive:  # the first stage is formed here, so that its failure raises
        advance, end, k = _dp45, length - 1e-14 * length, _rhs(field, state, dim, node)[0]
    elif n_steps > max_steps:  # an infinite count raises too
        raise NoConvergence(f"fixed-step integrator needs more than {max_steps} steps of {h!r}")
    else:
        advance, end, k, h = _rk4, math.inf, None, length / n_steps
    step_used = h
    accepted = rejected = 0
    while accepted < n_steps and s_now < end:
        if accepted >= max_steps:
            raise NoConvergence(f"adaptive integrator exceeded {max_steps} accepted steps")
        if rejected > _MAX_REJECTED_IN_A_ROW:
            raise NoConvergence(
                f"adaptive integrator rejected {rejected} steps in a row at s = {s_now:.9g}"
            )
        if adaptive:
            h = min(h, length - s_now)
            if s_now + h == s_now:
                raise NoConvergence(f"adaptive step {h!r} no longer advances s = {s_now:.9g}")
        try:
            if k is None:  # rk4 forms its first stage from the node's record
                k = _rhs(field, state, dim, node)[0]
            candidate, err, last = advance(field, state, h, dim, k, tol)
        except GeometryError as exc:
            where = f"near s = {s_now:.9g}" if adaptive else f"at s = {s_now + h:.9g}"
            exit_reason = f"geometry degenerated {where}: {exc}"
            break
        if not err <= 1.0:  # a NaN estimate is rejected too
            rejected += 1
            h *= max(0.2, 0.9 * err ** (-0.2)) if err < math.inf else 0.2
            continue
        node, exit_reason = _accept_node(field, candidate, dim, start_tag, s_now + h, last)
        if node is None:
            break
        state, k = candidate, None if last is None else last[2]  # first-same-as-last
        s_now += h
        accepted += 1
        rejected = 0
        rows.append(np.concatenate([[s_now], state, [node.f2]]))
        if adaptive:
            h *= min(5.0, 0.9 * err ** (-0.2)) if err > 0.0 else 5.0

    samples = np.vstack(rows)
    drift = float(np.max(np.abs(samples[:, -1] - f2_start)))
    return GeodesicTrajectory(
        samples=samples, F2_drift=drift, step=step_used, length=s_now, exit_reason=exit_reason
    )
