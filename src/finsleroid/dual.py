"""Momentum-space dual: covector chain, Hamiltonian, and the action residual.

The covector chain is the direction chain at the flipped charge ``-g``: a
covector is measured with ``a_inv`` and ``b_contra``, and its ``(b, q, gamma)``
go through ``kinematics._chain`` at ``-g``, which reproduces the squared
co-norm exactly at unit preferred-direction norm. Below unit norm the duality
is no longer closed-form; a damped Newton iteration of at most
``NEWTON_MAX_ITER`` steps inverts the momentum map instead, with the same
``_chain`` at ``g`` as its primal model.

Key entry points
----------------
covector_stack
    Classify a covector and compute its chain (support scalar, dual radius,
    cone quadratic, angular variable, anisotropy weight).
hamiltonian
    Closed-form squared co-norm at unit preferred-direction norm.
hamiltonian_numeric
    Newton inversion of the momentum map for any norm in ``(0, 1]``.
hj_residual
    Residual of the stationary action equation for a configured action
    function and mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .background import BackgroundField, BackgroundSample, sample as sample_background
from .errors import CNotUnit, NoConvergence, UnsupportedCovector
from .expressions import FieldExpression
from .kinematics import GAMMA_TOL_REL, MARGIN_TOL_REL, _chain, _margins, _measure

__all__ = [
    "CovectorStack",
    "covector_stack",
    "hamiltonian",
    "hamiltonian_numeric",
    "hj_residual",
]

#: Newton tolerance of :func:`hamiltonian_numeric`, relative to
#: ``max(1, |b|, |q|)``: a damped step is taken once its residual norm is
#: below it, and the iteration stops once a step is.
NEWTON_TOL = 1e-12
#: Newton steps :func:`hamiltonian_numeric` takes before it gives up.
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class CovectorStack:
    """Covector chain: the covector itself, dual support scalar ``b_hat``,
    dual radius ``q_hat``, dual cone quadratic ``B_hat``, dual angular
    variable ``f_hat``, dual anisotropy weight ``J_hat``, and sector sign."""

    y_cov: np.ndarray
    b_hat: float
    q_hat: float
    B_hat: float
    f_hat: float
    J_hat: float
    eps: int


# --- covector chain ----------------------------------------------------------


def covector_stack(sample: BackgroundSample, y_cov: Sequence[float]) -> CovectorStack:
    """Classify a covector and compute its dual chain.

    Raises
    ------
    UnsupportedCovector
        Outside the two supported dual cones (isotropic covectors, past
        orientation, the gap region, and the positive-support null ray).
    """
    p = np.asarray(y_cov, dtype=float)
    scale, b_hat, gamma_hat = _measure(sample.a_inv, sample.b_contra, p)
    tol_gamma = GAMMA_TOL_REL * scale * scale
    tol_margin = MARGIN_TOL_REL * scale

    if gamma_hat > tol_gamma:
        margin_low, margin_high = _margins(
            b_hat, math.sqrt(gamma_hat), -sample.g, sample.h_time
        )
        if abs(margin_low) <= tol_margin or abs(margin_high) <= tol_margin:
            raise UnsupportedCovector("covector lies on the dual cone (isotropic)")
        if margin_low < 0.0 or margin_high < 0.0:
            raise UnsupportedCovector("covector lies in the dual gap region")
        time_component = float(p @ sample.time_leg)
        if time_component <= 0.0:
            raise UnsupportedCovector("covector lies in the past dual cone")
        eps, h = 1, sample.h_time
    elif gamma_hat < -tol_gamma or b_hat < -tol_margin:
        eps, h = -1, sample.h_space
    else:
        detail = "positive-support null ray" if b_hat > tol_margin else "isotropic"
        raise UnsupportedCovector(f"covector is {detail}")

    q_hat = math.sqrt(abs(gamma_hat))
    big_b_hat, _, f_hat, j_hat = _chain(b_hat, q_hat, gamma_hat, -sample.g, h, eps)
    return CovectorStack(
        y_cov=p,
        b_hat=b_hat,
        q_hat=q_hat,
        B_hat=big_b_hat,
        f_hat=f_hat,
        J_hat=j_hat,
        eps=eps,
    )


# --- closed-form Hamiltonian -------------------------------------------------


def hamiltonian(sample: BackgroundSample, y_cov: Sequence[float]) -> float:
    """Squared co-norm from the charge-flipped closed chain.

    Requires unit preferred-direction norm.
    """
    if not sample.c_is_unit:
        raise CNotUnit("closed-form Hamiltonian requires unit preferred-direction norm")
    stack = covector_stack(sample, y_cov)
    return stack.B_hat * stack.J_hat * stack.J_hat


# --- Newton route ------------------------------------------------------------


def hamiltonian_numeric(sample: BackgroundSample, y_cov: Sequence[float]) -> float:
    """Squared co-norm by Newton inversion of the momentum map.

    Works for any preferred-direction norm in ``(0, 1]``; at unit norm it
    agrees with :func:`hamiltonian` (the tests pin this). The unknowns are
    the primal support scalar and radius ``(b, q)``, modelled by
    ``kinematics._chain`` at ``gamma = eps q^2``; the residuals match the
    dual support scalar and squared dual radius. Damped steps (successive
    halving) keep the iterate inside the sector cone.

    Raises
    ------
    NoConvergence
        If the damped iteration cannot reach the requested tolerance in
        ``NEWTON_MAX_ITER`` steps.
    """
    stack = covector_stack(sample, y_cov)
    g, eps = sample.g, stack.eps
    h = sample.h_time if eps > 0 else sample.h_space
    c2 = sample.c * sample.c
    one_minus_c2 = 1.0 - c2
    b_target = stack.b_hat
    q2_target = stack.q_hat * stack.q_hat

    # seed from the unit-norm closed inversion
    j2_seed = math.exp(-(g / h) * stack.f_hat)
    q = stack.q_hat / j2_seed
    b = b_target / j2_seed - g * q

    def residual(b: float, q: float) -> tuple[np.ndarray, float, float]:
        big_b, _, f, _ = _chain(b, q, eps * q * q, g, h, eps)
        j2 = math.exp(-(g / h) * f)
        r1 = (b + g * c2 * q) * j2 - b_target
        p_quad = (
            q * q
            - 2.0 * one_minus_c2 * eps * g * b * q
            - c2 * one_minus_c2 * eps * g * g * q * q
        )
        r2 = p_quad * j2 * j2 - q2_target
        return np.array([r1, r2]), big_b, j2

    res, big_b, j2 = residual(b, q)
    norm = float(np.linalg.norm(res))
    scale = max(1.0, abs(b), abs(q))

    for _ in range(NEWTON_MAX_ITER):
        if norm <= 1e-300:
            break
        dj2_db = -g * q * j2 / big_b
        dj2_dq = g * b * j2 / big_b
        beta = b + g * c2 * q
        p_quad = (res[1] + q2_target) / (j2 * j2)
        dp_db = -2.0 * one_minus_c2 * eps * g * q
        dp_dq = 2.0 * q - 2.0 * one_minus_c2 * eps * g * b - 2.0 * c2 * one_minus_c2 * eps * g * g * q
        jac = np.array(
            [
                [j2 + beta * dj2_db, g * c2 * j2 + beta * dj2_dq],
                [
                    dp_db * j2 * j2 + p_quad * 2.0 * j2 * dj2_db,
                    dp_dq * j2 * j2 + p_quad * 2.0 * j2 * dj2_dq,
                ],
            ]
        )
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular Newton system in the dual inversion") from exc

        factor = 1.0
        for _ in range(9):
            b_new = b + factor * delta[0]
            q_new = q + factor * delta[1]
            if q_new >= 0.0:
                try:
                    res_new, big_b_new, j2_new = residual(b_new, q_new)
                except (ValueError, ZeroDivisionError):  # left the time cone
                    factor *= 0.5
                    continue
                norm_new = float(np.linalg.norm(res_new))
                if norm_new < norm or norm_new <= NEWTON_TOL * scale:
                    break
            factor *= 0.5
        else:
            raise NoConvergence("dual inversion stalled during step damping")

        step = max(abs(factor * delta[0]), abs(factor * delta[1]))
        b, q = b_new, q_new
        res, big_b, j2 = res_new, big_b_new, j2_new
        norm = norm_new
        scale = max(1.0, abs(b), abs(q))
        if step < NEWTON_TOL * scale:
            break
    else:
        raise NoConvergence(
            f"dual inversion did not converge in {NEWTON_MAX_ITER} iterations (|res| = {norm:.3e})"
        )

    return big_b * j2


# --- stationary action residual ----------------------------------------------


def hj_residual(
    field: BackgroundField,
    action: FieldExpression,
    mass: float,
    x: Sequence[float],
) -> float:
    """Residual ``H^2(x, dS/dx) - mass^2`` for an action function ``S``.

    Uses the closed-form Hamiltonian at unit preferred-direction norm and the
    Newton route below it.
    """
    here = sample_background(field, x)
    coords = tuple(float(v) for v in np.asarray(x, dtype=float))
    gradient = np.array(
        [action.differentiate(k).compiled(coords) for k in range(field.dim)]
    )
    if here.c_is_unit:
        h2 = hamiltonian(here, gradient)
    else:
        h2 = hamiltonian_numeric(here, gradient)
    return h2 - mass * mass
