"""Independent high-precision oracle for the frozen reference constants.

Everything in this module is recomputed from first principles with mpmath at
50 significant digits and **no imports from the package under test**. The
``FROZEN`` literals were transcribed from this oracle's output; ``_selfcheck``
re-derives them at import time and fails loudly on any mismatch, so a stale
or mistyped literal cannot silently gate the suite.

The reference background is four-dimensional: base metric
``diag(1, -1, -1, -1)``, covariant preferred direction ``(0, 0, 0, 1)``
(unit spatial norm), anisotropy charge ``0.6``. The ``sub_unit_*`` functions
take the norm ``c`` of the preferred direction ``(0, 0, 0, c)`` and the charge
as arguments; they invert the momentum map by ``mp.findroot``, which gives the
squared co-norm below unit norm, where the package iterates.

Two float64 pieces sit apart at the end. ``spray_float64`` is the closed
spray with every term evaluated in its original order, kept so that a test
can hold the package's spray, which skips terms that are exactly zero, to the
same bits. The chart formulas (``time_profiles``, ``space_profiles``,
``uar_from_angles_float64``, ``chart_jacobian_float64``, ``chart_eta_float64``,
``scalar_product_float64`` and ``zeta_inverse_float64``) keep one branch per
sector, so that a test can hold the package's single-path chart code to them. They read a direction record or
a sample by attribute and import nothing from the package either.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 50

G = mp.mpf("0.6")
DIM = 4

H_TIME = mp.sqrt(1 + G * G / 4)
H_SPACE = mp.sqrt(1 - G * G / 4)

A_DIAG = (mp.mpf(1), mp.mpf(-1), mp.mpf(-1), mp.mpf(-1))
B_COV = (mp.mpf(0), mp.mpf(0), mp.mpf(0), mp.mpf(1))
B_CONTRA = (mp.mpf(0), mp.mpf(0), mp.mpf(0), mp.mpf(-1))


def _dot_a(u, v):
    return mp.fsum(A_DIAG[i] * u[i] * v[i] for i in range(DIM))


def chain(y):
    """Full scalar chain for a direction on the reference background.

    Returns a dict with the axis projection ``b``, transverse radius ``q``,
    sector sign ``eps``, per-sector constants, the angular variable ``f``,
    scale ``J``, normalised angle ``chi``, quadratic ``B``, squared norm
    ``F2``, and the lowered direction ``y_cov``.
    """
    y = tuple(mp.mpf(v) for v in y)
    b = mp.fsum(B_COV[i] * y[i] for i in range(DIM))
    gamma = _dot_a(y, y) + b * b
    eps = 1 if gamma > 0 else -1
    if gamma == 0:
        eps = -1 if b < 0 else 1
    q = mp.sqrt(abs(gamma))
    h = H_TIME if eps > 0 else H_SPACE
    g_plus = -G / 2 + h
    g_minus = -G / 2 - h
    A = b + (G / 2) * q
    B = gamma - G * b * q - b * b
    if eps > 0:
        f = mp.log((b - g_minus * q) / (g_plus * q - b)) / 2
    else:
        f = mp.atan2(h * q, A) - mp.pi
    g_param = G / h
    J = mp.e ** (-g_param * f / 2)
    chi = f / h
    F2 = B * J * J
    u = tuple(A_DIAG[i] * y[i] for i in range(DIM))
    y_cov = tuple((u[i] - G * q * B_COV[i]) * J * J for i in range(DIM))
    return {
        "b": b, "q": q, "eps": eps, "h": h, "A": A, "B": B,
        "f": f, "J": J, "chi": chi, "F2": F2, "y_cov": y_cov,
    }


def dual_chain(p):
    """Scalar chain for a covector (unit preferred-direction norm)."""
    p = tuple(mp.mpf(v) for v in p)
    b_hat = mp.fsum(B_CONTRA[i] * p[i] for i in range(DIM))
    gamma_hat = _dot_a(p, p) + b_hat * b_hat  # a is its own inverse here
    eps = 1 if gamma_hat > 0 else -1
    q_hat = mp.sqrt(abs(gamma_hat))
    h = H_TIME if eps > 0 else H_SPACE
    g_plus = -G / 2 + h
    g_minus = -G / 2 - h
    if eps > 0:
        f_hat = mp.log((b_hat + g_plus * q_hat) / (-g_minus * q_hat - b_hat)) / 2
    else:
        f_hat = mp.atan2(h * q_hat, b_hat - (G / 2) * q_hat) - mp.pi
    g_param = G / h
    J_hat = mp.e ** (g_param * f_hat / 2)
    B_hat = gamma_hat + G * b_hat * q_hat - b_hat * b_hat
    return {"b_hat": b_hat, "q_hat": q_hat, "f_hat": f_hat, "J_hat": J_hat,
            "B_hat": B_hat, "H2": B_hat * J_hat * J_hat, "eps": eps, "h": h}


def angle_between(y1, y2):
    """Anisotropic angle between two same-sector reference directions."""
    k1, k2 = chain(y1), chain(y2)
    assert k1["eps"] == k2["eps"]
    r12 = _dot_a(y1, y2) + k1["b"] * k2["b"]
    h = k1["h"]
    if k1["eps"] > 0:
        tau = (h * h * r12 - k1["A"] * k2["A"]) / mp.sqrt(k1["B"] * k2["B"])
        return mp.acosh(tau) / h
    tau = (k1["A"] * k2["A"] - h * h * r12) / mp.sqrt(abs(k1["B"]) * abs(k2["B"]))
    return mp.acos(tau) / h


E0 = (1, 0, 0, 0)
EX = (0, 1, 0, 0)
AXIS = (0, 0, 0, -1)

_K0 = chain(E0)
_KX = chain(EX)

#: Frozen float literals (17 significant digits), one per reference constant.
FROZEN = {
    "h_time": 1.0440306508910549,
    "h_space": 0.95393920141694566,
    "g_plus_time": 0.74403065089105495,
    "g_minus_time": -1.3440306508910549,
    "g_param_time": 0.57469577113269084,
    "g_param_space": 0.62897090203315098,
    "f_e0": 0.29567304756342249,
    "J_e0": 0.91854808408203457,
    "F2_e0": 0.84373058277077639,
    "y_cov_e0_0": 0.84373058277077639,
    "y_cov_e0_3": -0.50623834966246584,
    "det_ratio_e0": 0.50677498002563256,
    "CC_e0": -1.7067059431117209,
    "f_ex": -1.8754889808102941,
    "chi_ex": -1.9660466600224762,
    "F2_ex": -3.2531637878661512,
    "alpha_ex_axis": 1.9660466600224762,
    "S2_e0": 0.83744153343971577,
    "H2_unit_cov": 1.0,
    "R0_time_axis": 0.95782628522115142,
    "R3_time_axis": -0.28734788556634542,
    "curvature_time": -1.09,
    "curvature_space": 0.91,
    "cc_product": 1.44,
}


def _selfcheck():
    computed = {
        "h_time": H_TIME,
        "h_space": H_SPACE,
        "g_plus_time": -G / 2 + H_TIME,
        "g_minus_time": -G / 2 - H_TIME,
        "g_param_time": G / H_TIME,
        "g_param_space": G / H_SPACE,
        "f_e0": _K0["f"],
        "J_e0": _K0["J"],
        "F2_e0": _K0["F2"],
        "y_cov_e0_0": _K0["y_cov"][0],
        "y_cov_e0_3": _K0["y_cov"][3],
        "det_ratio_e0": _K0["J"] ** (2 * DIM),
        # X = 1/DIM at unit norm: C_h C^h = -eps (G^2/4) (DIM^2/F2) (DIM + 1 - DIM)
        "CC_e0": -(G * G / 4) * DIM * DIM / _K0["F2"],
        "f_ex": _KX["f"],
        "chi_ex": _KX["chi"],
        "F2_ex": _KX["F2"],
        "alpha_ex_axis": angle_between(EX, AXIS),
        "S2_e0": _K0["F2"] ** H_TIME,
        "H2_unit_cov": dual_chain((1 / H_TIME, 0, 0, -G / (2 * H_TIME)))["H2"],
        # chart-origin direction (z0 = 1, eta = phi = chi = 0): the time
        # profiles at chi = 0 give (1/h, 0, 0, -(g/h)/2)
        "R0_time_axis": 1 / H_TIME,
        "R3_time_axis": -G / (2 * H_TIME),
        "curvature_time": -(1 + G * G / 4),
        "curvature_space": 1 - G * G / 4,
        "cc_product": DIM * DIM * G * G / 4,
    }
    assert computed.keys() == FROZEN.keys()
    for name, value in computed.items():
        frozen = mp.mpf(repr(FROZEN[name]))
        scale = max(abs(value), mp.mpf(1))
        if abs(value - frozen) / scale > mp.mpf("1e-12"):
            raise AssertionError(
                f"frozen literal {name} = {FROZEN[name]!r} disagrees with the "
                f"50-digit oracle value {mp.nstr(value, 20)}"
            )


_selfcheck()

REF = FROZEN


# --- the squared co-norm below unit norm ---------------------------------------


def sub_unit_f2(y, c, g):
    """``F^2 = B J^2`` at 50 digits on ``diag(1, -1, -1, -1)`` with covariant
    preferred direction ``(0, 0, 0, c)`` and charge ``g``; the sector is the
    sign of ``gamma`` (the future time cone or the space-like cone)."""
    c, g = mp.mpf(c), mp.mpf(g)
    b = c * y[3]
    gamma = y[0] * y[0] - y[1] * y[1] - y[2] * y[2] - y[3] * y[3] + b * b
    q = mp.sqrt(abs(gamma))
    if gamma > 0:
        h = mp.sqrt(1 + g * g / 4)
        f = mp.log((b + (g / 2 + h) * q) / ((h - g / 2) * q - b)) / 2
    else:
        h = mp.sqrt(1 - g * g / 4)
        f = mp.atan2(h * q, b + g * q / 2) - mp.pi
    return (gamma - g * b * q - b * b) * mp.exp(-(g / h) * f)


def sub_unit_momentum(y, c, g):
    """``p_i = (1/2) dF^2/dy^i`` of :func:`sub_unit_f2`, by ``mp.diff``."""
    y = [mp.mpf(v) for v in y]
    return [
        mp.diff(lambda *v: sub_unit_f2(v, c, g), y, tuple(int(k == i) for k in range(DIM))) / 2
        for i in range(DIM)
    ]


def sub_unit_h2(p, y_start, c, g):
    """Squared co-norm of the float covector ``p``: ``F^2`` at the root of
    ``sub_unit_momentum(y) = p`` that ``mp.findroot`` reaches from ``y_start``."""
    p = [mp.mpf(float(v)) for v in p]
    root = mp.findroot(
        lambda *y: [m - t for m, t in zip(sub_unit_momentum(y, c, g), p)],
        [mp.mpf(float(v)) for v in y_start],
    )
    return sub_unit_f2([root[i] for i in range(DIM)], c, g)


# --- float64 spray with every term evaluated -------------------------------


def spray_float64(d):
    """``(G, E, Mbar, f2, riem)`` of the closed spray at the record ``d``.

    ``d`` is read by attribute: ``sample``, ``y``, ``scal``, ``g_contra`` and
    ``y_cov``. Every term is evaluated, zero or not, in the order of the
    arithmetic it pins; raises ``ArithmeticError`` where the drift term
    divides by a vanishing dual radius.
    """
    sample, y_arr, scal = d.sample, d.y, d.scal
    g, eps, q = sample.g, scal.eps, scal.q
    j2 = scal.J * scal.J

    riem = np.einsum("inm,n,m->i", sample.christoffel, y_arr, y_arr)
    total = riem.copy()

    f2 = scal.B * j2
    h, b, big_b, f = scal.h, scal.b, scal.B, scal.f
    big_g = g / h
    df_dg = (q / big_b) * (q / (2.0 * h) - eps * big_g * b / 4.0)
    w = -f / h**3 - big_g * df_dg
    mbar = -b * q / big_b + w

    drift = float(y_arr @ sample.nabla_b @ y_arr)
    curl = sample.db - sample.db.T
    curl_low = curl @ y_arr
    curl_up = sample.a_inv @ curl_low
    b_curl = float(sample.b_contra @ curl_low)

    coeff = drift - g * q * b_curl
    if g != 0.0 and coeff != 0.0:
        if scal.nu <= 1e-300:
            raise ArithmeticError("spray drift term divides by the dual radius nu = 0")
        v_contra = y_arr + scal.b * sample.b_contra
        total += -eps * (g / scal.nu) * coeff * v_contra
    if g != 0.0:
        total += g * q * curl_up

    e_vec = np.zeros(sample.dim)
    if np.any(sample.dg != 0.0):
        g_contra = d.g_contra
        y_cov = d.y_cov
        dy_dg_cov = -q * sample.b_cov * j2 + w * y_cov
        yg = float(y_arr @ sample.dg)
        e_vec = yg * (g_contra @ dy_dg_cov) - 0.5 * mbar * f2 * (g_contra @ sample.dg)
        total += e_vec

    return total, e_vec, mbar, f2, riem


# --- float64 chart formulas, one branch per sector ---------------------------
#
# The angular chart and the inverse conformal map as they were first written,
# with the time and space sectors on separate branches. Each reads a sample by
# attribute (``frame_inv``, ``g``, ``h_time``, ``h_space``, ``a``, ``b_cov``,
# ``b_contra``) and evaluates every formula in its original order, so that a
# test can hold the package's single-path formulas to the same bits.


def time_profiles(chi, g, h):
    """Profiles ``(Ch, Sh, Sh*)`` of the time-sector chart at ``chi``."""
    f = h * chi
    j = math.exp(-0.5 * (g / h) * f)
    ch = math.cosh(f) / (j * h)
    sh = (math.sinh(f) - 0.5 * (g / h) * math.cosh(f)) / j
    sh_star = (math.sinh(f) + 0.5 * (g / h) * math.cosh(f)) / j
    return ch, sh, sh_star


def space_profiles(chi, g, h):
    """Profiles ``(Sin, Cos, Cos*)`` of the space-sector chart at ``chi``."""
    f = h * chi
    j = math.exp(-0.5 * (g / h) * f)
    sin = math.sin(f) / (j * h)
    cos = (math.cos(f) - 0.5 * (g / h) * math.sin(f)) / j
    cos_star = (math.cos(f) + 0.5 * (g / h) * math.sin(f)) / j
    return sin, cos, cos_star


def uar_from_angles_float64(sample, z0, eta, phi, chi, tag):
    """Direction of chart coordinates ``(z0, eta, phi, chi)`` in sector ``tag``."""
    g = sample.g
    if tag == "time-future":
        ch, sh, _ = time_profiles(chi, g, sample.h_time)
        radial = z0 * ch
        frame_components = np.array(
            [
                radial * math.cosh(eta),
                radial * math.sinh(eta) * math.cos(phi),
                radial * math.sinh(eta) * math.sin(phi),
                z0 * sh,
            ]
        )
    else:
        sin, cos, _ = space_profiles(chi, g, sample.h_space)
        radial = -z0 * sin
        frame_components = np.array(
            [
                z0 * math.sinh(eta) * -sin,
                radial * math.cosh(eta) * math.cos(phi),
                radial * math.cosh(eta) * math.sin(phi),
                -z0 * cos,
            ]
        )
    return sample.frame_inv @ frame_components


def chart_jacobian_float64(z0, eta, phi, chi, g, h, tag):
    """Analytic Jacobian ``d(frame components)/d(z0, eta, phi, chi)``."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    cheta, sheta = math.cosh(eta), math.sinh(eta)
    jac = np.zeros((4, 4))
    if tag == "time-future":
        ch, sh, sh_star = time_profiles(chi, g, h)
        r = np.array([z0 * cheta * ch, z0 * sheta * ch * cphi, z0 * sheta * ch * sphi, z0 * sh])
        jac[:, 0] = r / z0
        jac[:, 1] = [z0 * sheta * ch, z0 * cheta * ch * cphi, z0 * cheta * ch * sphi, 0.0]
        jac[:, 2] = [0.0, -z0 * sheta * ch * sphi, z0 * sheta * ch * cphi, 0.0]
        jac[:, 3] = [
            z0 * cheta * sh_star,
            z0 * sheta * sh_star * cphi,
            z0 * sheta * sh_star * sphi,
            z0 * ch,
        ]
    else:
        sin, cos, cos_star = space_profiles(chi, g, h)
        r = np.array(
            [-z0 * sheta * sin, -z0 * cheta * sin * cphi, -z0 * cheta * sin * sphi, -z0 * cos]
        )
        jac[:, 0] = r / z0
        jac[:, 1] = [-z0 * cheta * sin, -z0 * sheta * sin * cphi, -z0 * sheta * sin * sphi, 0.0]
        jac[:, 2] = [0.0, z0 * cheta * sin * sphi, -z0 * cheta * sin * cphi, 0.0]
        jac[:, 3] = [
            -z0 * sheta * cos_star,
            -z0 * cheta * cos_star * cphi,
            -z0 * cheta * cos_star * sphi,
            z0 * sin,
        ]
    return jac


def chart_eta_float64(d):
    """Chart boost ``eta`` of the off-axis direction record ``d`` (read by
    attribute: ``sample.frame``, ``y``, ``scal.eps``, ``scal.q``)."""
    r = d.sample.frame @ d.y
    if d.scal.eps > 0:
        return math.asinh(math.hypot(r[1], r[2]) / d.scal.q)
    return math.asinh(r[0] / d.scal.q)


def scalar_product_float64(d1, d2, tau, exponent):
    """Scalar product of two same-sector direction records (read by attribute:
    ``scal.eps``, ``f2``) with pair invariant ``tau``, scaled by ``2**exponent``."""
    if d1.scal.eps > 0:
        return math.ldexp(math.sqrt(d1.f2) * math.sqrt(d2.f2) * tau, exponent)
    return math.ldexp(-math.sqrt(-d1.f2) * math.sqrt(-d2.f2) * tau, exponent)


def zeta_inverse_float64(sample, zeta):
    """Direction whose conformal image is ``zeta`` (image assumed supported)."""
    z_arr = np.asarray(zeta, dtype=float)
    s2 = float(z_arr @ sample.a @ z_arr)
    zb = float(z_arr @ sample.b_cov)
    g = sample.g
    if s2 > 0.0:
        h = sample.h_time
        f = math.asinh(zb / math.sqrt(s2))
        norm = s2 ** (0.5 / h)
        j = math.exp(-0.5 * (g / h) * f)
        b = norm * (math.sinh(f) - 0.5 * (g / h) * math.cosh(f)) / j
    else:
        h = sample.h_space
        u = -zb / math.sqrt(-s2)
        f = -math.acos(min(u, 1.0))
        norm = (-s2) ** (0.5 / h)
        j = math.exp(-0.5 * (g / h) * f)
        b = -norm * (math.cos(f) - 0.5 * (g / h) * math.sin(f)) / j
    chi = f / h
    inv_j = math.exp(0.5 * g * chi)
    h_kappa = abs(s2) ** (0.5 * (1.0 - h) / h)
    return -b * sample.b_contra + (1.0 / h) * (z_arr + zb * sample.b_contra) * (h_kappa * inv_j)
