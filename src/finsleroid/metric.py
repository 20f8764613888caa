"""Closed-form metric stack: squared norm, momentum, metric tensors, cubic form.

Everything here is an explicit algebraic function of the scalar chain — no
differentiation is performed. The finite-difference layer independently
verifies that these closed forms really are the derivative chain of the
squared norm (momentum = half gradient, metric = momentum Jacobian, cubic
form = half metric slope).

One package-private record, ``_Direction``, holds the stack at one (point,
direction): it computes the scalar chain once and ``F^2`` when built, and every
other piece on first access, each behind its own guard. It is the package's
one per-direction object: each public function here is a view of one record,
and the spray, the integrator, the oracle, the conformal map, the angle routes
and the CLI build one record per (sample, direction) and read it instead of
recomputing the chain. The finite differences need only ``[F^2, y_cov]`` at
every stencil row; ``_f2_and_momentum_rows`` computes it for all rows at once,
each row byte-equal to its record.

The public views (and ``spray.spray_coefficients``) share the last record
they built: called again with the same sample object, the same direction
bytes and an equal sector, a view reads that record, so ``metric_bundle``,
``indicatrix_curvature`` and ``frame_components`` at one direction compute the
chain and each piece once. Since the record is shared, every array a view
returns is read-only, as the sample's arrays are; copy one to change it.

Key entry points
----------------
metric_function / covariant_momentum / metric_tensor / inverse_metric
    The squared norm ``F^2`` and its derivative stack.
determinant_ratio
    Closed form for ``det(metric) / det(base metric)``.
cartan_vector / cartan_tensor
    Contracted and full cubic forms, plus the angular (projected) metric.
indicatrix_curvature
    Sectional-curvature extraction on the unit shell from the cubic-form
    curvature products; constant by construction, which the tests verify.
frame_components
    Direction and metric expressed in the adapted frame, via closed frame
    formulas (the congruence route cross-checks them).
metric_bundle
    The whole stack from one scalar chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .background import BackgroundSample, _read_only
from .errors import CNotUnit, DegenerateNu, DegenerateQ, NullCartan
from .kinematics import (
    AuxVectors,
    NU_MIN_REL,
    Q_MIN_REL,
    Sector,
    _sector,
    aux_vectors,
    scalars,
)

__all__ = [
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
]

#: Below this |charge| the cubic form vanishes identically.
G_NULL_TOL = 1e-12


@dataclass(frozen=True)
class MetricBundle:
    """Full metric stack at one (point, direction) pair.

    ``cartan`` is the full cubic form (exact zeros at zero charge); ``CC`` is
    the squared norm of the contracted cubic form; ``h_ang`` the angular
    metric.
    """

    F2: float
    y_cov: np.ndarray
    g_cov: np.ndarray
    g_contra: np.ndarray
    det_ratio: float
    C_cov: np.ndarray
    C_contra: np.ndarray
    CC: float
    cartan: np.ndarray
    h_ang: np.ndarray


@dataclass(frozen=True)
class FrameComponents:
    """Direction and metric in the adapted frame: ``R[p]`` and ``g_frame[p, q]``."""

    R: np.ndarray
    g_frame: np.ndarray


# --- the stack at one direction ----------------------------------------------


class _memo:
    """A ``functools.cached_property`` without the lock that Python 3.11 takes
    on every first access: the first read stores the value in the instance
    ``__dict__``, where every later read finds it before this descriptor."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _Direction:
    """The metric stack at one (sample, direction, sector), each piece computed once.

    The package's one per-direction object: a consumer that holds a direction
    builds one record and reads ``scal``, ``f2``, ``y_cov``, ``g_cov``,
    ``g_contra`` and the rest from it. Package-private; not exported.
    """

    def __init__(self, sample: BackgroundSample, y: Sequence[float], sector: Sector | None):
        self.sample = sample
        self.y = np.asarray(y, dtype=float)
        self.scal = scal = scalars(sample, self.y, sector)
        self.f2 = scal.B * scal.J * scal.J

    def require_q(self, what: str) -> None:
        if self.scal.q <= Q_MIN_REL * self.scal.scale:
            raise DegenerateQ(f"{what} divides by the transverse radius, zero on the axis ray")

    def require_nu(self, what: str) -> None:
        if self.scal.nu <= NU_MIN_REL * self.scal.scale:
            raise DegenerateNu(f"{what} divides by the dual radius nu = {self.scal.nu!r}")

    @property
    def null_charge(self) -> bool:
        return abs(self.sample.g) <= G_NULL_TOL

    @_memo
    def aux(self) -> AuxVectors:  # read only after require_q
        return aux_vectors(self.sample, self.y, self.scal)

    @_memo
    def y_cov(self) -> np.ndarray:
        sample, scal = self.sample, self.scal
        u = sample.a @ self.y
        return (u - sample.g * scal.q * sample.b_cov) * (scal.J * scal.J)

    @_memo
    def g_cov(self) -> np.ndarray:
        self.require_q("metric tensor")
        sample, scal = self.sample, self.scal
        g, q, b, eps = sample.g, scal.q, scal.b, scal.eps
        b_cov, v = sample.b_cov, self.aux.v_cov
        j2 = scal.J * scal.J
        bb = b_cov[:, None] * b_cov
        bv = b_cov[:, None] * v + v[:, None] * b_cov
        vv = v[:, None] * v
        inner = -q * (b + g * q) * bb + q * bv - eps * (b / q) * vv
        return (sample.a - (g / scal.B) * inner) * j2

    @_memo
    def g_contra(self) -> np.ndarray:
        self.require_q("inverse metric")
        self.require_nu("inverse metric")
        sample, scal = self.sample, self.scal
        g, q, b, eps = sample.g, scal.q, scal.b, scal.eps
        c2 = sample.c * sample.c
        b_up, v_up = sample.b_contra, self.aux.v_contra
        j2 = scal.J * scal.J
        bb = b_up[:, None] * b_up
        bv = b_up[:, None] * v_up + v_up[:, None] * b_up
        vv = v_up[:, None] * v_up
        inner = -b * q * bb + q * bv - eps * ((b + g * c2 * q) / scal.nu) * vv
        return (sample.a_inv + (g / scal.B) * inner) / j2

    @_memo
    def det_ratio(self) -> float:
        sample, scal = self.sample, self.scal
        j_pow = scal.J ** (2 * sample.dim)
        if abs(1.0 - sample.c * sample.c) <= 1e-15:
            return j_pow
        self.require_q("determinant ratio")
        return (scal.nu / scal.q) * j_pow

    @_memo
    def C_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Contracted cubic form, covariant and contravariant."""
        sample, scal = self.sample, self.scal
        if self.null_charge:
            zero = np.zeros(sample.dim)
            return zero, zero.copy()
        self.require_q("cubic-form vector")
        self.require_nu("cubic-form vector")
        aux = self.aux
        g, q, b, eps = sample.g, scal.q, scal.b, scal.eps
        c2 = sample.c * sample.c
        c_cov = (g / (2.0 * scal.B)) * (q / scal.X) * aux.e
        c_contra = (g / (2.0 * self.f2)) * (q / scal.X) * (
            -sample.b_contra + eps * ((b + g * c2 * q) / (q * scal.nu)) * aux.v_contra
        )
        return c_cov, c_contra

    @_memo
    def CC(self) -> float:
        if self.null_charge:
            return 0.0
        g, n, x = self.sample.g, self.sample.dim, self.scal.X
        return -self.scal.eps * (g**2 / 4.0) * (1.0 / (self.f2 * x * x)) * (n + 1.0 - 1.0 / x)

    @_memo
    def h_ang(self) -> np.ndarray:
        return self.g_cov - np.outer(self.y_cov, self.y_cov) / self.f2

    @_memo
    def cartan(self) -> np.ndarray:
        if self.null_charge:
            raise NullCartan("cubic-form assembly is degenerate at zero charge")
        c_cov, _ = self.C_vectors
        h_ang = self.h_ang
        cc = self.CC
        if cc == 0.0:
            raise NullCartan("cubic-form assembly divides by a vanishing contracted cubic form")
        n, x = self.sample.dim, self.scal.X
        # einsum, not a broadcast product: einsum raises no float error under
        # errstate, and the goldens pin which error surfaces
        outer = np.einsum("i,jk->ijk", c_cov, h_ang)
        sym = outer + outer.transpose(1, 0, 2) + outer.transpose(1, 2, 0)
        triple = np.einsum("i,j,k->ijk", c_cov, c_cov, c_cov)
        return x * (sym - (n + 1.0 - 1.0 / x) * triple / cc)

    def curvature(
        self, seeds: tuple[Sequence[float], Sequence[float]] | tuple[int, int] | None
    ) -> float:
        eps = self.scal.eps
        if self.null_charge:
            return -float(eps)
        # read in stack order, so the first failing guard names the error
        g_cov, g_contra, h_ang, cartan = self.g_cov, self.g_contra, self.h_ang, self.cartan
        c_mixed = np.einsum("ha,ian->ihn", g_contra, cartan)  # C_i{}^h{}_n
        term = np.einsum("inh,jhm->ijmn", cartan, c_mixed)
        riem = term - term.transpose(0, 1, 3, 2)  # the second term swaps m and n

        u, v, huu, hvv, huv = _projected_pair(g_cov, h_ang, self.y, self.f2, seeds)
        numerator = self.f2 * float(np.einsum("ijmn,i,j,m,n->", riem, u, v, u, v))
        kappa = numerator / (huu * hvv - huv * huv)
        return -eps * (1.0 + kappa)

    @_memo
    def frame(self) -> FrameComponents:
        self.require_q("frame metric")
        sample, scal = self.sample, self.scal
        r = sample.frame @ self.y
        dim = sample.dim
        g, q, b, eps, c = sample.g, scal.q, scal.b, scal.eps, sample.c
        j2 = scal.J * scal.J
        big_b = scal.B
        z = r[dim - 1]
        trans, trans_block = _frame_signature(dim)
        er = trans * r[: dim - 1]  # e_ad R^d over transverse legs
        s2 = q * q - eps * b * b

        g_frame = np.zeros((dim, dim))
        g_frame[: dim - 1, : dim - 1] = trans_block + eps * g * (
            b / (big_b * q)
        ) * np.outer(er, er)
        edge = (g / (big_b * q)) * (-eps * b * z - s2 * c) * er
        g_frame[dim - 1, : dim - 1] = edge
        g_frame[: dim - 1, dim - 1] = edge
        g_frame[dim - 1, dim - 1] = -1.0 + (g / (big_b * q)) * (
            (g * q**3 - b * s2) * c * c + eps * b * z * z + 2.0 * s2 * b
        )
        return FrameComponents(R=r, g_frame=g_frame * j2)


def _f2_and_momentum_rows(samples: Sequence[BackgroundSample], Y: np.ndarray) -> np.ndarray:
    """``[F^2, y_cov]`` at ``(samples[k], Y[k])`` for every row ``k``, so one
    finite difference gives both the squared-norm gradient and the momentum
    Jacobian. Row ``k`` is byte-equal to ``f2`` and ``y_cov`` of
    ``_Direction(samples[k], Y[k], None)``: the products (a stacked ``matmul``
    rounds as a single one) and the arithmetic run over all rows in the scalar
    chain's order, ``log``, ``atan2`` and ``exp`` through ``math`` row by row
    (numpy's differ in the last bit). At the first row the scalar chain
    refuses, ``scalars`` raises for it."""
    a = np.array([s.a for s in samples])
    b_cov = np.array([s.b_cov for s in samples])
    g, c, h_time, h_space = np.array([(s.g, s.c, s.h_time, s.h_space) for s in samples]).T
    rows, cols = Y[:, None, :], Y[:, :, None]
    b = np.matmul(rows, b_cov[:, :, None])[:, 0, 0]
    gamma = np.matmul(np.matmul(rows, a), cols)[:, 0, 0] + b * b
    scale = np.sqrt(np.matmul(rows, cols)[:, 0, 0])
    sectors = [_sector(*row) for row in zip(samples, Y, scale.tolist(), b.tolist(), gamma.tolist())]
    time = np.array([sector.tag == "time-future" for sector in sectors])
    with np.errstate(all="ignore"):  # the scalar chain's float arithmetic does not warn
        eps, h = np.where(time, 1.0, -1.0), np.where(time, h_time, h_space)
        q = np.sqrt(np.abs(gamma))
        big_b = gamma - g * b * q - b * b
        one_minus_c2 = 1.0 - c * c
        nu = q - eps * one_minus_c2 * g * b
        weight = Y.shape[1] + eps * one_minus_c2 * big_b / (q * nu)  # 1 / trace weight
        refused = [not sector.supported for sector in sectors] | (np.abs(one_minus_c2) > 1e-15) & (
            (q <= Q_MIN_REL * scale) | (nu <= NU_MIN_REL * scale) | (q * nu == 0.0) | (weight == 0)
        )
        stop = int(np.argmax(refused)) if refused.any() else len(Y)
        ratio = (b - (-0.5 * g - h) * q) / ((-0.5 * g + h) * q - b)  # of the cone margins
        j = []  # row by row, so that a math error comes from the row the records meet it at
        for t, r, hq, big_a, rate in zip(
            time[:stop].tolist(), ratio.tolist(), (h * q).tolist(), (b + 0.5 * g * q).tolist(),
            (-0.5 * (g / h)).tolist(),
        ):
            f = 0.5 * math.log(r) if t else math.atan2(hq, big_a) - math.pi
            j.append(math.exp(rate * f))
        if stop < len(Y):
            scalars(samples[stop], Y[stop])
            raise AssertionError("the scalar chain accepted a row the rows chain refused")
        j = np.array(j)
        y_cov = (np.matmul(a, cols)[:, :, 0] - (g * q)[:, None] * b_cov) * (j * j)[:, None]
    return np.concatenate([(big_b * j * j)[:, None], y_cov], axis=1)


@cache
def _frame_signature(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The frame metric's transverse signs ``(+1, -1, ...)`` and their
    diagonal block, built once per dimension."""
    trans = np.concatenate([[1.0], -np.ones(dim - 2)])
    block = np.diag(trans)
    _read_only(trans, block)
    return trans, block


def _projected_pair(
    g_cov: np.ndarray,
    h_ang: np.ndarray,
    y_arr: np.ndarray,
    f2: float,
    seeds: tuple[Sequence[float], Sequence[float]] | tuple[int, int] | None,
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """``(u, v, h(u, u), h(v, v), h(u, v))``: the first nondegenerate pair of
    seeds (basis indices or vectors, every basis vector by default) projected
    off ``y``, and the angular forms the test of ``v`` computed. Each product
    is formed at the step and in the order a one-candidate-at-a-time search
    meets it, so the first float error and the ``DegenerateQ`` stay put."""
    eye = _identity(y_arr.size)
    candidates = list(eye) if seeds is None else [
        eye[int(s)] if isinstance(s, (int, np.integer)) else np.asarray(s, dtype=float)
        for s in seeds
    ]
    gy = g_cov @ y_arr
    u = None
    for t in candidates:
        w = t - (float(gy @ t) / f2) * y_arr
        if math.sqrt(float(w.dot(w))) < 1e-10:
            continue
        if u is None:
            u = w
            continue
        uh = u @ h_ang
        huu = float(uh @ u)
        huw = float(uh @ w)
        hww = float(w @ h_ang @ w)
        if abs(huu * hww - huw * huw) < 1e-10 * (abs(huu * hww) + w @ w * (u @ u)):
            continue
        return u, w, huu, hww, huw
    raise DegenerateQ("could not find a nondegenerate tangent pair for curvature extraction")


@cache
def _identity(dim: int) -> np.ndarray:
    """The read-only ``dim``-by-``dim`` identity whose rows seed the tangent pair."""
    eye = np.eye(dim)
    _read_only(eye)
    return eye


# --- public views ------------------------------------------------------------

# the last record a public view built, with its key: (record, sector, y key)
_shared: tuple[_Direction, Sector | None, tuple] | None = None


def _record(sample: BackgroundSample, y: Sequence[float], sector: Sector | None) -> _Direction:
    """The record at (sample, y, sector) for the public views.

    The views share one slot: a view called with the same ``sample`` object,
    an equal ``sector`` and a ``y`` of the same shape and bytes (so ``-0.0``
    and ``0.0`` differ) reads the record the last view built, so a run of
    views at one direction computes each piece once. Otherwise a record is
    built on a copy of ``y`` and takes the slot. A build that raises leaves
    the slot as it was, and ``_memo`` stores no piece whose guard raised.
    """
    global _shared
    y_arr = np.array(y, dtype=float)
    key = (y_arr.shape, y_arr.tobytes())
    last = _shared
    if last is not None and last[0].sample is sample and last[1] == sector and last[2] == key:
        return last[0]
    d = _Direction(sample, y_arr, sector)
    _shared = (d, sector, key)
    return d


def metric_function(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> float:
    """Squared anisotropic norm ``F^2`` (positive time-future, negative space-like)."""
    return _record(sample, y, sector).f2


def covariant_momentum(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> np.ndarray:
    """Lowered direction ``y_i`` (half gradient of the squared norm)."""
    y_cov = _record(sample, y, sector).y_cov
    _read_only(y_cov)
    return y_cov


def metric_tensor(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> np.ndarray:
    """Covariant direction-dependent metric ``g_ij``."""
    g_cov = _record(sample, y, sector).g_cov
    _read_only(g_cov)
    return g_cov


def inverse_metric(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> np.ndarray:
    """Contravariant direction-dependent metric ``g^ij``."""
    g_contra = _record(sample, y, sector).g_contra
    _read_only(g_contra)
    return g_contra


def determinant_ratio(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> float:
    """Closed form for ``det(g_ij) / det(a_ij)``."""
    return _record(sample, y, sector).det_ratio


def cartan_vector(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Contracted cubic form, covariant and contravariant (zeros at zero charge)."""
    c_cov, c_contra = _record(sample, y, sector).C_vectors
    _read_only(c_cov, c_contra)
    return c_cov, c_contra


def cartan_norm(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> float:
    """Closed form for the squared norm ``C_h C^h`` of the contracted cubic form."""
    return _record(sample, y, sector).CC


def angular_metric(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> np.ndarray:
    """Angular metric: the metric projected orthogonally to the direction."""
    h_ang = _record(sample, y, sector).h_ang
    _read_only(h_ang)
    return h_ang


def cartan_tensor(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> np.ndarray:
    """Full cubic form ``C_ijk``.

    Raises
    ------
    NullCartan
        Where the normalised assembly divides by a vanishing squared norm of
        the contracted form: at zero charge (the exact limit value is zero),
        and on rays where the contracted form itself vanishes.
    """
    cartan = _record(sample, y, sector).cartan
    _read_only(cartan)
    return cartan


def indicatrix_curvature(
    sample: BackgroundSample,
    y: Sequence[float],
    sector: Sector | None = None,
    seeds: tuple[Sequence[float], Sequence[float]] | tuple[int, int] | None = None,
) -> float:
    """Sectional curvature of the unit shell, extracted from cubic-form products.

    Requires unit preferred-direction norm. The value is a charge-only
    constant; ``seeds`` selects the tangent plane used for extraction so the
    tests can verify direction independence.
    """
    if not sample.c_is_unit:
        raise CNotUnit("indicatrix curvature is implemented at unit preferred-direction norm")
    return _record(sample, y, sector).curvature(seeds)


def frame_components(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> FrameComponents:
    """Direction and metric in the adapted frame, from closed frame formulas."""
    frame = _record(sample, y, sector).frame
    _read_only(frame.R, frame.g_frame)
    return frame


def metric_bundle(
    sample: BackgroundSample, y: Sequence[float], sector: Sector | None = None
) -> MetricBundle:
    """Assemble the full metric stack at one direction from one scalar chain."""
    d = _record(sample, y, sector)
    # pieces are read in stack order, so the first failing guard names the error
    bundle = MetricBundle(
        F2=d.f2,
        y_cov=d.y_cov,
        g_cov=d.g_cov,
        g_contra=d.g_contra,
        det_ratio=d.det_ratio,
        C_cov=d.C_vectors[0],
        C_contra=d.C_vectors[1],
        CC=d.CC,
        h_ang=d.h_ang,
        cartan=np.zeros((sample.dim,) * 3) if d.null_charge else d.cartan,
    )
    _read_only(
        bundle.y_cov, bundle.g_cov, bundle.g_contra, bundle.C_cov, bundle.C_contra,
        bundle.h_ang, bundle.cartan,
    )
    return bundle
