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
every stencil row; ``_f2_and_momentum_rows`` takes a stacked measurement of
all rows, runs the records' one scalar chain on each without building a
record and stacks the momentum, each row byte-equal to its record.

Every quantity depends on the point and the direction alone: a record
classifies its direction itself, and no caller can hand it a sector. The
public views (and ``spray.spray_coefficients``) share the last record they
built: called again with the same sample object and the same direction
bytes, a view reads that record, so ``metric_bundle``, ``indicatrix_curvature``
and ``frame_components`` at one direction compute the chain and each piece
once. A record marks each array it makes read-only as it makes it, as the
sample's stages do, so the views return its arrays as they are and the
package's own readers hold the same read-only arrays; copy one to change it.

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
from .kinematics import AuxVectors, NU_MIN_REL, Q_MIN_REL, _scalar_values, aux_vectors, scalars

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
    """The metric stack at one (sample, direction), each piece computed once.

    The package's one per-direction object: a consumer that holds a direction
    builds one record and reads ``scal``, ``f2``, ``y_cov``, ``g_cov``,
    ``g_contra`` and the rest from it. The scalar chain classifies the
    direction; a record outside the two supported cones is never built.
    Package-private; not exported.
    """

    def __init__(self, sample: BackgroundSample, y: Sequence[float]):
        self.sample = sample
        self.y = np.asarray(y, dtype=float)
        self.scal = scal = scalars(sample, self.y)
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
        return _read_only((u - sample.g * scal.q * sample.b_cov) * (scal.J * scal.J))

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
        return _read_only((sample.a - (g / scal.B) * inner) * j2)

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
        return _read_only((sample.a_inv + (g / scal.B) * inner) / j2)

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
            return _read_only(zero, zero.copy())
        self.require_q("cubic-form vector")
        self.require_nu("cubic-form vector")
        aux = self.aux
        g, q, b, eps = sample.g, scal.q, scal.b, scal.eps
        c2 = sample.c * sample.c
        c_cov = (g / (2.0 * scal.B)) * (q / scal.X) * aux.e
        c_contra = (g / (2.0 * self.f2)) * (q / scal.X) * (
            -sample.b_contra + eps * ((b + g * c2 * q) / (q * scal.nu)) * aux.v_contra
        )
        return _read_only(c_cov, c_contra)

    @_memo
    def CC(self) -> float:
        if self.null_charge:
            return 0.0
        g, n, x = self.sample.g, self.sample.dim, self.scal.X
        return -self.scal.eps * (g**2 / 4.0) * (1.0 / (self.f2 * x * x)) * (n + 1.0 - 1.0 / x)

    @_memo
    def h_ang(self) -> np.ndarray:
        return _read_only(self.g_cov - np.outer(self.y_cov, self.y_cov) / self.f2)

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
        return _read_only(x * (sym - (n + 1.0 - 1.0 / x) * triple / cc))

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
        return FrameComponents(R=_read_only(r), g_frame=_read_only(g_frame * j2))


def _f2_and_momentum_rows(samples: Sequence[BackgroundSample], Y: np.ndarray) -> np.ndarray:
    """``[F^2, y_cov]`` at ``(samples[k], Y[k])`` for every row ``k``, so one
    finite difference gives both the squared-norm gradient and the momentum
    Jacobian. Row ``k`` is byte-equal to ``f2`` and ``y_cov`` of
    ``_Direction(samples[k], Y[k])``: the measurement and the momentum are
    stacked products (a stacked ``matmul`` rounds as a single one), and
    between them every row runs the records' one scalar chain,
    ``kinematics._scalar_values``, so the first row it refuses raises the
    record's own error. Only ``q``, ``B`` and ``J`` of each row's chain are
    read, as plain values: no ``KinematicScalars`` is built."""
    a = np.array([s.a for s in samples])
    b_cov = np.array([s.b_cov for s in samples])
    g = np.array([s.g for s in samples])
    rows, cols = Y[:, None, :], Y[:, :, None]
    b = np.matmul(rows, b_cov[:, :, None])[:, 0, 0]
    gamma = np.matmul(np.matmul(rows, a), cols)[:, 0, 0] + b * b
    scale = np.sqrt(np.matmul(rows, cols)[:, 0, 0])
    chains = map(_scalar_values, samples, Y, scale.tolist(), b.tolist(), gamma.tolist())
    q, big_b, j = np.array([chain[:3] for chain in chains]).T
    with np.errstate(all="ignore"):  # a record's F^2 is a float product, which never warns
        y_cov = (np.matmul(a, cols)[:, :, 0] - (g * q)[:, None] * b_cov) * (j * j)[:, None]
        return np.concatenate([(big_b * j * j)[:, None], y_cov], axis=1)


@cache
def _frame_signature(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The frame metric's transverse signs ``(+1, -1, ...)`` and their
    diagonal block, built once per dimension."""
    trans = np.concatenate([[1.0], -np.ones(dim - 2)])
    return _read_only(trans, np.diag(trans))


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
    return _read_only(np.eye(dim))


# --- public views ------------------------------------------------------------

# the last record a public view built, with its key: (record, y key)
_shared: tuple[_Direction, tuple] | None = None


def _record(sample: BackgroundSample, y: Sequence[float]) -> _Direction:
    """The record at (sample, y) for the public views.

    The views share one slot: a view called with the same ``sample`` object
    and a ``y`` of the same shape and bytes (so ``-0.0`` and ``0.0`` differ)
    reads the record the last view built, so a run of views at one direction
    computes each piece once. Otherwise a record is built on a copy of ``y``
    and takes the slot. A build that raises leaves the slot as it was, and
    ``_memo`` stores no piece whose guard raised.
    """
    global _shared
    y_arr = np.array(y, dtype=float)
    key = (y_arr.shape, y_arr.tobytes())
    last = _shared
    if last is not None and last[0].sample is sample and last[1] == key:
        return last[0]
    d = _Direction(sample, y_arr)
    _shared = (d, key)
    return d


def metric_function(sample: BackgroundSample, y: Sequence[float]) -> float:
    """Squared anisotropic norm ``F^2`` (positive time-future, negative space-like)."""
    return _record(sample, y).f2


def covariant_momentum(sample: BackgroundSample, y: Sequence[float]) -> np.ndarray:
    """Lowered direction ``y_i`` (half gradient of the squared norm)."""
    return _record(sample, y).y_cov


def metric_tensor(sample: BackgroundSample, y: Sequence[float]) -> np.ndarray:
    """Covariant direction-dependent metric ``g_ij``."""
    return _record(sample, y).g_cov


def inverse_metric(sample: BackgroundSample, y: Sequence[float]) -> np.ndarray:
    """Contravariant direction-dependent metric ``g^ij``."""
    return _record(sample, y).g_contra


def determinant_ratio(sample: BackgroundSample, y: Sequence[float]) -> float:
    """Closed form for ``det(g_ij) / det(a_ij)``."""
    return _record(sample, y).det_ratio


def cartan_vector(sample: BackgroundSample, y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Contracted cubic form, covariant and contravariant (zeros at zero charge)."""
    return _record(sample, y).C_vectors


def cartan_norm(sample: BackgroundSample, y: Sequence[float]) -> float:
    """Closed form for the squared norm ``C_h C^h`` of the contracted cubic form."""
    return _record(sample, y).CC


def angular_metric(sample: BackgroundSample, y: Sequence[float]) -> np.ndarray:
    """Angular metric: the metric projected orthogonally to the direction."""
    return _record(sample, y).h_ang


def cartan_tensor(sample: BackgroundSample, y: Sequence[float]) -> np.ndarray:
    """Full cubic form ``C_ijk``.

    Raises
    ------
    NullCartan
        Where the normalised assembly divides by a vanishing squared norm of
        the contracted form: at zero charge (the exact limit value is zero),
        and on rays where the contracted form itself vanishes.
    """
    return _record(sample, y).cartan


def indicatrix_curvature(
    sample: BackgroundSample,
    y: Sequence[float],
    *,
    seeds: tuple[Sequence[float], Sequence[float]] | tuple[int, int] | None = None,
) -> float:
    """Sectional curvature of the unit shell, extracted from cubic-form products.

    Requires unit preferred-direction norm. The value is a charge-only
    constant; ``seeds`` selects the tangent plane used for extraction so the
    tests can verify direction independence.
    """
    if not sample.c_is_unit:
        raise CNotUnit("indicatrix curvature is implemented at unit preferred-direction norm")
    return _record(sample, y).curvature(seeds)


def frame_components(sample: BackgroundSample, y: Sequence[float]) -> FrameComponents:
    """Direction and metric in the adapted frame, from closed frame formulas."""
    return _record(sample, y).frame


def metric_bundle(sample: BackgroundSample, y: Sequence[float]) -> MetricBundle:
    """Assemble the full metric stack at one direction from one scalar chain."""
    d = _record(sample, y)
    # pieces are read in stack order, so the first failing guard names the error
    return MetricBundle(
        F2=d.f2,
        y_cov=d.y_cov,
        g_cov=d.g_cov,
        g_contra=d.g_contra,
        det_ratio=d.det_ratio,
        C_cov=d.C_vectors[0],
        C_contra=d.C_vectors[1],
        CC=d.CC,
        h_ang=d.h_ang,
        cartan=_read_only(np.zeros((sample.dim,) * 3)) if d.null_charge else d.cartan,
    )
