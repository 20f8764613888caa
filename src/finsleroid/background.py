"""Background structure: base metric, preferred direction, anisotropy charge.

A background is a triple of position-dependent fields on an ``N``-dimensional
chart: a Lorentz-signature base metric ``a_ij(x)`` (signature ``+ - ... -``),
a covariant preferred direction ``b_i(x)`` whose norm ``c(x)`` must lie in
``(0, 1]``, and a scalar anisotropy charge ``g(x)`` with ``|g| < 2``.

Key entry points
----------------
parse_config / load_config
    Read the line-oriented ``key = value`` configuration format (keys ``dim``,
    ``a.<i>.<j>``, ``b.<i>``, ``g``; values are expressions in ``x0..x{N-1}``).
parse_config reports syntax problems with the 1-based column at which the
    offending value expression starts.
sample
    Evaluate every field and its exact symbolic first derivatives at a point,
    assemble connection coefficients and the covariant derivative of the
    preferred direction. The adapted orthonormal frame, whose last leg is
    aligned with the preferred direction and whose time leg fixes the future
    orientation, belongs to the direction stage and is built on first read.

Design choices
--------------
Symbolic differentiation of the configured expressions is the normative
derivative route; the finite-difference layer only cross-checks it. A field
builds a flat evaluation layout when it is constructed: constant entries are
evaluated once, and ``sample`` calls only the closures of entries that vary
with position. ``sample`` runs three stages, each reading its own entries and
running all its own checks: the base-metric stage (``a``, ``da``; singular,
then inertia; the inverse and the connection), the direction stage
(``b_cov``, ``db`` and the base stage; the norm ``c``; ``b_contra``,
``nabla_b`` and the curl of ``b``; on a flat base ``nabla_b`` is ``db``
itself, whose bits the all-zero connection term would keep) and the charge
stage (``g``, ``dg``; the range of ``g``). Each stage also records which of
its fields are exactly zero (the connection; ``nabla_b`` with the curl;
``dg``), so that the spray reads these facts instead of testing them on
every call. A stage whose entries are all constant runs once, when the
field is built, and its read-only arrays and facts are shared by every
sample; that run is the load-time validation, and its errors name no point
and become ``ConfigValueError``, as does a constant entry that cannot be
evaluated. The other stages run at every ``sample``, with their checks in the fixed order
singular, inertia, norm, charge; each of their errors names the point.
Stages mark their arrays read-only by ``setflags``, and ``sample`` fills the
record from their mappings through ``_built``. The adapted frame is built by
Gram-Schmidt in a fixed deterministic order (last leg first, then the time
leg, then the space legs, from fresh axis seeds) with each leg's sign pinned
so results are reproducible across runs and platforms. The direction stage
keeps a holder of ``(a, b_contra, c)`` that builds, each on its first read,
the time leg, the time covector ``time_leg @ a`` (all that orientation tests
need), and ``frame`` and ``frame_inv``, bit-identical to an eager build; a
space-like geodesic reads none of them. A frame the holder cannot build
raises its ``DomainError`` (naming no point) at that read. Samples that share
a stage's result share its holder: constant ``a`` and ``b`` build each piece
once per field.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigDimensionError,
    ConfigDuplicateError,
    ConfigSyntaxError,
    ConfigValueError,
    DomainError,
)
from .expressions import FieldExpression

__all__ = ["BackgroundField", "BackgroundSample", "parse_config", "load_config"]

# Degenerate-direction guard when normalising Gram-Schmidt residuals.
_FRAME_SEED_TOL = 1e-10


def _built(cls: type, *parts: Mapping[str, object]):
    """A frozen dataclass ``cls`` holding the fields that ``parts`` give, made
    without the ``__init__`` that sets each field by ``object.__setattr__``.
    Writes stay refused; ``cls`` has no ``__post_init__`` and no ``slots``."""
    obj = object.__new__(cls)
    for part in parts:
        obj.__dict__.update(part)
    return obj


# --- field container ---------------------------------------------------------


@dataclass(frozen=True)
class BackgroundField:
    """Symbolic background fields over an ``dim``-dimensional chart.

    Attributes
    ----------
    dim : int
        Chart dimension ``N >= 2``.
    a : tuple[tuple[FieldExpression, ...], ...]
        Symmetric base-metric entries ``a[i][j]``.
    b_cov : tuple[FieldExpression, ...]
        Covariant preferred-direction components.
    g : FieldExpression
        Anisotropy charge.
    """

    dim: int
    a: tuple[tuple[FieldExpression, ...], ...]
    b_cov: tuple[FieldExpression, ...]
    g: FieldExpression

    @classmethod
    def constant(
        cls,
        a: Sequence[Sequence[float]] | Sequence[float],
        b_cov: Sequence[float],
        g: float,
    ) -> "BackgroundField":
        """Build a position-independent background from numbers.

        ``a`` may be a full symmetric matrix or just its diagonal.
        """
        a_arr = np.asarray(a, dtype=float)
        if a_arr.ndim == 1:
            a_arr = np.diag(a_arr)
        dim = a_arr.shape[0]
        if a_arr.shape != (dim, dim) or not np.array_equal(a_arr, a_arr.T):
            raise ConfigDimensionError("constant background needs a symmetric square matrix")
        if len(b_cov) != dim:
            raise ConfigDimensionError("preferred-direction length does not match dim")
        rows = tuple(
            tuple(FieldExpression.constant(a_arr[i, j]) for j in range(dim)) for i in range(dim)
        )
        return cls(
            dim=dim,
            a=rows,
            b_cov=tuple(FieldExpression.constant(v) for v in b_cov),
            g=FieldExpression.constant(g),
        )

    def __post_init__(self) -> None:
        # a constant that cannot be evaluated, or a constant stage that fails
        # its checks, is a configuration error
        self._layout
        try:
            self._constant_stages
        except DomainError as exc:
            raise ConfigValueError(str(exc)) from None

    @property
    def is_constant(self) -> bool:
        return self._layout[1].size == 0

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, tuple[Callable[[Sequence[float]], float], ...]]:
        """Flat evaluation plan for :func:`sample`.

        The flat order is ``a``, ``b_cov``, ``g`` and their exact symbolic
        first derivatives ``da[k][i][j]``, ``db[k][j]``, ``dg[k]`` along
        ``x{k}``, each row-major. Returns the template with every constant
        entry filled in, the flat slots of the varying entries, and their
        closures. A constant that cannot be evaluated is a
        ``ConfigValueError`` that names no point.
        """
        dim = self.dim
        a = [e for row in self.a for e in row]
        exprs = (
            a
            + list(self.b_cov)
            + [self.g]
            + [e.differentiate(k) for k in range(dim) for e in a]
            + [e.differentiate(k) for k in range(dim) for e in self.b_cov]
            + [self.g.differentiate(k) for k in range(dim)]
        )
        origin = (0.0,) * dim
        template = np.zeros(len(exprs))
        slots: list[int] = []
        closures: list[Callable[[Sequence[float]], float]] = []
        for slot, expr in enumerate(exprs):
            if expr.is_constant:
                try:
                    template[slot] = expr.compiled(origin)
                except DomainError:
                    raise ConfigValueError(f"cannot evaluate the constant {expr}") from None
            else:
                slots.append(slot)
                closures.append(expr.compiled)
        return template, np.array(slots, dtype=np.intp), tuple(closures)

    @cached_property
    def _constant_stages(self) -> dict[str, dict]:
        """Results of the stages of :func:`sample` that read only constants.

        There is one key per stage whose input slots are all constant in
        ``_layout``: ``"base"`` reads ``a`` and ``da``, ``"direction"`` reads
        ``b_cov``, ``db`` and the base stage, ``"charge"`` reads ``g`` and
        ``dg``. Each ran once, on the template, when the field was built.
        """
        template, slots, _ = self._layout
        flat = _flat_slices(self.dim)
        varying = set(slots.tolist())

        def constant(*names: str) -> bool:
            return all(varying.isdisjoint(range(flat[n].start, flat[n].stop)) for n in names)

        stages: dict[str, dict] = {}
        if constant("a", "da"):
            stages["base"] = _base_stage(template, self.dim, None)
            if constant("b_cov", "db"):
                stages["direction"] = _direction_stage(template, self.dim, stages["base"], None)
        if constant("g", "dg"):
            stages["charge"] = _charge_stage(template, self.dim, None)
        return stages


# --- sampled values ----------------------------------------------------------


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


class _FrameHolder:
    """The adapted frame of one direction-stage result, each piece built on
    first read from the ``(a, b_contra, c)`` it holds."""

    def __init__(self, a: np.ndarray, b_contra: np.ndarray, c: float):
        self.inputs = (a, b_contra, c)

    @_memo
    def time_leg(self) -> np.ndarray:
        a, b_contra, c = self.inputs  # the frame's first Gram-Schmidt step
        return _read_only(_next_leg(a, [(-b_contra / c, -1.0)], 1.0))

    @_memo
    def time_cov(self) -> np.ndarray:
        return _read_only(self.time_leg @ self.inputs[0])

    @_memo
    def frame_inv(self) -> np.ndarray:
        return _read_only(_build_frame(*self.inputs, self.time_leg).T.copy())

    @_memo
    def frame(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self.frame_inv))


class _OwnHolder:
    """The ``frame_holder`` slot of ``BackgroundSample``. A sample made by
    ``__init__`` (``dataclasses.replace`` makes one) keeps the holder it is
    given only if it holds the sample's ``a``, ``b_contra`` and ``c`` (the same
    arrays and ``c``; ``frame_holder`` is the last field, so they are set),
    else it gets a holder of its own. ``sample`` fills its records without
    ``__init__``, with the holder of the stage that made them. The slot has no
    ``__get__``: a read finds the holder in the instance ``__dict__``, so the
    per-direction reads of ``time_cov`` check nothing."""

    def __set__(self, sample: "BackgroundSample", holder: _FrameHolder) -> None:
        a, b_contra, c = holder.inputs
        if sample.a is not a or sample.b_contra is not b_contra or sample.c != c:
            holder = _FrameHolder(sample.a, sample.b_contra, sample.c)
        sample.__dict__["frame_holder"] = holder


@dataclass(frozen=True)
class BackgroundSample:
    """All background data evaluated at one chart point.

    Index conventions: ``da[k, i, j]`` is the ``x^k`` derivative of ``a_ij``;
    ``db[k, j]`` of ``b_j``; ``christoffel[k, i, j]`` carries the upper index
    first; ``nabla_b[i, j]`` is the covariant derivative of ``b_j`` along
    ``x^i``. ``time_leg[i]`` is the adapted frame's time leg and
    ``time_cov = time_leg @ a`` its lowered form. ``frame[p, i]`` maps
    vectors to frame components ``R^p``; ``frame_inv[i, p]`` maps back, with
    ``frame_inv = inv(frame)``, and ``frame_inv[:, 0]`` equals ``time_leg``.
    These four are read-only attributes, not fields: they are read from
    ``frame_holder``, the direction stage's holder, which builds each on first
    read; a stage that reads only constants has one holder per field, so each
    is built once per field, and a sample that no one asks for its time leg
    (a space-like geodesic's) never builds one. A sample made with an ``a``,
    ``b_contra`` or ``c`` that is not its holder's (by ``dataclasses.replace``)
    gets a holder of its own, built from its own fields.
    ``curl[i, j] = db[i, j] - db[j, i]`` is the curl of ``b``; the connection
    parts of ``nabla_b`` cancel in it.

    The stage facts: ``christoffel_zero`` says that no entry of
    ``christoffel`` is nonzero, ``b_parallel`` the same of ``nabla_b`` and
    ``curl`` together, and ``dg_zero`` of ``dg``. A stage that reads only
    constants records them once per field.
    """

    x: np.ndarray
    a: np.ndarray
    a_inv: np.ndarray
    b_cov: np.ndarray
    b_contra: np.ndarray
    c: float
    g: float
    h_time: float
    h_space: float
    da: np.ndarray
    db: np.ndarray
    dg: np.ndarray
    christoffel: np.ndarray
    nabla_b: np.ndarray
    curl: np.ndarray
    christoffel_zero: bool
    b_parallel: bool
    dg_zero: bool
    frame_holder: _FrameHolder = field(repr=False, compare=False)

    time_leg = property(attrgetter("frame_holder.time_leg"))
    time_cov = property(attrgetter("frame_holder.time_cov"))
    frame_inv = property(attrgetter("frame_holder.frame_inv"))
    frame = property(attrgetter("frame_holder.frame"))

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    @property
    def c_is_unit(self) -> bool:
        return abs(self.c - 1.0) <= 1e-9


BackgroundSample.frame_holder = _OwnHolder()  # after the dataclass took its field


# --- configuration parsing ---------------------------------------------------


def _parse_index(part: str, key: str, lineno: int) -> int:
    if not re.fullmatch("[0-9]+", part):
        raise ConfigSyntaxError(f"line {lineno}: malformed key {key!r}")
    return int(part)


def parse_config(text: str) -> BackgroundField:
    """Parse configuration text into a :class:`BackgroundField`.

    Raises
    ------
    ConfigSyntaxError
        Malformed lines or value expressions, or a ``dim`` or key index not
        made of ASCII digits (``dim`` may be signed); value-expression problems are
        reported as ``syntax error at column <n>`` where ``<n>`` is the
        1-based column at which the value expression starts.
    ConfigDimensionError
        Missing/invalid ``dim``, out-of-range indices, or a value expression
        using coordinates beyond ``x{dim-1}``.
    ConfigDuplicateError
        A key (after symmetry canonicalisation for ``a``) assigned twice.
    """
    dim: int | None = None
    entries: dict[str, tuple[int, str, FieldExpression]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"line {lineno}: syntax error at column 1: expected 'key = value'")
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        if not key:
            raise ConfigSyntaxError(f"line {lineno}: syntax error at column 1: missing key")
        # 1-based column where the value expression begins
        leading = len(value_part) - len(value_part.lstrip())
        value_col = len(key_part) + 1 + leading + 1
        value_text = value_part.strip()
        if not value_text:
            raise ConfigSyntaxError(
                f"line {lineno}: syntax error at column {value_col}: missing value"
            )
        if key in entries or (key == "dim" and dim is not None):
            raise ConfigDuplicateError(f"line {lineno}: duplicate key {key!r}")

        if key == "dim":
            if not re.fullmatch("[+-]?[0-9]+", value_text):
                raise ConfigSyntaxError(
                    f"line {lineno}: syntax error at column {value_col}: dim must be an integer"
                )
            dim_value = int(value_text)
            if dim_value < 2:
                raise ConfigDimensionError(f"line {lineno}: dim must be at least 2")
            if dim_value > 16:  # the derivative layout grows as dim^3
                raise ConfigDimensionError(f"line {lineno}: dim must be at most 16")
            dim = dim_value
            continue

        try:
            expr = FieldExpression.parse(value_text)
        except ConfigSyntaxError as exc:
            raise ConfigSyntaxError(
                f"line {lineno}: syntax error at column {value_col}: {exc}"
            ) from None

        parts = key.split(".")
        if parts[0] == "a" and len(parts) == 3:
            i = _parse_index(parts[1], key, lineno)
            j = _parse_index(parts[2], key, lineno)
            canonical = f"a.{min(i, j)}.{max(i, j)}"
            if canonical in entries:
                raise ConfigDuplicateError(
                    f"line {lineno}: duplicate key {key!r} (symmetric partner already set)"
                )
            entries[canonical] = (lineno, key, expr)
        elif parts[0] == "b" and len(parts) == 2:
            i = _parse_index(parts[1], key, lineno)
            if f"b.{i}" in entries:
                raise ConfigDuplicateError(f"line {lineno}: duplicate key {key!r}")
            entries[f"b.{i}"] = (lineno, key, expr)
        elif key == "g":
            entries["g"] = (lineno, key, expr)
        else:
            raise ConfigSyntaxError(f"line {lineno}: unknown key {key!r}")

    if dim is None:
        raise ConfigDimensionError("dim is required")

    zero = FieldExpression.constant(0.0)
    a_rows: list[list[FieldExpression]] = [[zero] * dim for _ in range(dim)]
    b_rows: list[FieldExpression] = [zero] * dim
    g_expr = zero

    for canonical, (lineno, key, expr) in entries.items():
        parts = canonical.split(".")
        indices = [int(p) for p in parts[1:]]
        if any(idx >= dim for idx in indices):
            raise ConfigDimensionError(
                f"line {lineno}: index in {key!r} out of range for dim = {dim}"
            )
        if expr.max_var_index >= dim:
            raise ConfigDimensionError(
                f"line {lineno}: value for {key!r} uses x{expr.max_var_index} "
                f"but dim = {dim}"
            )
        if parts[0] == "a":
            i, j = indices
            a_rows[i][j] = expr
            a_rows[j][i] = expr
        elif parts[0] == "b":
            b_rows[indices[0]] = expr
        else:
            g_expr = expr

    return BackgroundField(
        dim=dim,
        a=tuple(tuple(row) for row in a_rows),
        b_cov=tuple(b_rows),
        g=g_expr,
    )


def load_config(path: str | Path) -> BackgroundField:
    """Read and parse a configuration file; one that is not UTF-8 is a
    ``ConfigSyntaxError`` naming the offset of its first undecodable byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_config(text)


# --- sampling ----------------------------------------------------------------


def _first_significant_sign(w: np.ndarray) -> float:
    # np.linalg.norm of a 1-D array is sqrt(w.dot(w)); math.sqrt rounds alike
    scale = math.sqrt(float(w.dot(w)))
    for value in w.tolist():
        if abs(value) > 1e-12 * scale:
            return 1.0 if value > 0 else -1.0
    return 1.0


def _seeds(a: np.ndarray) -> Iterator[np.ndarray]:
    """Gram-Schmidt seeds, fresh arrays: coordinate axes, then eigenvectors by
    descending eigenvalue (decomposed only if no axis served)."""
    for k in range(a.shape[0]):
        axis = np.zeros(a.shape[0])
        axis[k] = 1.0
        yield axis
    eigvals, eigvecs = np.linalg.eigh(a)
    for k in np.argsort(eigvals)[::-1]:
        yield eigvecs[:, k].copy()


def _next_leg(
    a: np.ndarray, built: list[tuple[np.ndarray, float]], wanted_sign: float
) -> np.ndarray:
    """First seed residual against the ``built`` legs whose base-metric norm
    has ``wanted_sign``, normalised with its first significant component
    positive."""
    for w in _seeds(a):
        for leg, sign in built:
            w -= sign * (w @ a @ leg) * leg
        norm2 = float(w @ a @ w)
        scale = float(w @ w)
        if scale < 1e-20:
            continue
        if wanted_sign * norm2 > _FRAME_SEED_TOL * scale:
            w = w / math.sqrt(wanted_sign * norm2)
            return _first_significant_sign(w) * w
    kind = "time" if wanted_sign > 0 else "space"
    raise DomainError(
        f"cannot build an adapted frame: no {kind} leg found "
        "(background metric is not Lorentzian here)"
    )


def _build_frame(
    a: np.ndarray, b_contra: np.ndarray, c: float, time_leg: np.ndarray
) -> np.ndarray:
    """Return ``legs[p, i]`` with ``a(leg_p, leg_q) = diag(+1, -1, ..., -1)[pq]``.

    The last leg is ``-b_contra/c`` (so the preferred direction has frame
    components ``(0, ..., 0, -c)``) and the time leg (index 0) is the one the
    frame holder built. The space legs are Gram-Schmidt residuals of
    coordinate-axis seeds taken in order, with eigenvector seeds as a
    deterministic fallback, and each leg's sign fixed so its first significant
    component is positive.
    """
    legs = np.zeros(a.shape)
    legs[0] = time_leg
    legs[-1] = -b_contra / c
    built = [(legs[-1], -1.0), (legs[0], 1.0)]
    for p in range(1, a.shape[0] - 1):
        legs[p] = _next_leg(a, built, -1.0)
        built.append((legs[p], -1.0))
    return legs


@cache
def _flat_slices(dim: int) -> dict[str, slice]:
    """Where ``a``, ``b_cov``, ``g``, ``da``, ``db`` and ``dg`` sit in the flat
    order of ``BackgroundField._layout``."""
    sizes = {"a": dim * dim, "b_cov": dim, "g": 1, "da": dim**3, "db": dim * dim, "dg": dim}
    slices, start = {}, 0
    for name, size in sizes.items():
        slices[name] = slice(start, start + size)
        start += size
    return slices


def _read_only(*arrays: np.ndarray) -> np.ndarray | tuple[np.ndarray, ...]:
    """Mark ``arrays`` read-only where they are made and return them: the one
    array, or the tuple of several, so a maker can end in ``return
    _read_only(...)``."""
    for arr in arrays:
        arr.setflags(write=False)  # builds no flags object, unlike arr.flags
    return arrays[0] if len(arrays) == 1 else arrays


def _at(coords: tuple[float, ...] | None) -> str:
    """Where a check failed: the chart point, or nothing for a constant stage."""
    return "" if coords is None else f" at x = {coords}"


def _base_stage(values: np.ndarray, dim: int, coords: tuple[float, ...] | None) -> dict:
    """The base-metric fields of a sample, keyed by ``BackgroundSample`` field
    name; raises the singular and inertia errors."""
    flat = _flat_slices(dim)
    a = values[flat["a"]].reshape(dim, dim).copy()
    da = values[flat["da"]].reshape(dim, dim, dim).copy()
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"base metric is singular{_at(coords)}") from exc
    try:
        eigenvalues = np.linalg.eigvalsh(a)  # ascending
    except np.linalg.LinAlgError:  # non-finite entries: fails the inertia check
        eigenvalues = np.full(dim, np.nan)
    if not eigenvalues[-2] < 0.0 < eigenvalues[-1]:
        raise DomainError(
            f"base metric is not Lorentzian{_at(coords)} (need one positive and "
            f"{dim - 1} negative eigenvalues; got {int(np.sum(eigenvalues > 0.0))} "
            f"positive, {int(np.sum(eigenvalues < 0.0))} negative)"
        )
    a_inv = 0.5 * (a_inv + a_inv.T)

    # connection coefficients of the base metric, upper index first
    christoffel = 0.5 * np.einsum("kn,jni->kij", a_inv, da)
    christoffel = christoffel + 0.5 * np.einsum("kn,inj->kij", a_inv, da)
    christoffel -= 0.5 * np.einsum("kn,nij->kij", a_inv, da)
    _read_only(a, da, a_inv, christoffel)
    return dict(
        a=a, da=da, a_inv=a_inv, christoffel=christoffel, christoffel_zero=not christoffel.any()
    )


def _direction_stage(
    values: np.ndarray, dim: int, base: dict, coords: tuple[float, ...] | None
) -> dict:
    """The preferred-direction fields of a sample over the base stage's, keyed
    by ``BackgroundSample`` field name, with the holder of the adapted frame
    they define; raises the norm errors."""
    flat = _flat_slices(dim)
    b_cov = values[flat["b_cov"]].copy()
    db = values[flat["db"]].reshape(dim, dim).copy()
    b_contra = base["a_inv"] @ b_cov
    c_sq = float(-(b_cov @ b_contra))
    if math.isnan(c_sq):
        raise DomainError(f"preferred direction has undefined norm squared {c_sq!r}{_at(coords)}")
    if c_sq <= 1e-15:
        raise DomainError(
            f"preferred direction has non-positive norm squared {c_sq!r}{_at(coords)}"
        )
    if c_sq > 1.0 + 1e-12:
        raise DomainError(f"preferred direction norm exceeds 1 (c^2 = {c_sq!r}){_at(coords)}")
    c = min(math.sqrt(c_sq), 1.0)
    christoffel = base["christoffel"]
    # on a flat base the connection term is +0.0 throughout and keeps db's bits
    nabla_b = db if base["christoffel_zero"] else db - np.einsum("k,kij->ij", b_cov, christoffel)
    curl = db - db.T
    _read_only(b_cov, db, b_contra, nabla_b, curl)
    return dict(
        b_cov=b_cov, db=db, b_contra=b_contra, c=c, nabla_b=nabla_b, curl=curl,
        b_parallel=not (nabla_b.any() or curl.any()),
        frame_holder=_FrameHolder(base["a"], b_contra, c),
    )


def _charge_stage(values: np.ndarray, dim: int, coords: tuple[float, ...] | None) -> dict:
    """The charge fields of a sample, keyed by ``BackgroundSample`` field name;
    raises the charge-range error."""
    flat = _flat_slices(dim)
    g = float(values[flat["g"].start])
    dg = values[flat["dg"]].copy()
    if not abs(g) < 2.0:
        raise DomainError(f"anisotropy charge g = {g!r} outside (-2, 2){_at(coords)}")
    _read_only(dg)
    return dict(
        g=g, dg=dg, h_time=math.sqrt(1.0 + 0.25 * g * g), h_space=math.sqrt(1.0 - 0.25 * g * g),
        dg_zero=not dg.any(),
    )


def sample(field: BackgroundField, x: Sequence[float]) -> BackgroundSample:
    """Evaluate the background and its derived structure at chart point ``x``.

    Raises
    ------
    DomainError
        Singular or non-Lorentzian base metric, preferred-direction norm
        outside ``(0, 1]``, or charge outside ``(-2, 2)``.
    """
    x_arr = np.asarray(x, dtype=float)
    dim = field.dim
    if x_arr.shape != (dim,):
        raise ConfigDimensionError(f"expected {dim} coordinates, got shape {x_arr.shape}")
    coords = tuple(x_arr.tolist())
    if not all(map(math.isfinite, coords)):
        raise DomainError(f"non-finite chart point x = {coords}")

    # the stages that read only constants ran when the field was built
    stages = field._constant_stages
    if len(stages) < 3:
        template, slots, closures = field._layout
        values = template.copy()
        values[slots] = [fn(coords) for fn in closures]
    base = stages.get("base") or _base_stage(values, dim, coords)
    direction = stages.get("direction") or _direction_stage(values, dim, base, coords)
    charge = stages.get("charge") or _charge_stage(values, dim, coords)
    x_arr = x_arr.copy()
    _read_only(x_arr)
    return _built(BackgroundSample, {"x": x_arr}, base, direction, charge)
