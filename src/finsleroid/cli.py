"""Command-line interface: evaluate, integrate, and cross-check the geometry.

Commands
--------
eval
    Metric stack at one (position, direction) pair, as ``key = value``
    records or a CSV row.
geodesic
    Integrate the spray equation; trajectory CSV plus a squared-norm drift
    summary. Partial output is kept, with a trailing comment, when the run
    leaves its sector.
check
    Seeded random identity battery over admissible states; worst residual per
    identity against the central tolerance table. Draws are split into a
    fixed number of shards, each with its own seeded stream, so the report
    bytes depend only on the configuration, sample count and seed.
angle
    The three independent angle routes and their agreement.
hamiltonian
    Dual chain for a covector (closed route at unit preferred-direction norm,
    Newton route below), or the stationary-action residual.
conformal
    Conformal image, conformality residual, and round trip.

Exit codes: 0 success, 1 identity breach, 2 input/configuration error,
3 runtime geometry error. All stdout records are deterministic for a fixed
(configuration, arguments, seed); wall-clock time goes to stderr only.
Non-finite vectors, zero directions, directions whose squared length is not a
normal float, non-positive step, length or sample counts are input errors
(exit 2). Commands run with numpy raising on overflow and on invalid
operations, as Python's ``**`` and ``math`` functions raise ``OverflowError``;
a command that overflows or makes a NaN from numbers so ends in a
``DomainError`` (exit 3). Python float ``*`` and ``+`` raise nothing: they
overflow to ``inf``, so a route that multiplies Python floats keeps its
operands in range itself.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import re
import sys
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .anglegeo import angle as angle_direct
from .anglegeo import _require_unit, _uar_point, angle_closed_form, scalar_product, uar_from_angles
from .background import BackgroundField, load_config, sample as sample_background
from .conformal import _pushforward_residual, _zeta, factor_space_angle, zeta_inverse
from .dual import covector_stack, hamiltonian, hamiltonian_numeric, hj_residual
from .errors import (
    ChartDomain,
    ConfigError,
    DegenerateNu,
    DegenerateQ,
    DomainError,
    FinsleroidError,
    GeometryError,
    NullCartan,
)
from .expressions import FieldExpression
from .kinematics import classify, random_admissible
from .metric import _Direction, _f2_and_momentum_rows
from .numdiff import (
    TOL_ANGLE_ROUTES,
    TOL_CARTAN_NORM,
    TOL_CONFORMAL_POWER,
    TOL_CONFORMAL_ROUNDTRIP,
    TOL_CONFORMAL_S,
    TOL_DET_RATIO,
    TOL_DUAL_CLOSED,
    TOL_DUAL_NUMERIC,
    TOL_EULER_CHAIN,
    TOL_FRAME_CONSTANT,
    TOL_FRAME_VARYING,
    TOL_INDICATRIX,
    TOL_METRIC_INVERSE,
    TOL_SPRAY_ORACLE,
    TOL_UAR_F2,
    TOL_UAR_ROUNDTRIP,
    _combine,
    _relmax,
    _stencil,
)
from .spray import ORACLE_FD, _first_step, _oracle, _probe_samples, _spray, geodesic_integrate

__all__ = ["main", "RunReport"]

#: Shard count for the check battery. Each shard draws from its own child
#: seed stream and the report names draws by shard, so this number is part of
#: the report format.
CHECK_SHARDS = 8


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _emit(key: str, value) -> None:
    if isinstance(value, (float, np.floating)):
        print(f"{key} = {_fmt(value)}")
    else:
        print(f"{key} = {value}")


def _vector_arg(raw: list[float] | None, dim: int, name: str) -> np.ndarray:
    if raw is None:
        raise ConfigError(f"{name} is required")
    if len(raw) != dim:
        raise ConfigError(
            f"{name} needs {dim} components for this configuration, got {len(raw)}"
        )
    vector = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(vector)):
        raise ConfigError(f"{name} has non-finite components {tuple(raw)}")
    return vector


def _direction_arg(raw: list[float] | None, dim: int, name: str) -> np.ndarray:
    vector = _vector_arg(raw, dim, name)
    if not np.any(vector):
        raise ConfigError(f"{name} is the zero vector; it has no direction")
    # in Python floats, where an overflow gives inf without a numpy warning
    squared = sum(component * component for component in raw)
    if not sys.float_info.min <= squared <= sys.float_info.max:
        raise ConfigError(
            f"{name} has squared length {squared!r}, outside the normal float range"
        )
    return vector


def _positive_arg(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


def _position(raw: list[float] | None, field_: BackgroundField, name: str) -> np.ndarray:
    if raw is None:
        return np.zeros(field_.dim)
    return _vector_arg(raw, field_.dim, name)


# --- eval --------------------------------------------------------------------


def _eval_records(field_: BackgroundField, args) -> tuple[list[tuple[str, object]], int]:
    here = sample_background(field_, _position(args.point, field_, "--point"))
    y = _direction_arg(args.vector, field_.dim, "--vector")
    sector = classify(here, y)
    records: list[tuple[str, object]] = [("sector", sector.tag), ("side", sector.side)]
    if not sector.supported:
        return records, 2

    d = _Direction(here, y)
    records.append(("F2", d.f2))
    for i, value in enumerate(d.y_cov):
        records.append((f"y_cov.{i}", value))
    try:
        records.append(("det_ratio", d.det_ratio))
    except (DegenerateQ, DegenerateNu):
        pass
    if here.c_is_unit:  # the indicatrix curvature is closed only at unit norm
        try:
            records.append(("indicatrix_curvature", d.curvature(None)))
        except (DegenerateQ, DegenerateNu, NullCartan):
            pass
    try:
        records.append(("CC", d.CC))
    except (DegenerateQ, DegenerateNu):
        pass
    try:
        frame = d.frame
        for p, value in enumerate(frame.R):
            records.append((f"R.{p}", value))
        for p in range(field_.dim):
            for q_idx in range(p, field_.dim):
                records.append((f"g_frame.{p}.{q_idx}", frame.g_frame[p, q_idx]))
    except DegenerateQ:
        pass
    return records, 0


def cmd_eval(args) -> int:
    field_ = load_config(args.config)
    records, code = _eval_records(field_, args)
    if args.format == "csv":
        print(",".join(key for key, _ in records))
        print(
            ",".join(
                _fmt(value) if isinstance(value, (float, np.floating)) else str(value)
                for _, value in records
            )
        )
    else:
        for key, value in records:
            _emit(key, value)
    if code != 0:
        tag = records[0][1]
        print(f"direction is {tag}; no metric stack available", file=sys.stderr)
    return code


# --- geodesic ----------------------------------------------------------------


def cmd_geodesic(args) -> int:
    field_ = load_config(args.config)
    x0 = _position(args.start, field_, "--start")
    y0 = _direction_arg(args.velocity, field_.dim, "--velocity")
    _positive_arg(args.length, "--length")
    if args.step is not None:
        _positive_arg(args.step, "--step")
    try:
        _first_step(args.length, args.method, args.step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # open the output first, so that an unwritable path fails before integrating
    with contextlib.nullcontext() if args.out is None else open(
        args.out, "w", encoding="utf-8"
    ) as handle:
        trajectory = geodesic_integrate(
            field_,
            x0,
            y0,
            args.length,
            method=args.method,
            step=args.step,
        )
        dim = field_.dim
        header = (
            "s,"
            + ",".join(f"x{i}" for i in range(dim))
            + ","
            + ",".join(f"v{i}" for i in range(dim))
            + ",F2"
        )
        lines = [header]
        for row in trajectory.samples:
            lines.append(",".join(_fmt(value) for value in row))
        if trajectory.exit_reason is not None:
            lines.append(f"# truncated: {trajectory.exit_reason}")
        text = "\n".join(lines) + "\n"

        if handle is None:
            sys.stdout.write(text)
            print(f"F2_drift = {_fmt(trajectory.F2_drift)}", file=sys.stderr)
            print(f"length = {_fmt(trajectory.length)}", file=sys.stderr)
        else:
            handle.write(text)
            _emit("F2_drift", trajectory.F2_drift)
            _emit("length", trajectory.length)
            _emit("rows", trajectory.samples.shape[0])
    if trajectory.exit_reason is not None:
        print(f"truncated: {trajectory.exit_reason}", file=sys.stderr)
        return 3
    return 0


# --- check battery -----------------------------------------------------------

#: Each identity's tolerance, and whether it is exact algebra (not limited by
#: finite-difference steps); the strict profile tightens the exact ones tenfold.
_CHECK_TOLS = {
    "euler_momentum": (TOL_EULER_CHAIN, False),
    "euler_metric": (TOL_EULER_CHAIN, False),
    "metric_inverse": (TOL_METRIC_INVERSE, True),
    "momentum_contraction": (TOL_METRIC_INVERSE, True),
    "norm_trace": (TOL_METRIC_INVERSE, True),
    "det_ratio": (TOL_DET_RATIO, True),
    "cartan_norm": (TOL_CARTAN_NORM, True),
    "indicatrix": (TOL_INDICATRIX, False),
    "frame": (TOL_FRAME_VARYING, False),
    "spray_oracle": (TOL_SPRAY_ORACLE, False),
    "dual_closed": (TOL_DUAL_CLOSED, True),
    "dual_newton": (TOL_DUAL_NUMERIC, False),
    "angle_routes": (TOL_ANGLE_ROUTES, False),
    "uar_roundtrip": (TOL_UAR_ROUNDTRIP, True),
    "uar_norm": (TOL_UAR_F2, True),
    "conformal_pushforward": (TOL_CONFORMAL_S, True),
    "conformal_power": (TOL_CONFORMAL_POWER, True),
    "conformal_roundtrip": (TOL_CONFORMAL_ROUNDTRIP, True),
}


@dataclass
class RunReport:
    """Deterministic summary of a check run (wall time stays off stdout)."""

    worst: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    worst_at: dict[str, str] = field(default_factory=dict)


def _check_shard(
    field_: BackgroundField,
    seed_seq: np.random.SeedSequence,
    shard_index: int,
    count: int,
    report: RunReport,
) -> None:
    """Run one shard's draws, recording every residual into ``report``."""
    rng = np.random.default_rng(seed_seq)
    worst, counts, worst_at = report.worst, report.counts, report.worst_at
    previous: dict[str, np.ndarray] = {}

    for draw in range(count):
        x = rng.uniform(0.0, 0.5, size=field_.dim)
        here = sample_background(field_, x)
        probes = None  # the oracle's stencil samples, shared by both directions
        for tag in ("time-future", "space-like"):
            where = f"shard {shard_index} draw {draw} {tag}"

            def record(name: str, residual: float) -> None:
                if residual > worst.get(name, -1.0):
                    worst[name] = residual
                    worst_at[name] = where
                counts[name] = counts.get(name, 0) + 1

            y = random_admissible(here, rng, tag, 1, margin=0.05)[0]
            d = _Direction(here, y)  # every identity below reads this record
            scal, f2, y_cov, g_cov, g_contra = d.scal, d.f2, d.y_cov, d.g_cov, d.g_contra

            # one difference of [F^2, y_cov] gives the momentum and metric routes
            stencil = _stencil(y, ORACLE_FD)
            euler = _combine(_f2_and_momentum_rows([here] * len(stencil), stencil), y, ORACLE_FD)
            record("euler_momentum", _relmax(0.5 * euler[0] - y_cov, y_cov))
            record("euler_metric", _relmax(euler[1:] - g_cov, g_cov))

            record(
                "metric_inverse",
                float(np.abs(g_contra @ g_cov - np.eye(field_.dim)).max()),
            )
            record("momentum_contraction", _relmax(g_cov @ y - y_cov, y_cov))
            record("norm_trace", abs(float(y @ y_cov) - f2) / abs(f2))
            closed = d.det_ratio
            numeric = float(np.linalg.det(g_cov) / np.linalg.det(here.a))
            record("det_ratio", abs(closed - numeric) / abs(closed))

            c_cov, c_contra = d.C_vectors
            record("cartan_norm", abs(float(c_cov @ c_contra) - d.CC))

            if here.c_is_unit:
                expected = -scal.eps - here.g * here.g / 4.0
                record("indicatrix", abs(d.curvature(None) - expected))

            congruence = here.frame_inv.T @ g_cov @ here.frame_inv
            record("frame", float(np.abs(d.frame.g_frame - congruence).max()))

            if probes is None:  # at first use: a probe outside the domain fails after the above
                probes = _probe_samples(field_, x)
            oracle = _oracle(field_, probes, x, y, d)
            closed_spray = _spray(d).G
            scale = max(1.0, float(np.abs(oracle).max()))
            record("spray_oracle", float(np.abs(closed_spray - oracle).max()) / scale)

            if here.c_is_unit:
                record("dual_closed", abs(hamiltonian(here, y_cov) - f2) / abs(f2))
            record("dual_newton", abs(hamiltonian_numeric(here, y_cov) - f2) / abs(f2))

            if here.c_is_unit and field_.dim == 4:
                point = _uar_point(d)
                back = uar_from_angles(here, point, tag)
                record("uar_roundtrip", _relmax(back - y, y))
                record("uar_norm", abs(f2 - scal.eps * point.z0 * point.z0) / abs(f2))
                key = f"angle:{tag}"
                y_other = previous.get(key)
                # the earlier direction was drawn at another point; here it may
                # lie in another sector or none
                if y_other is not None and classify(here, y_other).tag == tag:
                    try:
                        a_direct = angle_direct(here, y, y_other)
                        a_chart = angle_closed_form(here, y, y_other)
                        a_factor = factor_space_angle(here, y, y_other)
                    except DomainError:
                        pass  # space-like pairs may subtend no real angle
                    else:
                        spread = max(a_direct, a_chart, a_factor) - min(
                            a_direct, a_chart, a_factor
                        )
                        record("angle_routes", spread)
                previous[key] = y

            if here.c_is_unit:
                image = _zeta(d)
                record("conformal_pushforward", _pushforward_residual(d, image))
                power = abs(f2) ** scal.h
                record("conformal_power", abs(abs(image.S2) - power) / power)
                back = zeta_inverse(here, image.zeta)
                record("conformal_roundtrip", _relmax(back - y, y))


def run_check(field_: BackgroundField, samples: int, seed: int) -> RunReport:
    """Execute the check battery and assemble its deterministic report."""
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    shards = min(CHECK_SHARDS, samples)
    children = np.random.SeedSequence(seed).spawn(shards)
    per_shard = [samples // shards] * shards
    for k in range(samples % shards):
        per_shard[k] += 1

    # shard-then-draw order with a strict ">" keeps each identity's first maximum
    report = RunReport()
    for k in range(shards):
        _check_shard(field_, children[k], k, per_shard[k], report)
    return report


def _profile_tols(field_: BackgroundField, profile: str) -> dict[str, float]:
    strict = profile == "strict"
    tols = {
        name: tol * 0.1 if strict and exact else tol
        for name, (tol, exact) in _CHECK_TOLS.items()
    }
    if field_.is_constant:
        tols["frame"] = TOL_FRAME_CONSTANT
    return tols


def cmd_check(args) -> int:
    field_ = load_config(args.config)
    report = run_check(field_, args.samples, args.seed)
    tols = _profile_tols(field_, args.tol_profile)

    _emit("command", "check")
    _emit("config", args.config)
    _emit("seed", args.seed)
    _emit("samples", args.samples)
    _emit("tol_profile", args.tol_profile)

    failed_identities = []
    checks_run = checks_passed = checks_failed = 0
    for name in sorted(tols):
        n = report.counts.get(name, 0)
        if n == 0:
            _emit(f"check.{name}.status", "skipped")
            continue
        residual = report.worst[name]
        ok = residual <= tols[name]
        checks_run += n
        if ok:
            checks_passed += n
        else:
            checks_failed += n
            failed_identities.append(name)
        _emit(f"check.{name}.residual", residual)
        _emit(f"check.{name}.tol", tols[name])
        _emit(f"check.{name}.count", n)
        _emit(f"check.{name}.worst_at", report.worst_at[name])
        _emit(f"check.{name}.status", "pass" if ok else "fail")

    _emit("checks_run", checks_run)
    _emit("checks_passed", checks_passed)
    _emit("checks_failed", checks_failed)
    if report.worst:
        offender = max(report.worst, key=lambda name: report.worst[name] / tols[name])
        _emit("worst_identity", offender)
        _emit("worst_residual", report.worst[offender])
        _emit("worst_at", report.worst_at[offender])
    _emit("status", "fail" if failed_identities else "ok")
    return 1 if failed_identities else 0


# --- angle -------------------------------------------------------------------


def cmd_angle(args) -> int:
    field_ = load_config(args.config)
    here = sample_background(field_, _position(args.point, field_, "--point"))
    y1 = _direction_arg(args.y1, field_.dim, "--y1")
    y2 = _direction_arg(args.y2, field_.dim, "--y2")
    routes: dict[str, float] = {"direct": angle_direct(here, y1, y2)}
    try:
        routes["chart"] = angle_closed_form(here, y1, y2)
    except (ChartDomain, DegenerateQ):
        pass
    try:
        routes["factor"] = factor_space_angle(here, y1, y2)
    except (ChartDomain, DegenerateQ):
        pass
    for name in ("direct", "chart", "factor"):
        if name in routes:
            _emit(f"angle_{name}", routes[name])
    values = list(routes.values())
    spread = max(values) - min(values)
    _emit("route_spread", spread)
    _emit("scalar_product", scalar_product(here, y1, y2))
    if spread > TOL_ANGLE_ROUTES:
        print(
            f"angle routes disagree by {spread:.3e} (tolerance {TOL_ANGLE_ROUTES:.1e})",
            file=sys.stderr,
        )
        return 1
    return 0


# --- hamiltonian -------------------------------------------------------------


def cmd_hamiltonian(args) -> int:
    field_ = load_config(args.config)
    if args.action is not None:
        if args.mass is None:
            raise ConfigError("--action requires --mass")
        if not math.isfinite(args.mass):
            raise ConfigError(f"--mass must be finite, got {args.mass!r}")
        expression = FieldExpression.parse(args.action)
        if expression.max_var_index >= field_.dim:
            raise ConfigError(
                f"action references x{expression.max_var_index} beyond dimension {field_.dim}"
            )
        position = _position(args.point, field_, "--point")
        _emit("hj_residual", hj_residual(field_, expression, args.mass, position))
        return 0

    if args.p is None:
        raise ConfigError("hamiltonian needs either --p or --action/--mass")
    here = sample_background(field_, _position(args.point, field_, "--point"))
    p = _direction_arg(args.p, field_.dim, "--p")
    stack = covector_stack(here, p)
    _emit("dual_sector", "time-future" if stack.eps > 0 else "space-like")
    _emit("b_hat", stack.b_hat)
    _emit("q_hat", stack.q_hat)
    _emit("B_hat", stack.B_hat)
    _emit("f_hat", stack.f_hat)
    _emit("J_hat", stack.J_hat)
    if here.c_is_unit:
        h2 = hamiltonian(here, p)
        _emit("H2", h2)
        _emit("route", "closed")
        h2_newton = hamiltonian_numeric(here, p)
        _emit("H2_newton", h2_newton)
        agreement = abs(h2 - h2_newton) / max(abs(h2), 1e-300)
        _emit("route_agreement", agreement)
        if agreement > TOL_DUAL_NUMERIC:
            print(f"dual routes disagree by {agreement:.3e}", file=sys.stderr)
            return 1
    else:
        _emit("H2", hamiltonian_numeric(here, p))
        _emit("route", "newton")
    return 0


# --- conformal ---------------------------------------------------------------


def cmd_conformal(args) -> int:
    field_ = load_config(args.config)
    here = sample_background(field_, _position(args.point, field_, "--point"))
    y = _direction_arg(args.vector, field_.dim, "--vector")
    _require_unit(here, "the conformal map")
    d = _Direction(here, y)  # the image and the residual read this record
    image = _zeta(d)
    for i, value in enumerate(image.zeta):
        _emit(f"zeta.{i}", value)
    _emit("kappa", image.kappa)
    _emit("S2", image.S2)
    _emit("p", image.p)
    failed = False
    try:
        s_residual = _pushforward_residual(d, image)
        _emit("s_residual", s_residual)
        if s_residual > TOL_CONFORMAL_S:
            failed = True
    except DegenerateQ:
        pass
    back = zeta_inverse(here, image.zeta)
    roundtrip = _relmax(back - y, y)
    _emit("roundtrip_residual", roundtrip)
    if roundtrip > TOL_CONFORMAL_ROUNDTRIP:
        failed = True
    if failed:
        print("conformal residuals exceed tolerance", file=sys.stderr)
        return 1
    return 0


# --- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads ``-1e-3``, ``-inf`` and ``-nan`` as
    values, as it reads ``-0.001``; its subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # no option of this CLI starts with "-" and a digit, ".digit", "inf" or "nan"
        self._negative_number_matcher = re.compile(r"-(?:\d|\.\d|inf|nan).*", re.IGNORECASE)


@cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="finsleroid",
        description="Spatial-anisotropic metric stack: evaluation, geodesics, "
        "duality, angles, conformal maps, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="background configuration file")

    def add_point(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--point", type=float, nargs="+", default=None, help="position (default origin)"
        )

    p_eval = sub.add_parser("eval", help="metric stack at one direction")
    add_config(p_eval)
    add_point(p_eval)
    p_eval.add_argument("--vector", type=float, nargs="+", required=True, help="direction")
    p_eval.add_argument("--format", choices=("records", "csv"), default="records")
    p_eval.set_defaults(fn=cmd_eval)

    p_geo = sub.add_parser("geodesic", help="integrate the spray equation")
    add_config(p_geo)
    p_geo.add_argument(
        "--start", type=float, nargs="+", default=None, help="start position (default origin)"
    )
    p_geo.add_argument(
        "--velocity", type=float, nargs="+", required=True, help="initial velocity"
    )
    p_geo.add_argument("--length", type=float, default=1.0, help="parameter length")
    p_geo.add_argument("--step", type=float, default=None, help="fixed step override")
    p_geo.add_argument("--method", choices=("rk4", "rk45"), default="rk4")
    p_geo.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_geo.set_defaults(fn=cmd_geodesic)

    p_check = sub.add_parser("check", help="seeded random identity battery")
    add_config(p_check)
    p_check.add_argument("--samples", type=int, default=25, help="positions per battery")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol-profile", choices=("strict", "default"), default="default")
    p_check.set_defaults(fn=cmd_check)

    p_angle = sub.add_parser("angle", help="three-route anisotropic angle")
    add_config(p_angle)
    add_point(p_angle)
    p_angle.add_argument("--y1", type=float, nargs="+", required=True)
    p_angle.add_argument("--y2", type=float, nargs="+", required=True)
    p_angle.set_defaults(fn=cmd_angle)

    p_ham = sub.add_parser("hamiltonian", help="dual chain for a covector")
    add_config(p_ham)
    add_point(p_ham)
    p_ham.add_argument("--p", type=float, nargs="+", default=None, help="covector")
    p_ham.add_argument("--action", default=None, help="action expression S(x)")
    p_ham.add_argument("--mass", type=float, default=None)
    p_ham.set_defaults(fn=cmd_hamiltonian)

    p_conf = sub.add_parser("conformal", help="conformal image and residuals")
    add_config(p_conf)
    add_point(p_conf)
    p_conf.add_argument("--vector", type=float, nargs="+", required=True)
    p_conf.set_defaults(fn=cmd_conformal)

    return parser


def _run(args) -> int:
    """Run the subcommand; a float overflow, a division by a quantity that
    underflowed to zero, or an invalid operation (a NaN made from numbers) is
    a geometry error of its input."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except OverflowError as exc:
        raise DomainError(f"floating-point overflow: {exc.args[-1]}") from exc
    except ZeroDivisionError as exc:
        raise DomainError(str(exc)) from exc
    except FloatingPointError as exc:
        raise DomainError(f"floating-point {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    code = 0
    try:
        code = _run(args)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        code = 3
    except FinsleroidError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    finally:
        print(f"wall_time_s = {time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
