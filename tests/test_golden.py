"""Golden CLI outputs: stdout bytes, stderr bytes and exit codes of stored runs.

``data/golden/cases.json`` maps each case name to its argument list and exit
code, and ``data/golden/<name>.out`` holds its stdout. Where
``data/golden/<name>.err`` exists it holds the stderr, less the
``wall_time_s`` line that every run prints. The cases cover the
``check`` battery on all five shipped configurations at two seeds, rk4 and
rk45 geodesics on all five (truncated runs included), so that
``background.sample`` reuses all, some or none of its stages, geodesics
whose exact zero components (of both signs) and space-like velocities reach
the terms of the spray that vanish, ``eval``,
``conformal`` and ``angle`` records, and ``hamiltonian`` on the closed and Newton routes, the
dual gap and the action residual. The ``angle`` cases include time-like,
space-like, positively parallel and axis pairs on ``desk``, a mixed-sector pair,
a pair whose tiny time-like direction has an image of subnormal seed norm,
huge space-like and time-like pairs whose pair products and image norm would
overflow, a direction whose transverse part is null (the chart route stands
aside), a metric so large that the pair product overflows, and the refusal of ``angle`` and ``conformal`` below unit preferred-direction
norm; ``conformal`` at a huge point of ``desk_curved_a`` inverts an image
nearly orthogonal to ``b``; one ``check`` case runs the strict tolerance profile. The ``eval_err_*`` cases cover the error paths of
loading and sampling: constants rejected at load, a constant that cannot be
evaluated, points where the base metric or the preferred-direction norm
fails, a frame metric that overflows, and a metric stack that overflows
before it can give a NaN curvature (their configurations are
``data/golden/err_*.cfg``). The ``*_err_underflow``, ``eval_err_subnormal``
and ``eval_err_huge_vector`` cases give directions whose squared length
leaves the normal float range; ``eval_err_tiny_vector`` gives one whose squared
length is normal but whose frame metric divides by a product that underflows
to zero; the ``geodesic_err_*_short_length`` cases give a length whose
default rk4 or rk45 step underflows to zero, and the
``geodesic_err_rk4_subnormal_*`` cases an rk4 step, default or requested,
whose sixth is below the normal floats. A refactor must
leave every byte as it is; a case is rewritten only for an intended change of
output, and the change log says so.

The digest sweep pins many more runs than are worth storing: one sha256 over
the outputs of 60 ``check`` runs and 900 seeded ``angle`` and ``conformal``
runs. The geodesic digest pins 36 seeded trajectories, truncated ones
included, bit for bit. The oracle digest pins the bytes of the two
finite-difference routes of the ``check`` battery, the spray oracle and the
Euler Jacobian, on every configuration and in both sectors. The curvature
digest pins the cubic form and the indicatrix curvature, or the error each
raises, at seeded directions of many magnitudes and for every kind of
tangent-plane seed. The dual digest pins ``hamiltonian_numeric``, or the error
it raises, at seeded covectors of magnitudes from 1e-300 to 1e300. The
sector digest pins the ``classify`` tags of seeded directions, many of them
built to sit at set relative offsets from a cone wall or the augmented null
shell, in either time orientation. ``python tests/test_golden.py`` prints all
six.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from finsleroid import cli
from finsleroid.background import load_config, sample
from finsleroid.dual import hamiltonian_numeric
from finsleroid.errors import FinsleroidError
from finsleroid.kinematics import classify, random_admissible
from finsleroid.metric import (
    cartan_tensor,
    covariant_momentum,
    indicatrix_curvature,
    metric_function,
)
from finsleroid.numdiff import fd_jacobian
from finsleroid.spray import ORACLE_FD, geodesic_integrate, spray_oracle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_match(name, monkeypatch, capsys):
    case = CASES[name]
    # the cases name their configurations relative to the root, and `check`
    # prints that path
    monkeypatch.chdir(ROOT)
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    err_path = GOLDEN / f"{name}.err"
    if err_path.exists():
        stderr = "".join(
            line for line in captured.err.splitlines(keepends=True)
            if not line.startswith("wall_time_s = ")
        )
        assert stderr.encode("utf-8") == err_path.read_bytes()


# --- digest sweep -------------------------------------------------------------

SWEEP_CONFIGS = ("desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g")
SWEEP_DIGEST = "3c8da3d3f317d96cfe1a886ce0cf3578c921b04bfecac596e7b398cde6787bc7"


def _plain(values) -> list[str]:
    # fixed notation: argparse would read "-1e-05" as an option
    return [f"{float(v):.15f}" for v in values]


def sweep_runs() -> list[list[str]]:
    """Argument lists of the digest sweep: ``check --samples 9`` on every
    shipped configuration at seeds 0-11, then 90 seeded ``angle`` pairs and
    ``conformal`` directions per configuration. The second direction of a
    pair is a perturbation of the first, so that both sectors, mixed pairs and
    the sub-unit-norm refusal all occur."""
    runs = []
    for name in SWEEP_CONFIGS:
        for seed in range(12):
            runs.append(
                ["check", "--config", f"configs/{name}.cfg", "--samples", "9", "--seed", str(seed)]
            )
    rng = np.random.default_rng(20081)
    for name in SWEEP_CONFIGS:
        config = ["--config", f"configs/{name}.cfg"]
        for _ in range(90):
            point = _plain(rng.uniform(0.0, 0.5, 4))
            y1 = rng.standard_normal(4)
            y2 = y1 + 0.6 * rng.standard_normal(4)
            runs.append(
                ["angle", *config, "--point", *point, "--y1", *_plain(y1), "--y2", *_plain(y2)]
            )
            runs.append(["conformal", *config, "--point", *point, "--vector", *_plain(y1)])
    return runs


def sweep_digest(runs: list[list[str]]) -> str:
    """sha256 over (argv, exit code, stdout, stderr less ``wall_time_s``,
    warnings raised) of each run, in order; run from the repository root."""
    digest = hashlib.sha256()
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        stderr = "".join(
            line for line in err.getvalue().splitlines(keepends=True)
            if not line.startswith("wall_time_s = ")
        )
        raised = [f"{w.category.__name__}: {w.message}" for w in caught]
        record = [argv, code, out.getvalue(), stderr, raised]
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_sweep_digest(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert sweep_digest(sweep_runs()) == SWEEP_DIGEST


# --- geodesic digest ----------------------------------------------------------

GEODESIC_CONFIGS = ("desk", "desk_shifted_b", "desk_variable_g")
GEODESIC_DIGEST = "bb63a04cdce073ade189ca9fb1973a6c88895531863d6588716cb5bc7d19e548"


def geodesic_starts() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """``(config, x0, y0)`` of the geodesic digest: three seeded starts per
    configuration and sector. The third start sits near ``x1 = 0`` with a
    velocity that decreases ``x1``, so on ``desk_shifted_b`` the run leaves
    the region where the preferred direction's norm stays at or below one."""
    rng = np.random.default_rng(17017)
    starts = []
    for name in GEODESIC_CONFIGS:
        field = load_config(ROOT / "configs" / f"{name}.cfg")
        for tag in ("time-future", "space-like"):
            for k in range(3):
                x0 = rng.uniform(0.0, 0.5, 4)
                if k == 2:
                    x0[1] = rng.uniform(0.0, 0.02)
                y0 = random_admissible(sample(field, x0), rng, tag, 1)[0]
                if k == 2:
                    y0[1] = -abs(y0[1])
                starts.append((name, x0, y0))
    return starts


def geodesic_digest(starts) -> tuple[str, int]:
    """sha256 over (config, method, samples bytes, ``F2_drift``, exit reason)
    of an rk4 (step 1/64) and an rk45 run over length 0.5 from each start,
    and the number of runs that were truncated."""
    digest = hashlib.sha256()
    truncated = 0
    fields = {name: load_config(ROOT / "configs" / f"{name}.cfg") for name in GEODESIC_CONFIGS}
    for name, x0, y0 in starts:
        for method, step in (("rk4", 1.0 / 64.0), ("rk45", None)):
            traj = geodesic_integrate(fields[name], x0, y0, 0.5, method=method, step=step)
            truncated += traj.exit_reason is not None
            digest.update(f"{name} {method}\n".encode("utf-8"))
            digest.update(traj.samples.tobytes())
            digest.update(f"{traj.F2_drift.hex()} {traj.exit_reason}\n".encode("utf-8"))
    return digest.hexdigest(), truncated


def test_geodesic_digest():
    digest, truncated = geodesic_digest(geodesic_starts())
    assert truncated > 0
    assert digest == GEODESIC_DIGEST


# --- oracle digest ------------------------------------------------------------

ORACLE_DIGEST = "902663c56ed443660f01827619a7531a1ea9bb4d1d5376e52886ce1d69667d5d"


def oracle_digest() -> str:
    """sha256 over the bytes of ``spray_oracle`` and of the Euler Jacobian of
    ``[F^2, y_cov]`` (``fd_jacobian`` of a point function of the direction),
    both at ``ORACLE_FD``, at ten seeded points and directions per
    configuration and sector."""
    rng = np.random.default_rng(18018)
    digest = hashlib.sha256()
    for name in SWEEP_CONFIGS:
        field = load_config(ROOT / "configs" / f"{name}.cfg")
        for tag in ("time-future", "space-like"):
            for _ in range(10):
                x = rng.uniform(0.0, 0.5, 4)
                here = sample(field, x)
                y = random_admissible(here, rng, tag, 1, margin=0.05)[0]

                def stacked(yy, here=here):
                    return np.concatenate(
                        [[metric_function(here, yy)], covariant_momentum(here, yy)]
                    )

                digest.update(f"{name} {tag}\n".encode("utf-8"))
                digest.update(spray_oracle(field, x, y).tobytes())
                digest.update(fd_jacobian(stacked, y, ORACLE_FD).tobytes())
    return digest.hexdigest()


def test_oracle_digest():
    assert oracle_digest() == ORACLE_DIGEST


# --- curvature digest ---------------------------------------------------------

CURVATURE_DIGEST = "ee17af882505f0f34f179af3d4ab6f444e16e03a1ad41ca530ed10a8c5a81934"
CURVATURE_SCALES = (1e-160, 1e-150, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e150, 1e160)
CURVATURE_SEEDS = (
    None,
    (0, 2),
    (3, 1),
    ((0.3, 1.0, 0.2, 0.0), (0.0, 0.1, 1.0, 0.4)),
    ((1.0, -0.5, 0.25, 2.0), (-0.7, 0.0, 0.3, 1.1)),
    (1, 1),  # one plane vector twice: no nondegenerate pair
)


def _outcome(fn) -> bytes:
    try:
        return fn()
    except (ArithmeticError, FinsleroidError) as exc:
        return f"{type(exc).__name__}: {exc}".encode("utf-8")


def curvature_digest() -> str:
    """sha256 over the bytes of ``cartan_tensor`` and the ``repr`` of
    ``indicatrix_curvature`` for every seed in ``CURVATURE_SEEDS``, or the
    type and message of the error a call raises, under the CLI's ``errstate``,
    at three seeded points and directions per configuration and sector, each
    direction at every scale in ``CURVATURE_SCALES``."""
    rng = np.random.default_rng(19019)
    digest = hashlib.sha256()
    with np.errstate(over="raise", invalid="raise"):
        for name in SWEEP_CONFIGS:
            field = load_config(ROOT / "configs" / f"{name}.cfg")
            for tag in ("time-future", "space-like"):
                for _ in range(3):
                    here = sample(field, rng.uniform(0.0, 0.5, 4))
                    y0 = random_admissible(here, rng, tag, 1, margin=0.05)[0]
                    for scale in CURVATURE_SCALES:
                        y = y0 * scale
                        digest.update(f"{name} {tag} {scale!r}\n".encode("utf-8"))
                        digest.update(_outcome(lambda: cartan_tensor(here, y).tobytes()))
                        for seeds in CURVATURE_SEEDS:
                            digest.update(b"\n" + _outcome(
                                lambda: repr(indicatrix_curvature(here, y, seeds=seeds)).encode()
                            ))
    return digest.hexdigest()


def test_curvature_digest():
    assert curvature_digest() == CURVATURE_DIGEST


# --- dual digest --------------------------------------------------------------

DUAL_DIGEST = "6a58e94156a13c158f2e658f39101b50d13cc504b0ce445c72e255b5e254194a"
DUAL_SCALES = (1e-300, 1e-200, 1e-100, 1e-8, 1e-3, 1.0, 1e3, 1e8, 1e100, 1e150, 1e300)


def dual_digest() -> str:
    """sha256 over the ``repr`` of ``hamiltonian_numeric``, or the type and
    message of the error it raises, under the CLI's ``errstate``, at eight
    seeded points per configuration: the momenta of two directions of each
    sector and three normal covectors, each at every scale in ``DUAL_SCALES``."""
    rng = np.random.default_rng(23023)
    digest = hashlib.sha256()
    with np.errstate(over="raise", invalid="raise"):
        for name in SWEEP_CONFIGS:
            field = load_config(ROOT / "configs" / f"{name}.cfg")
            for _ in range(8):
                here = sample(field, rng.uniform(0.0, 0.5, 4))
                ys = [
                    *random_admissible(here, rng, "time-future", 2, margin=0.05),
                    *random_admissible(here, rng, "space-like", 2, margin=0.05),
                ]
                covectors = [covariant_momentum(here, y) for y in ys]
                covectors += list(rng.standard_normal((3, 4)))
                for p in covectors:
                    for scale in DUAL_SCALES:
                        digest.update(_outcome(
                            lambda: repr(hamiltonian_numeric(here, p * scale)).encode()
                        ) + b"\n")
    return digest.hexdigest()


def test_dual_digest():
    assert dual_digest() == DUAL_DIGEST


# --- sector digest ------------------------------------------------------------

SECTOR_DIGEST = "4a1b8532231a019a26932ed8f7de8568b704a1709693968c14dcfa2707db0bf1"
#: Relative offsets of the built directions from the wall they are built at;
#: they straddle the classification tolerances of ``kinematics``.
SECTOR_OFFSETS = (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8, -1e-8, 1e-6, -1e-6)
SECTOR_SCALES = (1.0, 2.0**-40, 1e7)


def sector_directions(here, rng) -> list[np.ndarray]:
    """Seeded directions at ``here``: 40 Gaussian ones, then ones built from
    adapted-frame components ``R`` (so ``b = c R[-1]`` and ``gamma = R[0]^2 -
    |R[1:-1]|^2 - (1 - c^2) R[-1]^2``) with either sign of ``R[0]``, the time
    orientation: at ``gamma = 1`` with ``b`` at each ``SECTOR_OFFSETS`` from
    the wall slopes ``g_plus`` and ``g_minus``, and at ``gamma`` equal to each
    offset with ``b`` negative, positive or at an offset from zero. Each built
    direction is taken at every scale in ``SECTOR_SCALES``."""
    dim, c = here.dim, here.c
    g_plus, g_minus = -0.5 * here.g + here.h_time, -0.5 * here.g - here.h_time
    targets = [  # (gamma, b)
        (1.0, slope * (1.0 + off)) for slope in (g_plus, g_minus) for off in SECTOR_OFFSETS
    ]
    targets += [(off, b) for off in SECTOR_OFFSETS for b in (-0.5, 0.5, off)]
    directions = list(rng.standard_normal((40, dim)))
    for gamma, b in targets:
        transverse = rng.standard_normal(dim - 2)
        transverse *= rng.uniform(0.0, 1.0) / np.sqrt(transverse @ transverse)
        last = b / c
        r0 = np.sqrt(gamma + transverse @ transverse + (1.0 - c * c) * last * last)
        for sign in (1.0, -1.0):
            components = np.concatenate([[sign * r0], transverse, [last]])
            y = here.frame_inv @ components
            directions += [scale * y for scale in SECTOR_SCALES]
    return directions


def sector_digest() -> str:
    """sha256 over the bytes of every direction of ``sector_directions`` and
    the tag and side ``classify`` gives it, at three seeded points per
    configuration."""
    rng = np.random.default_rng(24024)
    digest = hashlib.sha256()
    for name in SWEEP_CONFIGS:
        field = load_config(ROOT / "configs" / f"{name}.cfg")
        for _ in range(3):
            here = sample(field, rng.uniform(0.0, 0.5, 4))
            for y in sector_directions(here, rng):
                sector = classify(here, y)
                digest.update(y.tobytes() + f" {sector.tag} {sector.side}\n".encode("utf-8"))
    return digest.hexdigest()


def test_sector_digest():
    assert sector_digest() == SECTOR_DIGEST


if __name__ == "__main__":
    # print the digests to pin: python tests/test_golden.py (from the root)
    print(sweep_digest(sweep_runs()))
    print(*geodesic_digest(geodesic_starts()))
    print(oracle_digest())
    print(curvature_digest())
    print(dual_digest())
    print(sector_digest())
