"""The three workloads: inputs made from the seed, the timed calls, the checks.

A workload runs in rounds. ``inputs(r)`` makes round ``r`` from the seed
alone (outside the timed section). ``run(inputs, timed)`` makes the calls
into the package in a closed loop, each through ``timed(fn, *args)``, which
times it; every round makes the same sequence of timed calls, so call ``k``
of one round is comparable with call ``k`` of another. ``run`` returns one
result per operation, ``units`` says how many draws, geodesics or
directions a round holds, and ``check(inputs, results)`` returns the
problems found. An operation that raises a geometry error, exits 3 or
truncates counts as failed.

Inputs are generated here with the benchmark's own scalar chain
(``checks.sector_margin``), never with the package's samplers, so the
program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

from finsleroid import background, cli, metric, spray
from finsleroid.errors import GeometryError

import checks


def _directions(rng: np.random.Generator, b_cov, g, eps: int, count: int, margin: float, ok=None):
    """``count`` unit directions at least ``margin`` inside the ``eps`` cone."""
    out = []
    while len(out) < count:
        y = rng.standard_normal(4)
        y /= np.linalg.norm(y)
        if checks.sector_margin(b_cov, g, y, eps) > margin and (ok is None or ok(y)):
            out.append(y)
    return np.array(out)


class Check:
    """``finsleroid check --config configs/desk_variable_g.cfg --samples 9
    --seed S`` through ``cli.main``, stdout captured. A round is two
    battery seeds, the same two every round, so that every repeat of a seed
    can be compared byte for byte with its first report. Unit: one draw (a
    position with one time-future and one space-like direction)."""

    name = "check"
    # The smallest battery that runs all 18 identities: of the eight shards
    # only the first gets two draws, and so an angle pair. Short batteries
    # give the best-of timing more repeats to find the host's quiet moments.
    SAMPLES = 9
    SEEDS = 2

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([0, seed])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=self.SEEDS)]
        self.units = self.SEEDS * self.SAMPLES
        self.first: dict[int, str] = {}

    def inputs(self, r: int) -> list[int]:
        return self.seeds

    def _battery(self, seed: int) -> tuple[int, str]:
        out = io.StringIO()
        argv = ["check", "--config", "configs/desk_variable_g.cfg"]
        argv += ["--samples", str(self.SAMPLES), "--seed", str(seed)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self, seeds: list[int], timed) -> list[tuple[int, str]]:
        return [timed(self._battery, s) for s in seeds]

    def failed(self, result) -> bool:
        return result[0] == 3

    def check(self, seeds, results) -> list[str]:
        problems = []
        for s, (code, stdout) in zip(seeds, results):
            if code == 3:
                continue
            problems += [f"seed {s}: {p}" for p in checks.check_battery(code, stdout, self.SAMPLES)]
            if self.first.setdefault(s, stdout) != stdout:
                problems.append(f"seed {s}: report differs from the first report of this seed")
        return problems


class Geodesic:
    """Twelve geodesics a round through ``spray.geodesic_integrate``: each
    of ``desk``, ``desk_shifted_b`` and ``desk_variable_g`` with rk4 and
    rk45 in both sectors, from a new start point every time. Unit: one
    geodesic of parameter length 0.5."""

    name = "geodesic"
    configs = ("desk", "desk_shifted_b", "desk_variable_g")
    LENGTH = 0.5
    RK4_STEP = 1.0 / 64.0
    # Start with x1 in [0.3, 0.6] and |v1| <= 0.3 so x1 stays positive,
    # where desk_shifted_b is valid; the margin keeps the velocity inside
    # its cone while the spray turns it.
    MARGIN = 0.3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fields = {c: background.load_config(f"configs/{c}.cfg") for c in self.configs}
        self.units = len(self.configs) * 4

    def inputs(self, r: int):
        rng = np.random.default_rng([1, self.seed, r])
        out = []
        for config in self.configs:
            for method in ("rk4", "rk45"):
                for eps in (1, -1):
                    x0 = rng.uniform(0.0, 0.5, size=4)
                    x0[1] = rng.uniform(0.3, 0.6)
                    b_cov, g = checks.background(config, x0)
                    y0 = _directions(
                        rng, b_cov, g, eps, 1, self.MARGIN, ok=lambda y: abs(y[1]) <= 0.3
                    )[0]
                    out.append((config, method, eps, x0, y0))
        return out

    def _integrate(self, config: str, method: str, x0: np.ndarray, y0: np.ndarray):
        step = self.RK4_STEP if method == "rk4" else None
        try:
            return spray.geodesic_integrate(
                self.fields[config], x0, y0, self.LENGTH, method=method, step=step
            )
        except GeometryError:
            return None

    def run(self, inputs, timed):
        return [timed(self._integrate, c, m, x0, y0) for c, m, _, x0, y0 in inputs]

    def failed(self, result) -> bool:
        return result is None or result.exit_reason is not None

    def check(self, inputs, results) -> list[str]:
        problems = []
        for (config, method, eps, _, _), trajectory in zip(inputs, results):
            if self.failed(trajectory):
                continue
            problems += [
                f"{config} {method} eps={eps}: {p}"
                for p in checks.check_geodesic(config, eps, self.LENGTH, trajectory.samples)
            ]
        return problems


class Sweep:
    """The full ``eval`` stack (``metric_bundle``, ``indicatrix_curvature``,
    ``frame_components``) for 32 time-future and 32 space-like directions at
    each of two points of ``desk``; one ``sample`` per point. Unit: one
    direction."""

    name = "sweep"
    POINTS = 2
    PER_SECTOR = 32
    MARGIN = 0.1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.field = background.load_config("configs/desk.cfg")
        self.units = self.POINTS * 2 * self.PER_SECTOR

    def inputs(self, r: int):
        rng = np.random.default_rng([2, self.seed, r])
        out = []
        for _ in range(self.POINTS):
            x = rng.uniform(0.0, 0.5, size=4)
            b_cov, g = checks.background("desk", x)
            ys = [
                (eps, y)
                for eps in (1, -1)
                for y in _directions(rng, b_cov, g, eps, self.PER_SECTOR, self.MARGIN)
            ]
            out.append((x, ys))
        return out

    @staticmethod
    def _stack(here, y: np.ndarray):
        try:
            return (
                metric.metric_bundle(here, y),
                metric.indicatrix_curvature(here, y),
                metric.frame_components(here, y),
            )
        except GeometryError:
            return None

    def run(self, inputs, timed):
        results = []
        for x, ys in inputs:
            here = timed(background.sample, self.field, x)
            results += [timed(self._stack, here, y) for _, y in ys]
        return results

    def failed(self, result) -> bool:
        return result is None

    def check(self, inputs, results) -> list[str]:
        problems = []
        flat = [(x, eps, y) for x, ys in inputs for eps, y in ys]
        for (x, eps, y), result in zip(flat, results):
            if result is None:
                continue
            bundle, curvature, frame = result
            b_cov, g = checks.background("desk", x)
            problems += checks.check_direction(
                y,
                eps,
                float(g),
                b_cov,
                F2=bundle.F2,
                y_cov=bundle.y_cov,
                g_cov=bundle.g_cov,
                g_contra=bundle.g_contra,
                det_ratio=bundle.det_ratio,
                curvature=curvature,
                R=frame.R,
                g_frame=frame.g_frame,
            )
        return problems


WORKLOADS = {w.name: w for w in (Check, Geodesic, Sweep)}
