"""Self-test of the benchmark's correctness checks: ``python3 bench/selftest.py``
from the root of a checkout.

Each check must accept a real program output and reject the same output
perturbed (F2 off by 1e-6, a bent line, a dropped identity, ...) with its
own message, not only through some other check; a check that accepts both
is vacuous. Exits 1 and names the checks that failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

import numpy as np  # noqa: E402

from finsleroid import background, cli, metric, spray  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(name: str, problems: list[str], *messages: str) -> None:
    """No problem when no ``messages`` are given; else each message must be
    part of some problem reported."""
    if not messages and problems:
        failures.append(f"{name}: rejected ({problems[:2]})")
    for message in messages:
        if not any(message in problem for problem in problems):
            failures.append(f"{name}: no {message!r} in {problems[:3]}")


def sweep_cases() -> None:
    field = background.load_config("configs/desk.cfg")
    x = np.array([0.1, 0.2, 0.3, 0.4])
    here = background.sample(field, x)
    b_cov, g = checks.background("desk", x)
    for eps, y in ((1, [0.9, 0.2, 0.1, 0.1]), (-1, [0.2, 0.6, 0.5, -0.3])):
        y = np.array(y) / np.linalg.norm(y)
        bundle = metric.metric_bundle(here, y)
        frame = metric.frame_components(here, y)
        good = dict(
            F2=bundle.F2,
            y_cov=bundle.y_cov,
            g_cov=bundle.g_cov,
            g_contra=bundle.g_contra,
            det_ratio=bundle.det_ratio,
            curvature=metric.indicatrix_curvature(here, y),
            R=frame.R,
            g_frame=frame.g_frame,
        )
        expect(f"sweep eps={eps} real output", checks.check_direction(y, eps, float(g), b_cov, **good))
        bump = np.zeros((4, 4))
        bump[0, 1] = bump[1, 0] = 1e-6
        perturbed = {
            "F2 off by 1e-6": ({"F2": good["F2"] * (1 + 1e-6)}, "!= chain", "y . y_cov = F2"),
            "momentum off by 1e-6": ({"y_cov": good["y_cov"] + 1e-6}, "momentum differs", "g y = y_cov"),
            "metric off by 1e-6": ({"g_cov": good["g_cov"] + bump}, "g y = y_cov"),
            "inverse metric off by 1e-6": ({"g_contra": good["g_contra"] + bump}, "inverse metric"),
            "determinant ratio off by 1e-6": (
                {"det_ratio": good["det_ratio"] * (1 + 1e-6)},
                "determinant ratio",
            ),
            "curvature off by 1e-5": ({"curvature": good["curvature"] + 1e-5}, "indicatrix curvature"),
            "frame components off by 1e-6": ({"R": good["R"] + 1e-6}, "frame components"),
            "frame metric off by 1e-6": ({"g_frame": good["g_frame"] + bump}, "frame metric"),
        }
        for what, (change, *messages) in perturbed.items():
            outputs = {**good, **change}
            problems = checks.check_direction(y, eps, float(g), b_cov, **outputs)
            expect(f"sweep eps={eps} {what}", problems, *messages)


def geodesic_cases() -> None:
    length = 0.5
    starts = {
        "desk": (np.array([0.1, 0.4, 0.2, 0.3]), (1, [0.9, 0.1, 0.2, 0.2])),
        "desk_variable_g": (np.array([0.1, 0.4, 0.2, 0.3]), (-1, [0.2, 0.1, 0.8, -0.4])),
    }
    for config, (x0, (eps, y0)) in starts.items():
        field = background.load_config(f"configs/{config}.cfg")
        y0 = np.array(y0) / np.linalg.norm(y0)
        rows = spray.geodesic_integrate(field, x0, y0, length, method="rk4", step=1 / 64).samples
        expect(f"geodesic {config} real output", checks.check_geodesic(config, eps, length, rows))
        s = rows[:, :1]

        def consistent(bad: np.ndarray) -> np.ndarray:
            """The same rows with the F2 column recomputed, so that only
            the drift and conservation checks can object."""
            b_cov, g = checks.background(config, bad[:, 1:5])
            bad[:, 9] = checks.chain(b_cov, g, bad[:, 5:9], eps)[0]
            return bad

        cases = {
            "F2 column off by 1e-6": (rows + np.eye(10)[9] * 1e-6 * abs(rows[0, 9]), "F2 column"),
            "F2 drift": (consistent(rows * np.where(np.arange(10) >= 5, 1 + 1e-5 * s, 1.0)), "F2 drift"),
            "cyclic momentum drift": (consistent(rows + np.eye(10)[8] * 1e-5 * s), "cyclic momentum"),
            "truncated": (rows[:-1], "trajectory ends"),
            "repeated node": (np.insert(rows, 1, rows[1], axis=0), "not increasing"),
        }
        if config == "desk":
            cases["bent line"] = (rows + np.eye(10)[2] * 1e-6 * s**2, "leaves its line")
        for what, (bad, message) in cases.items():
            expect(f"geodesic {config} {what}", checks.check_geodesic(config, eps, length, bad), message)


def battery_cases() -> None:
    samples = workloads.Check.SAMPLES
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(
            ["check", "--config", "configs/desk_variable_g.cfg", "--samples", str(samples), "--seed", "1"]
        )
    report = out.getvalue()
    expect("battery real output", checks.check_battery(code, report, samples))
    lines = report.splitlines(keepends=True)
    records = checks.parse_records(report)
    cases = {
        "exit code 1": (1, report, "exit code"),
        "status fail": (code, report.replace("status = ok", "status = fail"), "status = fail"),
        "checks failed": (code, report.replace("checks_failed = 0", "checks_failed = 2"), "checks_failed"),
        "dropped identity": (
            code,
            "".join(l for l in lines if not l.startswith("check.spray_oracle.")),
            "spray_oracle: status None",
        ),
        "skipped identity": (
            code,
            "".join(l for l in lines if not l.startswith("check.dual_closed."))
            + "check.dual_closed.status = skipped\n",
            "dual_closed: status skipped",
        ),
        "short count": (
            code,
            report.replace(f"check.frame.count = {2 * samples}", f"check.frame.count = {2 * samples - 1}"),
            f"frame: {2 * samples - 1} directions",
        ),
        "no angle pair": (
            code,
            report.replace(
                f"check.angle_routes.count = {records['check.angle_routes.count']}",
                "check.angle_routes.count = 0",
            ),
            "angle_routes: no pair",
        ),
        "residual above tolerance": (
            code,
            report.replace(
                f"check.det_ratio.residual = {records['check.det_ratio.residual']}",
                "check.det_ratio.residual = 1",
            ),
            "det_ratio: residual",
        ),
    }
    for what, (bad_code, bad_report, message) in cases.items():
        expect(f"battery {what}", checks.check_battery(bad_code, bad_report, samples), message)

    workload = workloads.Check(0)
    seed = workload.seeds[0]
    expect("battery first report", workload.check([seed], [(0, report)]))
    expect("battery same report again", workload.check([seed], [(0, report)]))
    changed = report.replace("seed = 1", "seed = 1 ")
    expect("battery report bytes changed", workload.check([seed], [(0, changed)]), "differs from the first")


def main() -> int:
    sweep_cases()
    geodesic_cases()
    battery_cases()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "fail" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
