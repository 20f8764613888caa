"""Benchmark for finsleroid: ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1``, from the root of a source checkout.

Workloads (see ``workloads.py``): ``check`` (the identity battery through
``cli.main``), ``geodesic`` (rk4/rk45 trajectories on three backgrounds)
and ``sweep`` (the full metric stack over many directions at few points).

The run measures in a fresh, single-threaded interpreter (BLAS pinned to
one thread, one battery worker) and a closed loop: rounds of calls are made
until ``S`` seconds have passed, each after the last returned. Every output
is checked (``checks.py``) outside the timed section. With ``--trace 0``
the last stdout line carries the end-to-end metrics: ``ops_per_s`` (draws,
geodesics or directions per second, over a round made of the fastest
repeat of each of its calls), ``peak_rss_mib`` of the measuring process,
and ``setup_s``, the median over seven fresh interpreters of importing the
package and loading the workload's configurations. With ``--trace 1`` the same inputs run with
spans around every public function (``tracer.py``) and the line carries
the per-layer metrics; the spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
#: The configurations each workload loads; set-up time covers loading them.
CONFIGS = {
    "check": ("desk_variable_g",),
    "geodesic": ("desk", "desk_shifted_b", "desk_variable_g"),
    "sweep": ("desk",),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["FINSLEROID_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(role: str, args: argparse.Namespace, timeout: float) -> list[str]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--role",
        role,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return done.stdout.splitlines()


def import_package():
    """Import ``finsleroid`` and make sure it is this checkout's."""
    import finsleroid

    source = Path(finsleroid.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"finsleroid was imported from {source}, not from {ROOT / 'src'}")
    return finsleroid


def role_setup(args: argparse.Namespace) -> None:
    started = time.perf_counter()
    finsleroid = import_package()
    for config in CONFIGS[args.workload]:
        finsleroid.load_config(f"configs/{config}.cfg")
    print(repr(time.perf_counter() - started))


def role_worker(args: argparse.Namespace) -> None:
    import resource

    import_package()
    import numpy as np

    import tracer
    import workloads

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)

    durations, problems = [], []
    attempted = failed = rounds = 0
    first_round_spans = 0
    started = time.monotonic()
    while rounds == 0 or time.monotonic() - started < args.seconds:
        inputs = workload.inputs(rounds)
        if tr is not None:
            tr.round = rounds
        calls: list[float] = []

        def timed(fn, *fn_args):
            t0 = time.perf_counter()
            out = fn(*fn_args)
            calls.append(time.perf_counter() - t0)
            return out

        results = workload.run(inputs, timed)
        durations.append(calls)
        attempted += len(results)
        failed += sum(1 for result in results if workload.failed(result))
        problems += workload.check(inputs, results)
        if rounds == 0 and tr is not None:
            first_round_spans = len(tr.name)
        rounds += 1

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = workload.units * rounds
    # Host contention only ever slows a call down, and it comes and goes over
    # seconds; the fastest repeat of each call of the round is the steadiest
    # estimate of what the call costs (see README).
    per_call = np.array(durations)
    best_round = float(per_call.min(axis=0).sum())
    median_round = float(np.median(per_call.sum(axis=1)))
    print(f"workload {args.workload}: {rounds} rounds, {units} units, {attempted} operations, {failed} failed")
    print(f"round of {workload.units} units: best-of-{rounds} {best_round:.6f} s, median {median_round:.6f} s")
    print(f"correctness checks: {'pass' if not problems else f'{len(problems)} problems'}")
    if tr is None:
        metrics = {
            "ops_per_s": (workload.units / best_round, "1/s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    else:
        metrics = tracer.layer_metrics(tr, units, first_round_spans)
        tr.save(OUT / f"trace-{args.workload}.npz")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def role_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "finsleroid" / "__init__.py").is_file():
        print(f"no finsleroid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines = run_child("worker", args, timeout=args.seconds + 100)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups = [float(run_child("setup", args, timeout=60)[-1]) for _ in range(SETUP_REPEATS)]
        print(f"setup_s over {SETUP_REPEATS} fresh interpreters: {[round(s, 4) for s in setups]}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for name, metric in result["metrics"].items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("check", "geodesic", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "setup"), default="main")
    args = parser.parse_args()
    if args.role == "setup":
        role_setup(args)
    elif args.role == "worker":
        role_worker(args)
    else:
        return role_main(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
