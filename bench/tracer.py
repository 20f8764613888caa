"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function by a wrapper at every
module binding inside ``finsleroid`` (so ``spray.sample_background`` and
``cli.sample_background`` are traced along with ``background.sample``).
Each call records a span: function, caller span, workload round, start,
end and one optional count. Spans stay in flat arrays in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: The functions traced, by module; the names match the per-layer metrics.
TRACED = {
    "background": ("load_config", "sample"),
    "kinematics": ("classify", "scalars", "aux_vectors", "random_admissible"),
    "metric": (
        "metric_function",
        "covariant_momentum",
        "metric_tensor",
        "inverse_metric",
        "determinant_ratio",
        "cartan_vector",
        "cartan_norm",
        "angular_metric",
        "cartan_tensor",
        "indicatrix_curvature",
        "frame_components",
        "metric_bundle",
    ),
    "spray": ("spray_coefficients", "spray_oracle", "geodesic_integrate"),
    "numdiff": ("fd_gradient", "fd_jacobian"),
    "dual": ("covector_stack", "hamiltonian", "hamiltonian_numeric"),
    "anglegeo": ("angle", "angle_closed_form", "uar_to_angles", "uar_from_angles"),
    "conformal": ("zeta_map", "zeta_inverse", "pushforward_metric_check", "factor_space_angle"),
    "cli": ("run_check",),
}
NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)


class Tracer:
    """In-memory span recorder. ``round`` tags new spans with the current
    workload round, which all spans of one round share; ``count`` holds an extra count for some spans:
    callable evaluations for ``fd_*``, directions returned for
    ``random_admissible`` and accepted steps for ``geodesic_integrate``."""

    def __init__(self) -> None:
        self.name = array("h")
        self.parent = array("i")
        self.round_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.round = -1
        self._stack = [-1]

    def _wrap(self, name_id: int, fn, counter):
        name, parent, round_id = self.name, self.parent, self.round_id
        start, end, count = self.start, self.end, self.count
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            round_id.append(self.round)
            start.append(0.0)
            end.append(0.0)
            count.append(0.0)
            stack.append(idx)
            if counter == "evals":
                inner = args[0]

                def counted(x):
                    count[idx] += 1.0
                    return inner(x)

                args = (counted,) + args[1:]
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter == "rows":
                count[idx] = float(len(result))
            elif counter == "steps":
                count[idx] = float(result.samples.shape[0] - 1)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in ``finsleroid``."""
        counters = {
            "numdiff.fd_gradient": "evals",
            "numdiff.fd_jacobian": "evals",
            "kinematics.random_admissible": "rows",
            "spray.geodesic_integrate": "steps",
        }
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "finsleroid"]
        for name_id, full in enumerate(NAMES):
            module_name, fn_name = full.split(".")
            original = getattr(importlib.import_module(f"finsleroid.{module_name}"), fn_name)
            wrapper = self._wrap(name_id, original, counters.get(full))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def arrays(self, upto: int | None = None) -> dict[str, np.ndarray]:
        n = len(self.name) if upto is None else upto
        columns = {
            "name": (self.name, np.int16),
            "parent": (self.parent, np.int32),
            "round": (self.round_id, np.int32),
            "start": (self.start, np.float64),
            "end": (self.end, np.float64),
            "count": (self.count, np.float64),
        }
        # copies, so that the arrays stay free to grow
        return {key: np.array(col[:n], dtype=dtype) for key, (col, dtype) in columns.items()}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(NAMES), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-function self time: span duration minus its direct children's."""
    duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    nested = spans["parent"] >= 0
    np.add.at(child, spans["parent"][nested], duration[nested])
    return np.bincount(spans["name"], weights=duration - child, minlength=len(NAMES))


def nearest(spans: dict[str, np.ndarray], target: str) -> np.ndarray:
    """For each span, the index of its nearest enclosing ``target`` span
    (itself excluded), or -1. Parents precede children in span order."""
    target_id = NAMES.index(target)
    names, parents = spans["name"].tolist(), spans["parent"].tolist()
    inside = [-1] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            inside[i] = p if names[p] == target_id else inside[p]
    return np.array(inside, dtype=np.int64)


def layer_metrics(tracer: Tracer, ops: int, first_round_spans: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics. ``calls`` and ``self_s`` are per workload operation
    over the whole traced run; the ratios are taken over the first round,
    whose inputs depend on the seed alone, so they repeat exactly."""
    spans = tracer.arrays()
    calls = np.bincount(spans["name"], minlength=len(NAMES))
    self_s = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for i, full in enumerate(NAMES):
        out[f"{full}.calls"] = (calls[i] / ops, "calls/op")
        out[f"{full}.self_s"] = (self_s[i] / ops, "s/op")

    first = tracer.arrays(first_round_spans)
    names = first["name"]

    def n_calls(full: str) -> int:
        return int(np.count_nonzero(names == NAMES.index(full)))

    def under(child: str, parent: str) -> int:
        return int(np.count_nonzero((names == NAMES.index(child)) & (nearest(first, parent) >= 0)))

    def total(full: str) -> float:
        return float(first["count"][names == NAMES.index(full)].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = total("spray.geodesic_integrate")
    out["spray.spray_oracle.samples_per_call"] = (
        ratio(under("background.sample", "spray.spray_oracle"), n_calls("spray.spray_oracle")),
        "ratio",
    )
    out["spray.geodesic_integrate.samples_per_step"] = (
        ratio(under("background.sample", "spray.geodesic_integrate"), steps),
        "ratio",
    )
    out["spray.geodesic_integrate.sprays_per_step"] = (
        ratio(under("spray.spray_coefficients", "spray.geodesic_integrate"), steps),
        "ratio",
    )
    for parent in ("metric.metric_bundle", "metric.indicatrix_curvature"):
        out[f"{parent}.scalars_per_call"] = (
            ratio(under("kinematics.scalars", parent), n_calls(parent)),
            "ratio",
        )
    for fd in ("numdiff.fd_jacobian", "numdiff.fd_gradient"):
        out[f"{fd}.evals_per_call"] = (ratio(total(fd), n_calls(fd)), "ratio")
    out["kinematics.random_admissible.acceptance"] = (
        ratio(
            total("kinematics.random_admissible"),
            under("kinematics.classify", "kinematics.random_admissible"),
        ),
        "ratio",
    )
    return out
