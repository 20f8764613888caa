"""Chart-change oracle: the stack in a constant linear change of chart.

Every shipped configuration has a diagonal ``a`` and ``b`` along ``x3``, so
every golden, digest and reference sits in an axis-aligned chart, where an
index-placement or transposition slip in a connection term can cancel unseen.
Here each shipped configuration is rewritten, by text alone, in the chart
``x = L x'`` of a seeded constant ``L = I + 0.1 N(0, 1)``: every ``x_i``
becomes ``sum_j L_ij x_j``, ``a' = L^T a L``, ``b' = L^T b`` and
``g' = g o L``. Directions go to ``y' = L^-1 y``. The invariants (``F^2``,
the indicatrix curvature, the angle, the scalar product, and the Hamiltonian
at ``p' = L^T p``) must not change, and the covariants must transform:
``y_cov' = L^T y_cov``, ``g_ij' = L^T g_ij L``, ``g^ij' = L^-1 g^ij L^-T``,
the cubic form on each index, and the spray ``G' = L^-1 G`` (``L`` is
constant). A refusal must be the same in both charts. ``frame_components``
and the angular chart depend on the chart by construction and are left out.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import numpy as np
import pytest

from finsleroid import cli
from finsleroid.anglegeo import angle, scalar_product
from finsleroid.background import load_config, parse_config, sample
from finsleroid.dual import hamiltonian
from finsleroid.errors import GeometryError
from finsleroid.kinematics import random_admissible
from finsleroid.metric import (
    cartan_tensor,
    covariant_momentum,
    indicatrix_curvature,
    inverse_metric,
    metric_function,
    metric_tensor,
)
from finsleroid.numdiff import TOL_CHART_COVARIANCE
from finsleroid.spray import spray_coefficients

from conftest import config_path

CONFIGS = ("desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g")
X_OLD = np.array([0.3, 0.1, 0.2, 0.4])

_COORD = re.compile(r"\bx(\d+)\b")


def chart_matrix(seed: int, dim: int = 4) -> np.ndarray:
    """The seeded constant chart change ``L = I + 0.1 N(0, 1)``."""
    return np.eye(dim) + 0.1 * np.random.default_rng(seed).standard_normal((dim, dim))


def transformed_config(text: str, L: np.ndarray) -> str:
    """The configuration ``text`` rewritten in the chart ``x = L x'``."""
    dim, entries = None, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "dim":
                dim = int(value)
            else:
                parts = key.split(".")
                # the base metric is symmetric: store both index orders
                if parts[0] == "a":
                    entries[f"a.{parts[2]}.{parts[1]}"] = value
                entries[key] = value

    def pulled_back(key: str) -> str:
        def new_coords(match: re.Match) -> str:
            row = L[int(match[1])]
            return "(" + " + ".join(f"({float(row[j])!r})*x{j}" for j in range(dim)) + ")"

        return "(" + _COORD.sub(new_coords, entries[key]) + ")"

    def combination(terms: list[tuple[float, str]]) -> str:
        present = [f"({float(c)!r})*{pulled_back(k)}" for c, k in terms if k in entries]
        return " + ".join(present) or "0"

    lines = [f"dim = {dim}"]
    for k in range(dim):
        for m in range(k, dim):
            terms = [(L[i, k] * L[j, m], f"a.{i}.{j}") for i in range(dim) for j in range(dim)]
            lines.append(f"a.{k}.{m} = {combination(terms)}")
    for k in range(dim):
        lines.append(f"b.{k} = {combination([(L[i, k], f'b.{i}') for i in range(dim)])}")
    lines.append(f"g = {pulled_back('g') if 'g' in entries else '0'}")
    return "\n".join(lines) + "\n"


def _charts(name: str, seed: int):
    """``(L, sample in the shipped chart, sample in the new chart)``."""
    L = chart_matrix(seed)
    text = Path(config_path(name)).read_text(encoding="utf-8")
    new_field = parse_config(transformed_config(text, L))
    x_new = np.linalg.solve(L, X_OLD)
    return L, sample(load_config(config_path(name)), L @ x_new), sample(new_field, x_new)


def _rel(got, want) -> float:
    """The largest deviation relative to the largest component of ``want``;
    absolute where ``want`` is exactly zero (the spray of a constant field)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    deviation, scale = np.max(np.abs(got - want)), np.max(np.abs(want))
    return float(deviation / scale if scale else deviation)


def _agree(old, new, transform=lambda v: v) -> bool:
    """Whether ``new()`` is ``transform(old())`` to rounding, or both raise
    the same refusal."""
    try:
        want = transform(old())
    except GeometryError as exc:
        with pytest.raises(type(exc)):
            new()
        return False
    got = new()
    assert _rel(got, want) <= TOL_CHART_COVARIANCE, (_rel(got, want), got, want)
    return True


#: each covariant view with its transform under ``x = L x'``
COVARIANTS = (
    (covariant_momentum, lambda L, v: L.T @ v),
    (metric_tensor, lambda L, m: L.T @ m @ L),
    (inverse_metric, lambda L, m: np.linalg.inv(L) @ m @ np.linalg.inv(L).T),
    (cartan_tensor, lambda L, c: np.einsum("ia,jb,kc,ijk->abc", L, L, L, c)),
    (lambda s, v: spray_coefficients(s, v).G, lambda L, G: np.linalg.solve(L, G)),
)


def _pairs(here, seed: int):
    """Seeded same-sector direction pairs of both sectors."""
    rng = np.random.default_rng(59 + seed)
    for tag in ("time-future", "space-like"):
        ys = random_admissible(here, rng, tag, 4, margin=0.05)
        yield from zip(ys, np.roll(ys, 1, axis=0))


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("seed", [0, 1])
def test_stack_transforms_with_the_chart(config_name, seed):
    L, old, new = _charts(config_name, seed)
    compared = 0
    for y, y2 in _pairs(old, seed):
        y_new, y2_new = np.linalg.solve(L, y), np.linalg.solve(L, y2)
        p = covariant_momentum(old, y)
        compared += _agree(lambda: metric_function(old, y), lambda: metric_function(new, y_new))
        compared += _agree(lambda: angle(old, y, y2), lambda: angle(new, y_new, y2_new))
        compared += _agree(
            lambda: scalar_product(old, y, y2), lambda: scalar_product(new, y_new, y2_new)
        )
        compared += _agree(lambda: hamiltonian(old, p), lambda: hamiltonian(new, L.T @ p))
        for view, transform in COVARIANTS:
            compared += _agree(
                lambda: view(old, y), lambda: view(new, y_new), lambda v: transform(L, v)
            )
    # below unit norm the three unit-norm invariants refuse, and at zero charge the cubic form
    assert compared >= 8 * 6


#: the one case whose curvature extraction rounds further than the chart bound
CURVATURE_ROUNDING = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: on desk the curvature extraction rounds 1.3e-12 off its "
    "closed form in the shipped chart, and the two charts differ by 1.4e-12",
)


@pytest.mark.parametrize(
    "config_name, seed",
    [
        pytest.param(name, seed, marks=[CURVATURE_ROUNDING] * ((name, seed) == ("desk", 1)))
        for seed in (0, 1)
        for name in CONFIGS
    ],
)
def test_indicatrix_curvature_is_chart_invariant(config_name, seed):
    L, old, new = _charts(config_name, seed)
    for y, _ in _pairs(old, seed):
        _agree(
            lambda: indicatrix_curvature(old, y),
            lambda: indicatrix_curvature(new, np.linalg.solve(L, y)),
        )


def _check_exit(config: str, seed: int) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["check", "--config", config, "--samples", "12", "--seed", str(seed)])


@pytest.mark.parametrize(
    "config_name", ["desk", "desk_curved_a", "desk_variable_g", "desk_shifted_b"]
)
def test_check_battery_passes_in_a_new_chart(config_name, tmp_path):
    text = Path(config_path(config_name)).read_text(encoding="utf-8")
    config = tmp_path / f"{config_name}.cfg"
    config.write_text(transformed_config(text, chart_matrix(0)), encoding="utf-8")
    assert [_check_exit(str(config), seed) for seed in range(3)] == [0, 0, 0]
