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

A second chart varies with position: ``x = phi(x')`` with
``phi_i = x'_i + 0.05 f_i(x'_p) x'_q`` (``f_i`` is ``sin`` or ``exp``), its
Jacobian ``J`` written as expression text. The rewritten configurations are
nested expressions that the parser, the symbolic derivative and the compiled
evaluator all see. The tensors transform with ``J`` at the point, and the
spray picks up the second derivatives of ``phi``:
``G' = J^-1 (G(phi(x'), J y') + d^2 phi(y', y'))``. In this chart ``desk``
and ``desk_c09`` have a curved base with a nonzero charge and a parallel
``b``, so the spray's drift and curl terms run and must cancel to the base
connection quadratic (the Berwald case). The integrator is tied to all of
this end to end: geodesics map between the two charts, and a Berwald
geodesic is the base metric's.
"""

from __future__ import annotations

import contextlib
import io
import math
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
from finsleroid.numdiff import (
    TOL_CHART_COVARIANCE,
    TOL_GEODESIC_BERWALD,
    TOL_GEODESIC_CHART,
    TOL_GEODESIC_CHART_END,
)
from finsleroid.spray import geodesic_integrate, spray_coefficients

from conftest import config_path

CONFIGS = ("desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g")
X_OLD = np.array([0.3, 0.1, 0.2, 0.4])

_COORD = re.compile(r"\bx(\d+)\b")


def chart_matrix(seed: int, dim: int = 4) -> np.ndarray:
    """The seeded constant chart change ``L = I + 0.1 N(0, 1)``."""
    return np.eye(dim) + 0.1 * np.random.default_rng(seed).standard_normal((dim, dim))


class LinearChart:
    """``x = L x'``; a coefficient of the rewritten config is one literal,
    the product of its entries of ``L``."""

    def __init__(self, L: np.ndarray) -> None:
        self.L, self.dim = L, L.shape[0]

    def coordinate(self, i: int) -> str:
        return "(" + " + ".join(f"({float(self.L[i, j])!r})*x{j}" for j in range(self.dim)) + ")"

    def coefficient(self, *entries: tuple[int, int]) -> str:
        return f"({math.prod(float(self.L[e]) for e in entries)!r})"


#: ``phi_i = x_i + EPS s_i(x)`` with ``s_i = f_i(x_p) x_q``, as ``(f_i, p, q)``
CURVED_MAP = (("sin", 1, 2), ("exp", 3, 0), ("sin", 0, 3), ("exp", 1, 2))
EPS = 0.05
#: ``f``, ``f'`` and ``f''`` of each function in ``CURVED_MAP``: text, then numbers
SLOPES = {"sin": ("cos", np.sin, np.cos, lambda t: -np.sin(t)), "exp": ("exp",) + (np.exp,) * 3}


class CurvedChart:
    """``x = phi(x')``, with ``phi`` and its Jacobian ``J`` written as text:
    a coefficient of the rewritten config is the product of its entries of
    ``J``, each an expression in ``x'``, or ``None`` where one is zero."""

    dim = 4

    def coordinate(self, i: int) -> str:
        f, p, q = CURVED_MAP[i]
        return f"(x{i} + {EPS!r}*{f}(x{p})*x{q})"

    def jacobian_text(self, i: int, k: int) -> str | None:
        f, p, q = CURVED_MAP[i]
        terms = []
        if k == i:
            terms.append("1")
        if k == p:
            terms.append(f"{EPS!r}*{SLOPES[f][0]}(x{p})*x{q}")
        if k == q:
            terms.append(f"{EPS!r}*{f}(x{p})")
        return " + ".join(terms) or None

    def coefficient(self, *entries: tuple[int, int]) -> str | None:
        texts = [self.jacobian_text(i, k) for i, k in entries]
        return None if None in texts else "*".join(f"({t})" for t in texts)

    def point(self, x: np.ndarray) -> np.ndarray:
        return x + EPS * np.array([SLOPES[f][1](x[p]) * x[q] for f, p, q in CURVED_MAP])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        J = np.eye(self.dim)
        for i, (f, p, q) in enumerate(CURVED_MAP):
            J[i, p] += EPS * SLOPES[f][2](x[p]) * x[q]
            J[i, q] += EPS * SLOPES[f][1](x[p])
        return J

    def second(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``d^2 phi(y, y)``: the second derivatives of ``phi`` on ``y`` twice."""
        return np.array([
            EPS * (SLOPES[f][3](x[p]) * x[q] * y[p] ** 2 + 2.0 * SLOPES[f][2](x[p]) * y[p] * y[q])
            for f, p, q in CURVED_MAP
        ])


def transformed_config(text: str, chart) -> str:
    """The configuration ``text`` rewritten in ``chart``: every ``x_i``
    becomes ``chart.coordinate(i)``, ``a' = J^T a J`` and ``b' = J^T b``."""
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
        return "(" + _COORD.sub(lambda match: chart.coordinate(int(match[1])), entries[key]) + ")"

    def combination(terms: list[tuple[str | None, str]]) -> str:
        present = [f"{c}*{pulled_back(k)}" for c, k in terms if k in entries and c is not None]
        return " + ".join(present) or "0"

    lines = [f"dim = {dim}"]
    for k in range(dim):
        for m in range(k, dim):
            terms = [
                (chart.coefficient((i, k), (j, m)), f"a.{i}.{j}")
                for i in range(dim)
                for j in range(dim)
            ]
            lines.append(f"a.{k}.{m} = {combination(terms)}")
    for k in range(dim):
        terms = [(chart.coefficient((i, k)), f"b.{i}") for i in range(dim)]
        lines.append(f"b.{k} = {combination(terms)}")
    lines.append(f"g = {pulled_back('g') if 'g' in entries else '0'}")
    return "\n".join(lines) + "\n"


def _charts(name: str, seed: int):
    """``(L, sample in the shipped chart, sample in the new chart)``."""
    L = chart_matrix(seed)
    text = Path(config_path(name)).read_text(encoding="utf-8")
    new_field = parse_config(transformed_config(text, LinearChart(L)))
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


@pytest.mark.parametrize("config_name, seed", [(n, seed) for seed in (0, 1) for n in CONFIGS])
def test_indicatrix_curvature_is_chart_invariant(config_name, seed):
    L, old, new = _charts(config_name, seed)
    for y, _ in _pairs(old, seed):
        _agree(
            lambda: indicatrix_curvature(old, y),
            lambda: indicatrix_curvature(new, np.linalg.solve(L, y)),
        )


def _curved_charts(name: str):
    """``(J, d^2 phi, sample at phi(x'), sample in the curved chart at x')``."""
    chart, x_new = CurvedChart(), X_OLD
    text = Path(config_path(name)).read_text(encoding="utf-8")
    old = sample(load_config(config_path(name)), chart.point(x_new))
    new = sample(parse_config(transformed_config(text, chart)), x_new)
    return chart.jacobian(x_new), lambda y: chart.second(x_new, y), old, new


@pytest.mark.parametrize("config_name", CONFIGS)
def test_stack_transforms_with_a_curved_chart(config_name):
    """The invariants hold, the tensors transform with the Jacobian at the
    point, and the spray as ``G' = J^-1 (G(phi(x'), J y') + d^2 phi(y', y'))``."""
    J, second, old, new = _curved_charts(config_name)
    compared = 0
    for y, y2 in _pairs(old, 0):
        y_new, y2_new = np.linalg.solve(J, y), np.linalg.solve(J, y2)
        p = covariant_momentum(old, y)
        compared += _agree(lambda: metric_function(old, y), lambda: metric_function(new, y_new))
        compared += _agree(lambda: angle(old, y, y2), lambda: angle(new, y_new, y2_new))
        compared += _agree(
            lambda: scalar_product(old, y, y2), lambda: scalar_product(new, y_new, y2_new)
        )
        compared += _agree(lambda: hamiltonian(old, p), lambda: hamiltonian(new, J.T @ p))
        for view, transform in COVARIANTS[:-1]:
            compared += _agree(
                lambda: view(old, y), lambda: view(new, y_new), lambda v: transform(J, v)
            )
        compared += _agree(
            lambda: spray_coefficients(old, y).G,
            lambda: spray_coefficients(new, y_new).G,
            lambda G: np.linalg.solve(J, G + second(y_new)),
        )
    # below unit norm the three unit-norm invariants refuse, and at zero charge the cubic form
    assert compared >= 8 * 5


@pytest.mark.parametrize("config_name", ["desk", "desk_c09"])
def test_berwald_spray_in_a_curved_chart(config_name):
    """Parallel ``b`` and constant ``g != 0``: in the curved chart the
    connection is not zero and ``b_parallel`` does not hold to the bit, yet
    the spray is the base connection's quadratic ``Gamma(y, y)``."""
    _, _, old, new = _curved_charts(config_name)
    assert new.g != 0.0 and not new.christoffel_zero
    for y, _ in _pairs(new, 0):
        G = spray_coefficients(new, y).G
        quadratic = np.einsum("inm,n,m->i", new.christoffel, y, y)
        assert _rel(G, quadratic) <= TOL_CHART_COVARIANCE, (_rel(G, quadratic), G, quadratic)


def _geodesic_directions(here, seed: int):
    """One seeded direction of each sector at ``here``."""
    rng = np.random.default_rng(seed)
    tags = ("time-future", "space-like")
    return [random_admissible(here, rng, tag, 1, margin=0.05)[0] for tag in tags]


#: each method's run: parameter length 1/2, rk4 at a step of 1/64, rk45 at tol 1e-11
GEODESIC_METHODS = {"rk4": {"step": 1 / 64}, "rk45": {"tol": 1e-11}}


@pytest.mark.parametrize("config_name", CONFIGS)
def test_geodesics_map_between_charts(config_name):
    """A geodesic integrated in the curved chart from ``(x', y')`` maps by
    ``(phi, J)`` onto the one integrated in the shipped chart from
    ``(phi(x'), J y')``: rk4 node by node, rk45 (whose nodes depend on the
    chart) at the end point. A run that leaves the valid region does so in
    both charts, rk4 at the same node."""
    chart = CurvedChart()
    text = Path(config_path(config_name)).read_text(encoding="utf-8")
    old_field = load_config(config_path(config_name))
    new_field = parse_config(transformed_config(text, chart))
    x_old, J = chart.point(X_OLD), chart.jacobian(X_OLD)
    ends = 0
    for y in _geodesic_directions(sample(old_field, x_old), 3):
        for method, kwargs in GEODESIC_METHODS.items():
            old = geodesic_integrate(old_field, x_old, y, 0.5, method=method, **kwargs)
            y_new = np.linalg.solve(J, y)
            new = geodesic_integrate(new_field, X_OLD, y_new, 0.5, method=method, **kwargs)
            mapped = np.array([
                np.concatenate([chart.point(x), chart.jacobian(x) @ v])
                for x, v in zip(new.samples[:, 1:5], new.samples[:, 5:9])
            ])
            assert (old.exit_reason is None) == (new.exit_reason is None)
            if method == "rk4":
                assert old.samples.shape == new.samples.shape
                assert str(old.exit_reason).split(":")[0] == str(new.exit_reason).split(":")[0]
                for got, want in zip(mapped, old.samples[:, 1:9]):
                    assert _rel(got, want) <= TOL_GEODESIC_CHART, (_rel(got, want), got, want)
            elif old.exit_reason is None:
                ends += 1
                assert _rel(mapped[-1], old.samples[-1, 1:9]) <= TOL_GEODESIC_CHART_END
    # on desk_shifted_b both sectors leave the region where c^2 <= 1
    assert ends == (0 if config_name == "desk_shifted_b" else 2)


@pytest.mark.parametrize("config_name", ["desk", "desk_c09"])
def test_berwald_geodesics_in_a_curved_chart(config_name):
    """Parallel ``b`` and constant ``g``: the geodesics are the base metric's,
    so in the curved chart both methods give at ``g`` what they give at
    ``g = 0``, node by node, to rounding."""
    text = Path(config_path(config_name)).read_text(encoding="utf-8")
    text = transformed_config(text, CurvedChart())
    charged = parse_config(text)
    uncharged = parse_config(re.sub(r"(?m)^g = .*$", "g = 0", text))
    assert sample(charged, X_OLD).g != 0.0 and sample(uncharged, X_OLD).g == 0.0
    for y in _geodesic_directions(sample(charged, X_OLD), 7):
        for method, kwargs in GEODESIC_METHODS.items():
            runs = [
                geodesic_integrate(field, X_OLD, y, 0.5, method=method, **kwargs)
                for field in (charged, uncharged)
            ]
            assert runs[0].exit_reason is None and runs[1].exit_reason is None
            assert runs[0].samples.shape == runs[1].samples.shape
            for got, want in zip(runs[0].samples[:, :-1], runs[1].samples[:, :-1]):
                assert _rel(got, want) <= TOL_GEODESIC_BERWALD, (_rel(got, want), got, want)


def _check_exit(config: str, seed: int) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["check", "--config", config, "--samples", "12", "--seed", str(seed)])


@pytest.mark.parametrize(
    "config_name", ["desk", "desk_curved_a", "desk_variable_g", "desk_shifted_b"]
)
def test_check_battery_passes_in_a_new_chart(config_name, tmp_path):
    text = Path(config_path(config_name)).read_text(encoding="utf-8")
    config = tmp_path / f"{config_name}.cfg"
    config.write_text(transformed_config(text, LinearChart(chart_matrix(0))), encoding="utf-8")
    assert [_check_exit(str(config), seed) for seed in range(3)] == [0, 0, 0]
