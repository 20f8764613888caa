"""Momentum-space dual: covector chain, Hamiltonian routes, action residual."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsleroid import dual
from finsleroid.background import BackgroundField, load_config, sample
from finsleroid.dual import covector_stack, hamiltonian, hamiltonian_numeric, hj_residual
from finsleroid.errors import CNotUnit, NoConvergence, UnsupportedCovector
from finsleroid.expressions import FieldExpression
from finsleroid.kinematics import random_admissible, scalars
from finsleroid.metric import covariant_momentum, metric_function
from finsleroid.numdiff import TOL_DUAL_CLOSED, TOL_DUAL_NUMERIC, TOL_DUAL_REFERENCE

from conftest import config_path
from _reference import REF, sub_unit_h2

E0 = np.array([1.0, 0.0, 0.0, 0.0])
EX = np.array([0.0, 1.0, 0.0, 0.0])
Y_TIME = np.array([1.0, 0.1, -0.05, 0.12])
Y_SPACE = np.array([0.2, 1.0, 0.3, -0.4])


class TestFrozenValues:
    def test_unit_covector_anchor(self, desk):
        """The covector with unit dual radius on the dual axis has co-norm one."""
        p = np.array([REF["R0_time_axis"], 0.0, 0.0, REF["R3_time_axis"]])
        assert abs(hamiltonian(desk, p) - REF["H2_unit_cov"]) < 5e-16

    def test_preferred_covector_anchor(self, desk):
        assert hamiltonian(desk, desk.b_cov) == -1.0

    def test_axis_orthogonal_self_duality(self, desk):
        """At zero support scalar the norm and co-norm chains coincide."""
        h2 = hamiltonian(desk, [1.0, 0.0, 0.0, 0.0])
        assert abs(h2 - REF["F2_e0"]) < 1e-15
        stack = covector_stack(desk, [1.0, 0.0, 0.0, 0.0])
        assert abs(stack.f_hat + REF["f_e0"]) < 1e-15

    def test_legendre_image_of_reference_direction(self, desk):
        p = covariant_momentum(desk, E0)
        assert abs(hamiltonian(desk, p) - REF["F2_e0"]) < 1e-13


class TestDualChain:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE, E0, EX], ids=["time", "space", "e0", "ex"])
    def test_dual_angle_equals_primal(self, desk, y):
        """The dual chain of the momentum image reproduces the primal angle
        variable, and the dual weight is the reciprocal primal weight."""
        scal = scalars(desk, y)
        stack = covector_stack(desk, covariant_momentum(desk, y))
        assert stack.eps == scal.eps
        assert abs(stack.f_hat - scal.f) < 1e-12
        assert abs(stack.J_hat - 1.0 / scal.J) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_dual_radii(self, desk, y):
        """Dual support scalar and radius from the closed primal relations."""
        scal = scalars(desk, y)
        stack = covector_stack(desk, covariant_momentum(desk, y))
        j2 = scal.J * scal.J
        assert abs(stack.b_hat - (scal.b + desk.g * scal.q) * j2) < 1e-12
        assert abs(stack.q_hat - scal.q * j2) < 1e-12


class TestRoundTrips:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_closed_route(self, desk, y):
        p = covariant_momentum(desk, y)
        assert abs(hamiltonian(desk, p) - metric_function(desk, y)) < TOL_DUAL_CLOSED

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_newton_agrees_with_closed(self, desk, y):
        p = covariant_momentum(desk, y)
        assert abs(hamiltonian_numeric(desk, p) - hamiltonian(desk, p)) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_newton_route_below_unit_norm(self, c09, y):
        p = covariant_momentum(c09, y)
        assert abs(hamiltonian_numeric(c09, p) - metric_function(c09, y)) < TOL_DUAL_NUMERIC

    def test_homogeneity(self, desk):
        p = covariant_momentum(desk, Y_TIME)
        assert abs(hamiltonian(desk, 2.5 * p) - 6.25 * hamiltonian(desk, p)) < 1e-12


class TestCovectorGuards:
    def test_past_cone_rejected(self, desk):
        p = covariant_momentum(desk, E0)
        with pytest.raises(UnsupportedCovector, match="past"):
            covector_stack(desk, -p)

    def test_gap_region_rejected(self, desk):
        with pytest.raises(UnsupportedCovector, match="gap"):
            covector_stack(desk, [1.0, 0.0, 0.0, 5.0])

    def test_dual_cone_rejected(self, desk):
        p = np.array([1.0, 0.0, 0.0, REF["g_plus_time"]])
        with pytest.raises(UnsupportedCovector, match="isotropic"):
            covector_stack(desk, p)

    def test_positive_support_null_ray_rejected(self, desk):
        with pytest.raises(UnsupportedCovector, match="null ray"):
            covector_stack(desk, [0.0, 0.0, 0.0, -1.0])

    def test_closed_route_requires_unit_norm(self, c09):
        p = covariant_momentum(c09, Y_TIME)
        with pytest.raises(CNotUnit):
            hamiltonian(c09, p)

    def test_newton_iteration_budget(self, c09, monkeypatch):
        monkeypatch.setattr(dual, "NEWTON_MAX_ITER", 1)
        p = covariant_momentum(c09, Y_TIME)
        with pytest.raises(NoConvergence):
            hamiltonian_numeric(c09, p)


class TestActionResidual:
    def test_exact_linear_action(self, desk_field):
        """A linear action whose gradient is the unit-co-norm covector."""
        expr = FieldExpression.parse(
            f"{REF['R0_time_axis']!r}*x0 - {-REF['R3_time_axis']!r}*x3"
        )
        assert abs(hj_residual(desk_field, expr, 1.0, np.zeros(4))) < 1e-13

    def test_wiring_against_direct_hamiltonian(self, desk_field, desk):
        expr = FieldExpression.parse("x0*x0")
        x = np.array([0.4, 0.0, 0.0, 0.0])
        here = sample(desk_field, x)
        direct = hamiltonian(here, [0.8, 0.0, 0.0, 0.0])
        assert abs(hj_residual(desk_field, expr, 0.5, x) - (direct - 0.25)) < 1e-15

    def test_newton_route_below_unit_norm(self, c09_field):
        expr = FieldExpression.parse("1.1*x0")
        x = np.zeros(4)
        here = sample(c09_field, x)
        direct = hamiltonian_numeric(here, [1.1, 0.0, 0.0, 0.0])
        assert abs(hj_residual(c09_field, expr, 1.0, x) - (direct - 1.0)) < 1e-15


@pytest.mark.parametrize("tag", ["time-future", "space-like"])
def test_covector_chain_is_primal_chain_at_flipped_charge(desk, tag):
    """The dual chain of ``p`` is the direction chain of ``p`` on the background
    with ``a`` and ``b`` raised and the charge negated, bit for bit."""
    flipped = sample(BackgroundField.constant(desk.a_inv, desk.b_contra, -desk.g), np.zeros(4))
    rng = np.random.default_rng(17)
    for y in random_admissible(desk, rng, tag, 40):
        p = covariant_momentum(desk, y)
        stack, k = covector_stack(desk, p), scalars(flipped, p)
        assert stack.eps == k.eps == (1 if tag == "time-future" else -1)
        assert (stack.b_hat, stack.q_hat, stack.B_hat, stack.f_hat, stack.J_hat) == (
            k.b,
            k.q,
            k.B,
            k.f,
            k.J,
        )


@pytest.fixture(scope="module")
def desk_session():
    return sample(load_config(config_path("desk")), np.zeros(4))


@pytest.fixture(scope="module")
def c09_session():
    return sample(load_config(config_path("desk_c09")), np.zeros(4))


@settings(max_examples=80, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_closed_duality_round_trip_property(desk_session, seed, tag):
    rng = np.random.default_rng(seed)
    y = random_admissible(desk_session, rng, tag, 1, margin=0.05)[0]
    p = covariant_momentum(desk_session, y)
    assert abs(hamiltonian(desk_session, p) - metric_function(desk_session, y)) < TOL_DUAL_CLOSED


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_newton_duality_round_trip_property(c09_session, seed, tag):
    rng = np.random.default_rng(seed)
    y = random_admissible(c09_session, rng, tag, 1, margin=0.05)[0]
    p = covariant_momentum(c09_session, y)
    assert abs(hamiltonian_numeric(c09_session, p) - metric_function(c09_session, y)) < TOL_DUAL_NUMERIC


# --- the Newton route against the 50-digit reference --------------------------

#: ``(c, g)`` of constant backgrounds ``diag(1, -1, -1, -1)`` with preferred
#: direction ``(0, 0, 0, c)``; the first is ``desk_c09``.
REFERENCE_BACKGROUNDS = {"desk_c09": (0.9, 0.6), "c05_g-1.2": (0.5, -1.2), "c03_g1.9": (0.3, 1.9)}
REFERENCE_DRAWS = 8

#: Cases the Newton route gets wrong today (ROADMAP item 1). The time-future
#: ones return a wrong value without an error: the unit-norm dual cone routes
#: their momenta to the space-like sector. The space-like ones stall or run
#: out of iterations from the unit-norm seed.
_ITEM_1 = {
    ("c05_g-1.2", "time-future", 2): "wrong value: momentum routed to the space-like sector",
    ("c05_g-1.2", "space-like", 1): "NoConvergence from the unit-norm seed",
    ("c05_g-1.2", "space-like", 4): "NoConvergence from the unit-norm seed",
    ("c03_g1.9", "time-future", 6): "wrong value: momentum routed to the space-like sector",
    **{("c03_g1.9", "space-like", k): "NoConvergence from the unit-norm seed" for k in range(8)},
}


@lru_cache(maxsize=None)
def _reference_sample(name):
    c, g = REFERENCE_BACKGROUNDS[name]
    field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, c], g)
    return sample(field, np.zeros(4))


@lru_cache(maxsize=None)
def _reference_draws(name):
    """Seeded directions of both sectors, ``margin=0.05``."""
    rng = np.random.default_rng(11)
    here = _reference_sample(name)
    return {
        tag: random_admissible(here, rng, tag, REFERENCE_DRAWS, margin=0.05)
        for tag in ("time-future", "space-like")
    }


def _reference_cases():
    for name in REFERENCE_BACKGROUNDS:
        for tag in ("time-future", "space-like"):
            for k in range(REFERENCE_DRAWS):
                marks = []
                if (name, tag, k) in _ITEM_1:
                    reason = f"ROADMAP item 1: {_ITEM_1[name, tag, k]}"
                    marks.append(pytest.mark.xfail(strict=True, reason=reason))
                yield pytest.param(name, tag, k, marks=marks, id=f"{name}-{tag}-{k}")


@pytest.mark.parametrize("name, tag, k", _reference_cases())
def test_newton_route_matches_the_momentum_map_reference(name, tag, k):
    """``hamiltonian_numeric`` at the momentum of a seeded direction against
    ``F^2`` at the 50-digit root of the reference momentum map."""
    here = _reference_sample(name)
    y = _reference_draws(name)[tag][k]
    p = covariant_momentum(here, y)
    reference = sub_unit_h2(p, y, *REFERENCE_BACKGROUNDS[name])
    relative = abs(hamiltonian_numeric(here, p) - reference) / abs(reference)
    assert relative < TOL_DUAL_REFERENCE
