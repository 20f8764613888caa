"""Conformal isomorphism: image map, conformality, inverse, factor-space curvature."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsleroid.background import BackgroundField, load_config, sample
from finsleroid.conformal import (
    factor_space_angle,
    factor_space_curvature,
    pushforward_metric_check,
    zeta_inverse,
    zeta_jacobian,
    zeta_map,
)
from finsleroid.errors import ChartDomain, CNotUnit, DegenerateQ, MixedSectors, UnsupportedImage
from finsleroid.kinematics import random_admissible, scalars
from finsleroid.metric import metric_function
from finsleroid.numdiff import (
    TOL_CONFORMAL_POWER,
    TOL_CONFORMAL_ROUNDTRIP,
    TOL_CONFORMAL_S,
    TOL_FACTOR_CURVATURE,
    fd_jacobian,
)

from conftest import config_path
from _reference import REF

E0 = np.array([1.0, 0.0, 0.0, 0.0])
AXIS = np.array([0.0, 0.0, 0.0, -1.0])
Y_TIME = np.array([1.0, 0.1, -0.05, 0.12])
Y_SPACE = np.array([0.2, 1.0, 0.3, -0.4])


class TestImageMap:
    def test_frozen_image_norm(self, desk):
        image = zeta_map(desk, E0)
        assert abs(image.S2 - REF["S2_e0"]) / REF["S2_e0"] < 1e-13

    @pytest.mark.parametrize("y", [E0, Y_TIME, Y_SPACE], ids=["e0", "time", "space"])
    def test_power_law(self, desk, y):
        """|a(zeta, zeta)| = |F^2|^h with the sector-matched exponent."""
        image = zeta_map(desk, y)
        scal = scalars(desk, y)
        f2 = metric_function(desk, y)
        assert abs(abs(image.S2) - abs(f2) ** scal.h) < TOL_CONFORMAL_POWER
        assert np.sign(image.S2) == np.sign(f2)

    def test_conformal_factor_definition(self, desk):
        image = zeta_map(desk, Y_TIME)
        scal = scalars(desk, Y_TIME)
        f2 = metric_function(desk, Y_TIME)
        expected = (1.0 / scal.h) * abs(f2) ** (0.5 * (1.0 - scal.h))
        assert image.kappa == expected
        assert image.p == image.kappa**2

    def test_preferred_direction_is_fixed_point(self, desk):
        image = zeta_map(desk, desk.b_contra)
        assert np.max(np.abs(image.zeta - desk.b_contra)) < 5e-16

    def test_zero_charge_is_identity(self):
        field = load_config(config_path("desk_curved_a"))
        here = sample(field, np.array([0.1, 0.2, 0.3, 0.4]))
        for y in (Y_TIME, Y_SPACE):
            image = zeta_map(here, y)
            assert np.max(np.abs(image.zeta - y)) < 1e-15
            assert image.kappa == 1.0

    def test_homogeneity_degree_is_sector_exponent(self, desk):
        """zeta(lambda y) = lambda^h zeta(y)."""
        scal = scalars(desk, Y_TIME)
        base = zeta_map(desk, Y_TIME)
        scaled = zeta_map(desk, 2.0 * Y_TIME)
        assert np.max(np.abs(scaled.zeta - 2.0**scal.h * base.zeta)) < 1e-13


class TestConformality:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE, E0], ids=["time", "space", "e0"])
    def test_pushforward_residual(self, desk, y):
        assert pushforward_metric_check(desk, y) < TOL_CONFORMAL_S

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_jacobian_against_fd(self, desk, y):
        closed = zeta_jacobian(desk, y)
        fd = fd_jacobian(lambda v: zeta_map(desk, v).zeta, y)
        assert np.max(np.abs(closed - fd)) < 1e-6

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_jacobian_euler_relation(self, desk, y):
        """Homogeneity of degree h: Z y = h zeta."""
        scal = scalars(desk, y)
        image = zeta_map(desk, y)
        assert np.max(np.abs(zeta_jacobian(desk, y) @ y - scal.h * image.zeta)) < 1e-12


class TestInverse:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE, E0], ids=["time", "space", "e0"])
    def test_round_trip(self, desk, y):
        back = zeta_inverse(desk, zeta_map(desk, y).zeta)
        assert np.max(np.abs(back - y)) < TOL_CONFORMAL_ROUNDTRIP

    def test_axis_round_trip(self, desk):
        back = zeta_inverse(desk, zeta_map(desk, AXIS).zeta)
        assert np.max(np.abs(back - AXIS)) < 1e-13

    @pytest.mark.parametrize("zb", [1e-20, -1e-20, 3e-9, 0.0])
    def test_space_like_image_nearly_orthogonal_to_b(self, zb):
        # at zero charge the map is the identity; acos(-zb) would round the
        # support of the direction to cos(-pi/2) = 6.1e-17
        curved = sample(load_config(config_path("desk_curved_a")), np.zeros(4))
        back = zeta_inverse(curved, [0.0, 1.0, 0.0, zb])
        assert back[3] == pytest.approx(zb, rel=1e-12, abs=0.0)
        assert np.max(np.abs(back[:3] - [0.0, 1.0, 0.0])) < TOL_CONFORMAL_ROUNDTRIP

    def test_isotropic_image_rejected(self, desk):
        with pytest.raises(UnsupportedImage, match="isotropic"):
            zeta_inverse(desk, [1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("index", range(4))
    def test_non_finite_image_rejected(self, desk, index, bad):
        zeta = [0.5, 0.1, 0.2, 0.3]
        zeta[index] = bad
        with pytest.raises(UnsupportedImage, match=r"^image vector \(.*\) has a non-finite component$"):
            zeta_inverse(desk, zeta)

    def test_excluded_branch_endpoint_rejected(self, desk):
        with pytest.raises(UnsupportedImage, match="branch"):
            zeta_inverse(desk, [0.0, 0.0, 0.0, 1.0])


class TestFactorSpace:
    @pytest.mark.parametrize(
        "tag,m,expected_sign",
        [("time-future", (0.4, 1.1, 0.6), -1.0), ("space-like", (0.4, 1.1, -1.5), 1.0)],
        ids=["time", "space"],
    )
    def test_constant_curvature(self, desk, tag, m, expected_sign):
        h = desk.h_time if tag == "time-future" else desk.h_space
        value = factor_space_curvature(desk, m, tag)
        assert abs(value - expected_sign * h * h) < TOL_FACTOR_CURVATURE

    def test_curvature_matches_indicatrix_route(self, desk):
        """Both curvature routes produce -eps - eps g^2/4 on the unit shell."""
        from finsleroid.metric import indicatrix_curvature

        factor = factor_space_curvature(desk, (0.4, 1.1, 0.6), "time-future")
        shell = indicatrix_curvature(desk, Y_TIME)
        assert abs(factor - shell) < TOL_FACTOR_CURVATURE

    def test_curvature_point_independence(self, desk):
        a = factor_space_curvature(desk, (0.4, 1.1, 0.6), "time-future")
        b = factor_space_curvature(desk, (0.9, 2.4, -0.3), "time-future")
        assert abs(a - b) < TOL_FACTOR_CURVATURE

    def test_smaller_charge_grid(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], 0.3)
        here = sample(field, np.zeros(4))
        value = factor_space_curvature(here, (0.4, 1.1, 0.6), "time-future")
        assert abs(value - (-(1.0 + 0.09 / 4.0))) < TOL_FACTOR_CURVATURE

    def test_angle_route_rejects_mixed_images(self, desk):
        with pytest.raises(MixedSectors):
            factor_space_angle(desk, Y_TIME, Y_SPACE)

    @pytest.mark.parametrize("scale", [1e-150, 1e-145, 1e-140])
    def test_angle_of_a_tiny_time_like_direction(self, desk, scale):
        """The image of a tiny time-like direction has a subnormal seed norm
        (about 1e-314 at 1e-150); the angle of its ray must not lose bits."""
        y1, y2 = np.array([1.0, 0.0, 0.0, 0.5]), np.array([1.0, 0.0, 0.0, 0.1])
        unit = factor_space_angle(desk, y1, y2)
        assert abs(factor_space_angle(desk, scale * y1, y2) - unit) < 4e-15


class TestGuards:
    def test_requires_unit_preferred_norm(self, c09):
        with pytest.raises(CNotUnit):
            zeta_map(c09, Y_TIME)
        with pytest.raises(CNotUnit):
            zeta_inverse(c09, Y_TIME)
        with pytest.raises(CNotUnit):
            factor_space_curvature(c09, (0.4, 1.1, 0.6), "time-future")

    def test_jacobian_undefined_on_axis(self, desk):
        with pytest.raises(DegenerateQ):
            zeta_jacobian(desk, AXIS)

    def test_factor_curvature_requires_dimension_four(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0], [0.0, 0.0, 1.0], 0.6)
        low = sample(field, np.zeros(3))
        with pytest.raises(ChartDomain):
            factor_space_curvature(low, (0.4, 1.1, 0.6), "time-future")


@pytest.fixture(scope="module")
def desk_session():
    return sample(load_config(config_path("desk")), np.zeros(4))


@settings(max_examples=60, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_conformal_stack_property(desk_session, seed, tag):
    rng = np.random.default_rng(seed)
    y = random_admissible(desk_session, rng, tag, 1, margin=0.05)[0]
    image = zeta_map(desk_session, y)
    scal = scalars(desk_session, y)
    f2 = metric_function(desk_session, y)
    assert abs(abs(image.S2) - abs(f2) ** scal.h) < TOL_CONFORMAL_POWER
    assert pushforward_metric_check(desk_session, y) < TOL_CONFORMAL_S
    back = zeta_inverse(desk_session, image.zeta)
    assert np.max(np.abs(back - y)) < TOL_CONFORMAL_ROUNDTRIP
