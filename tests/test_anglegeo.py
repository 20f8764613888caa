"""Anisotropic angles and the angular chart: three routes, round trips, flatness."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finsleroid.anglegeo import (
    UarPoint,
    _chart_jacobian,
    _clamped,
    _pair_cosine,
    _paired_records,
    _profiles,
    angle,
    angle_closed_form,
    flatness_check,
    scalar_product,
    uar_closed_diagonals,
    uar_from_angles,
    uar_metric,
    uar_to_angles,
)
from finsleroid.background import BackgroundField, load_config, sample
from finsleroid.conformal import factor_space_angle, factor_space_curvature, zeta_inverse, zeta_map
from finsleroid.errors import ChartDomain, CNotUnit, DomainError, MixedSectors, UnsupportedSector
from finsleroid.kinematics import random_admissible
from finsleroid.metric import _Direction, metric_function
from finsleroid.numdiff import (
    TOL_ANGLE_EXACT,
    TOL_ANGLE_ROUTES,
    TOL_UAR_DIAG,
    TOL_UAR_F2,
    TOL_UAR_KA,
    TOL_UAR_OFFDIAG,
    TOL_UAR_ROUNDTRIP,
)

from conftest import config_path
import _reference
from _reference import REF

EX = np.array([0.0, 1.0, 0.0, 0.0])
AXIS = np.array([0.0, 0.0, 0.0, -1.0])
Y_TIME = np.array([1.0, 0.1, -0.05, 0.12])
Y_TIME_B = np.array([1.0, -0.2, 0.3, -0.35])
Y_SPACE = np.array([0.2, 1.0, 0.3, -0.4])
Y_SPACE_B = np.array([-0.1, 0.8, -0.5, 0.3])

CHART_POINTS = {
    "time-future": [
        # the inverse chart canonicalises the time boost to eta >= 0
        UarPoint(1.0, 0.0, 0.0, 0.0),
        UarPoint(0.7, 0.4, 1.1, 0.6),
        UarPoint(1.3, 0.8, 5.2, -0.9),
    ],
    "space-like": [
        UarPoint(1.0, 0.0, 0.0, -1.5),
        UarPoint(0.7, 0.4, 1.1, -0.6),
        UarPoint(1.3, -0.8, 5.2, -2.8),
    ],
}

PAIRS = [(Y_TIME, Y_TIME_B), (Y_SPACE, Y_SPACE_B)]


class TestDirectRoute:
    def test_reference_angle(self, desk):
        value = angle(desk, EX, desk.b_contra)
        assert abs(value - REF["alpha_ex_axis"]) < 1e-13
        assert abs(value - math.acos(-0.3) / REF["h_space"]) < 1e-13

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE, EX], ids=["time", "space", "ex"])
    def test_self_angle_vanishes(self, desk, y):
        assert abs(angle(desk, y, y)) < TOL_ANGLE_EXACT

    @pytest.mark.parametrize("y1,y2", PAIRS, ids=["time", "space"])
    def test_symmetry(self, desk, y1, y2):
        assert abs(angle(desk, y1, y2) - angle(desk, y2, y1)) < TOL_ANGLE_EXACT

    @pytest.mark.parametrize("y1,y2", PAIRS, ids=["time", "space"])
    def test_scale_invariance(self, desk, y1, y2):
        base = angle(desk, y1, y2)
        assert abs(angle(desk, 3.7 * y1, 0.25 * y2) - base) < TOL_ANGLE_EXACT

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_scalar_product_diagonal(self, desk, y):
        assert abs(scalar_product(desk, y, y) - metric_function(desk, y)) < 1e-12

    @pytest.mark.parametrize("y1,y2", PAIRS, ids=["time", "space"])
    def test_scalar_product_scaling(self, desk, y1, y2):
        base = scalar_product(desk, y1, y2)
        assert abs(scalar_product(desk, 2.0 * y1, 3.0 * y2) - 6.0 * base) < 1e-12 * abs(base)

    @pytest.mark.parametrize("y1,y2", PAIRS, ids=["time", "space"])
    @pytest.mark.parametrize("power", [-400, 500])
    def test_power_of_two_scaling_keeps_every_bit(self, desk, y1, y2, power):
        # the pair products of such directions leave the float range unless
        # the routes scale them back first
        big1, big2 = np.ldexp(y1, power), np.ldexp(y2, power)
        assert angle(desk, big1, big2) == angle(desk, y1, y2)
        assert angle_closed_form(desk, big1, big2) == angle_closed_form(desk, y1, y2)
        expected = math.ldexp(scalar_product(desk, y1, y2), 2 * power)
        assert scalar_product(desk, big1, big2) == expected
        factor = factor_space_angle(desk, y1, y2)
        assert abs(factor_space_angle(desk, big1, big2) - factor) < TOL_ANGLE_ROUTES


class TestThreeRoutes:
    @pytest.mark.parametrize("y1,y2", PAIRS, ids=["time", "space"])
    def test_fixed_pairs_agree(self, desk, y1, y2):
        direct = angle(desk, y1, y2)
        closed = angle_closed_form(desk, y1, y2)
        factor = factor_space_angle(desk, y1, y2)
        spread = max(direct, closed, factor) - min(direct, closed, factor)
        assert spread < TOL_ANGLE_ROUTES

    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_random_pairs_agree_or_refuse_coherently(self, desk, tag):
        rng = np.random.default_rng(5)
        draws = random_admissible(desk, rng, tag, 60, margin=0.05)
        in_domain = 0
        refused = 0
        for i in range(0, 60, 2):
            y1, y2 = draws[i], draws[i + 1]
            outcomes = []
            for route in (angle, angle_closed_form, factor_space_angle):
                try:
                    outcomes.append(route(desk, y1, y2))
                except DomainError:
                    outcomes.append(None)
            if all(v is None for v in outcomes):
                refused += 1  # pair subtends no real angle; all routes must agree on that
            else:
                assert all(v is not None for v in outcomes), (
                    f"routes disagree on domain for pair {i}: {outcomes}"
                )
                assert max(outcomes) - min(outcomes) < TOL_ANGLE_ROUTES
                in_domain += 1
        assert in_domain > 0
        if tag == "space-like":
            assert refused > 0  # seed 5 contains out-of-domain space pairs


class TestChart:
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_round_trip_from_chart(self, desk, tag):
        for point in CHART_POINTS[tag]:
            y = uar_from_angles(desk, point, tag)
            back = uar_to_angles(desk, y)
            assert abs(back.z0 - point.z0) < TOL_UAR_ROUNDTRIP
            assert abs(back.eta - point.eta) < TOL_UAR_ROUNDTRIP
            assert abs(back.phi - point.phi) < TOL_UAR_ROUNDTRIP
            assert abs(back.chi - point.chi) < TOL_UAR_ROUNDTRIP

    @pytest.mark.parametrize("y", [Y_TIME, Y_TIME_B, Y_SPACE, Y_SPACE_B], ids=["t", "tb", "s", "sb"])
    def test_round_trip_from_direction(self, desk, y):
        point = uar_to_angles(desk, y)
        tag = "time-future" if metric_function(desk, y) > 0 else "space-like"
        back = uar_from_angles(desk, point, tag)
        assert np.max(np.abs(back - y)) < TOL_UAR_ROUNDTRIP

    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_chart_norm_is_sector_signed_square(self, desk, tag):
        eps = 1.0 if tag == "time-future" else -1.0
        for point in CHART_POINTS[tag]:
            y = uar_from_angles(desk, point, tag)
            assert abs(metric_function(desk, y) - eps * point.z0**2) < TOL_UAR_F2

    def test_chart_origin_profile(self, desk):
        y = uar_from_angles(desk, UarPoint(1.0, 0.0, 0.0, 0.0), "time-future")
        assert abs(y[0] - REF["R0_time_axis"]) < 5e-16
        assert y[1] == 0.0 and y[2] == 0.0
        assert abs(y[3] - REF["R3_time_axis"]) < 5e-16

    def test_axis_ray_canonicalised(self, desk):
        point = uar_to_angles(desk, AXIS)
        assert point.eta == 0.0 and point.phi == 0.0
        assert point.z0 == 1.0 and point.chi == 0.0
        back = uar_from_angles(desk, point, "space-like")
        assert np.max(np.abs(back - AXIS)) < 1e-15


class TestChartMetric:
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_diagonal_against_closed_form(self, desk, tag):
        for point in CHART_POINTS[tag]:
            a_chart = uar_metric(desk, point, tag)
            closed = uar_closed_diagonals(desk, point, tag)
            assert np.max(np.abs(np.diag(a_chart) - closed)) < TOL_UAR_DIAG

    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_off_diagonals_vanish(self, desk, tag):
        for point in CHART_POINTS[tag]:
            a_chart = uar_metric(desk, point, tag)
            off = a_chart - np.diag(np.diag(a_chart))
            assert np.max(np.abs(off)) < TOL_UAR_OFFDIAG

    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_conformally_flat_normal_form(self, desk, tag):
        h = desk.h_time if tag == "time-future" else desk.h_space
        for point in CHART_POINTS[tag]:
            if point.eta == 0.0:
                continue  # flat target degenerates with the boost block
            factor, residual = flatness_check(desk, point, tag)
            assert residual < TOL_UAR_KA
            expected = (1.0 / (h * h)) * point.z0 ** (2.0 - 2.0 * h)
            assert abs(factor - expected) < TOL_UAR_KA * max(1.0, expected)


class TestGuards:
    def test_requires_unit_preferred_norm(self, c09):
        with pytest.raises(CNotUnit):
            angle(c09, Y_TIME, Y_TIME_B)
        with pytest.raises(CNotUnit):
            uar_to_angles(c09, Y_TIME)

    def test_mixed_sectors_rejected(self, desk):
        with pytest.raises(MixedSectors):
            angle(desk, Y_TIME, Y_SPACE)

    def test_unsupported_direction_rejected(self, desk):
        with pytest.raises(UnsupportedSector):
            angle(desk, Y_TIME, np.array([-1.0, 0.0, 0.0, 0.0]))

    def test_chart_requires_dimension_four(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0], [0.0, 0.0, 1.0], 0.6)
        low = sample(field, np.zeros(3))
        with pytest.raises(ChartDomain):
            uar_to_angles(low, np.array([1.0, 0.1, 0.1]))

    @pytest.mark.parametrize(
        "y", [[1e-8, 0.0, 1e-8, -1.8], [1e-4, 0.0, 1.00000001e-4, -1.8]], ids=["1e-8", "1e-4"]
    )
    def test_null_transverse_part_has_no_chart_point(self, desk, y):
        # q reads 0 as on the axis ray, but the transverse part y + b b^i is not 0
        with pytest.raises(ChartDomain, match="null transverse part"):
            uar_to_angles(desk, y)

    @pytest.mark.parametrize("eps", [1, -1])
    def test_non_finite_pair_invariant_is_refused(self, eps):
        with pytest.raises(DomainError, match="not finite"):
            _clamped(math.nan, eps, "pair invariant")

    def test_chart_domain_guards(self, desk):
        with pytest.raises(ChartDomain):
            uar_from_angles(desk, UarPoint(-1.0, 0.0, 0.0, 0.0), "time-future")
        with pytest.raises(ChartDomain):
            uar_from_angles(desk, UarPoint(1.0, 0.0, 0.0, 0.5), "space-like")
        with pytest.raises(UnsupportedSector):
            uar_from_angles(desk, UarPoint(1.0, 0.0, 0.0, 0.0), "isotropic")

    @pytest.mark.parametrize(
        "point, tag, message",
        [
            (UarPoint(-1.0, 0.1, 0.2, 0.3), "time-future", r"z0 = -1\.0 must be positive"),
            (UarPoint(1.0, 0.1, 0.2, 0.5), "space-like", r"chi = 0\.5 outside \(-pi/h, 0\]"),
        ],
        ids=["z0", "chi"],
    )
    def test_closed_diagonals_refuse_what_the_chart_refuses(self, desk, point, tag, message):
        for route in (uar_from_angles, uar_closed_diagonals):
            with pytest.raises(ChartDomain, match=f"^chart norm {message}$|^space-sector {message}$"):
                route(desk, point, tag)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_non_finite_chart_coordinate_is_refused(self, desk, tag, bad):
        rng = np.random.default_rng(2817)
        chi_range = (-1.0, 1.0) if tag == "time-future" else (-3.0, -0.1)
        for index in range(4):
            for _ in range(3):
                coords = [
                    rng.uniform(0.5, 2.0),
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(0.0, 2.0 * math.pi),
                    rng.uniform(*chi_range),
                ]
                coords[index] = bad
                for route in (uar_from_angles, uar_closed_diagonals):
                    with pytest.raises(ChartDomain, match=r"chart point UarPoint\(.*non-finite"):
                        route(desk, UarPoint(*coords), tag)
                if index > 0:
                    # the factor space is the unit shell: its coordinates are (eta, phi, chi)
                    with pytest.raises(ChartDomain, match="non-finite"):
                        factor_space_curvature(desk, coords[1:], tag)

    def test_finite_boost_past_the_float_range_overflows(self, desk):
        with pytest.raises(OverflowError):
            uar_from_angles(desk, UarPoint(1.0, 1000.0, 0.2, 0.3), "time-future")

    @pytest.mark.parametrize("tag", ["isotropic", "bogus"])
    def test_chart_metric_refuses_a_sector_without_a_chart(self, desk, tag):
        point = UarPoint(1.0, 0.3, 0.2, -0.1)
        for route in (uar_metric, uar_closed_diagonals, flatness_check):
            with pytest.raises(UnsupportedSector, match=f"no chart for sector '{tag}'"):
                route(desk, point, tag)


@pytest.fixture(scope="module")
def desk_session():
    return sample(load_config(config_path("desk")), np.zeros(4))


@settings(max_examples=60, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_round_trip_property(desk_session, seed, tag):
    rng = np.random.default_rng(seed)
    y = random_admissible(desk_session, rng, tag, 1, margin=0.05)[0]
    point = uar_to_angles(desk_session, y)
    back = uar_from_angles(desk_session, point, tag)
    assert np.max(np.abs(back - y)) < TOL_UAR_ROUNDTRIP


@settings(max_examples=60, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_three_routes_property(desk_session, seed, tag):
    rng = np.random.default_rng(seed)
    y1, y2 = random_admissible(desk_session, rng, tag, 2, margin=0.05)
    try:
        direct = angle(desk_session, y1, y2)
    except DomainError:
        assume(False)  # space-like pairs may subtend no real angle
        return
    closed = angle_closed_form(desk_session, y1, y2)
    factor = factor_space_angle(desk_session, y1, y2)
    assert max(direct, closed, factor) - min(direct, closed, factor) < TOL_ANGLE_ROUTES


class TestSectorFormulasAgainstReference:
    """The chart and the inverse conformal map against the one-branch-per-sector
    float64 copies in ``_reference``: the same operations in the same order,
    so the same bits. The chart Jacobian multiplies its factors in another
    order, so it agrees to 1e-15 relative."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(20816)
        for name in ("desk", "desk_variable_g"):
            field = load_config(config_path(name))
            for x in ([0.0, 0.0, 0.0, 0.0], [0.1, 0.35, 0.2, 0.4]):
                here = sample(field, np.array(x))
                for tag in ("time-future", "space-like"):
                    for y in random_admissible(here, rng, tag, 25, margin=0.05):
                        yield here, tag, y

    def test_profiles_are_bit_equal(self):
        for here, tag, y in self._cases():
            chi = uar_to_angles(here, y).chi
            if tag == "time-future":
                expected = _reference.time_profiles(chi, here.g, here.h_time)
                assert _profiles(chi, here.g, here.h_time, 1) == expected
            else:
                expected = _reference.space_profiles(chi, here.g, here.h_space)
                assert _profiles(chi, here.g, here.h_space, -1) == expected

    def test_chart_is_bit_equal(self):
        for here, tag, y in self._cases():
            p = uar_to_angles(here, y)
            expected = _reference.uar_from_angles_float64(here, p.z0, p.eta, p.phi, p.chi, tag)
            assert np.array_equal(uar_from_angles(here, p, tag), expected)

    def test_chart_jacobian_matches(self):
        for here, tag, y in self._cases():
            p = uar_to_angles(here, y)
            h = here.h_time if tag == "time-future" else here.h_space
            jac = _chart_jacobian(p, here.g, h, tag)
            expected = _reference.chart_jacobian_float64(p.z0, p.eta, p.phi, p.chi, here.g, h, tag)
            assert np.max(np.abs(jac - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_zeta_inverse_is_bit_equal(self):
        for here, _, y in self._cases():
            zeta = zeta_map(here, y).zeta
            assert np.array_equal(zeta_inverse(here, zeta), _reference.zeta_inverse_float64(here, zeta))

    def test_chart_boost_is_bit_equal(self):
        for here, _, y in self._cases():
            assert uar_to_angles(here, y).eta == _reference.chart_eta_float64(_Direction(here, y))

    def test_scalar_product_is_bit_equal(self):
        cases = list(self._cases())
        pairs = 0
        for (here, tag, y1), (there, tag2, y2) in zip(cases, cases[1:]):
            if there is not here or tag2 != tag:
                continue
            d1, d2, exponent = _paired_records(here, y1, y2)
            try:
                tau = _pair_cosine(d1, d2)
            except DomainError:
                # a space-like pair past the circular domain subtends no angle
                with pytest.raises(DomainError):
                    scalar_product(here, y1, y2)
                continue
            expected = _reference.scalar_product_float64(d1, d2, tau, exponent)
            assert scalar_product(here, y1, y2) == expected
            pairs += 1
        assert pairs >= 100
