"""Sector classification, the scalar chain, and auxiliary vectors."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finsleroid import kinematics
from finsleroid.background import load_config, sample
from finsleroid.errors import DegenerateQ, GeometryError, NoConvergence, UnsupportedSector
from finsleroid.kinematics import NU_MIN_REL, aux_vectors, classify, random_admissible, scalars

from _reference import REF
from conftest import config_path

E0 = np.array([1.0, 0.0, 0.0, 0.0])
EX = np.array([0.0, 1.0, 0.0, 0.0])
AXIS = np.array([0.0, 0.0, 0.0, -1.0])


class TestClassification:
    @pytest.mark.parametrize(
        "y, tag, side",
        [
            ((1, 0, 0, 0), "time-future", "boundary"),
            ((1, 0.1, 0, 0.2), "time-future", "right"),
            ((1, 0, 0, -0.2), "time-future", "left"),
            ((0, 1, 0, 0), "space-like", "boundary"),
            ((0, 0, 0, -1), "space-like", "left"),
            ((0, 0.3, 0, -1), "space-like", "left"),
            ((0, 0, 0, 1), "unsupported", "right"),
            ((1, 1, 0, 0), "isotropic", "boundary"),
            ((-1, 0, 0, 0), "unsupported", "boundary"),
            ((-2, 0.1, 0.1, 0.5), "unsupported", "right"),
        ],
    )
    def test_reference_directions(self, desk, y, tag, side):
        sector = classify(desk, np.array(y, dtype=float))
        assert (sector.tag, sector.side) == (tag, side)

    def test_classification_hands_out_the_twelve_sectors(self, desk):
        assert len(set(kinematics._SECTORS.values())) == 12
        rng = np.random.default_rng(7)
        for y in [E0, EX, AXIS, -E0, np.array([1.0, 1.0, 0.0, 0.0]), *rng.standard_normal((50, 4))]:
            sector = classify(desk, y)
            assert sector is kinematics._SECTORS[sector.tag, sector.side]

    def test_supported_flag_and_sign(self, desk):
        assert classify(desk, E0).supported
        assert classify(desk, E0).eps == 1
        assert classify(desk, EX).eps == -1
        gap = classify(desk, np.array([1.0, 1.0, 0.0, 0.0]))
        assert not gap.supported
        with pytest.raises(UnsupportedSector):
            gap.eps

    def test_classification_scale_invariant(self, desk):
        for y in (E0, EX, AXIS, np.array([1.0, 0.2, -0.1, 0.4])):
            base = classify(desk, y)
            scaled = classify(desk, 17.0 * y)
            assert (base.tag, base.side) == (scaled.tag, scaled.side)

    def test_near_cone_wedge_boundaries(self, desk):
        # for y = (1, 0, 0, z) the augmented quadratic is 1 regardless of z,
        # and the time wedge requires g_minus < z < g_plus; crossing either
        # bound moves the direction into the unsupported gap
        g_plus = REF["g_plus_time"]
        g_minus = REF["g_minus_time"]
        assert classify(desk, np.array([1.0, 0.0, 0.0, 0.99 * g_plus])).tag == "time-future"
        assert classify(desk, np.array([1.0, 0.0, 0.0, 1.01 * g_plus])).tag == "unsupported"
        assert classify(desk, np.array([1.0, 0.0, 0.0, 0.99 * g_minus])).tag == "time-future"
        assert classify(desk, np.array([1.0, 0.0, 0.0, 1.01 * g_minus])).tag == "unsupported"


class TestScalarChain:
    def test_frozen_time_axis_values(self, desk):
        k = scalars(desk, E0)
        assert k.b == 0.0
        assert k.q == 1.0
        assert k.eps == 1
        assert k.h == pytest.approx(REF["h_time"], rel=1e-15)
        assert k.g_plus == pytest.approx(REF["g_plus_time"], rel=1e-15)
        assert k.g_minus == pytest.approx(REF["g_minus_time"], rel=1e-15)
        assert k.f == pytest.approx(REF["f_e0"], rel=1e-14)
        assert k.J == pytest.approx(REF["J_e0"], rel=1e-14)
        assert k.B == 1.0
        assert k.X == 0.25

    def test_frozen_space_values(self, desk):
        k = scalars(desk, EX)
        assert k.eps == -1
        assert k.h == pytest.approx(REF["h_space"], rel=1e-15)
        assert k.f == pytest.approx(REF["f_ex"], rel=1e-14)
        assert k.chi == pytest.approx(REF["chi_ex"], rel=1e-14)
        assert k.B == -1.0
        assert k.A == pytest.approx(0.3, rel=1e-15)

    def test_axis_ray_chain(self, desk):
        k = scalars(desk, AXIS)
        assert k.eps == -1
        assert k.b == -1.0
        assert k.q == 0.0
        assert k.f == 0.0
        assert k.J == 1.0
        assert k.B == -1.0

    def test_space_angle_range(self, desk):
        rng = np.random.default_rng(5)
        for y in random_admissible(desk, rng, "space-like", 50):
            f = scalars(desk, y).f
            assert -np.pi < f <= 0.0

    def test_unsupported_direction_raises(self, desk):
        with pytest.raises(UnsupportedSector):
            scalars(desk, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_unsupported_message_prints_plain_floats(self, desk):
        message = r"^direction \(-1\.0, 0\.1, 0\.0, 0\.2\) is unsupported \(side right\)$"
        with pytest.raises(UnsupportedSector, match=message):
            scalars(desk, np.array([-1.0, 0.1, 0.0, 0.2]))

    def test_positive_homogeneity(self, desk):
        rng = np.random.default_rng(6)
        for tag in ("time-future", "space-like"):
            for y in random_admissible(desk, rng, tag, 10, margin=0.02):
                k1 = scalars(desk, y)
                k2 = scalars(desk, 3.5 * y)
                assert k2.b == pytest.approx(3.5 * k1.b, rel=1e-12, abs=1e-12)
                assert k2.q == pytest.approx(3.5 * k1.q, rel=1e-12)
                assert k2.B == pytest.approx(3.5**2 * k1.B, rel=1e-12)
                assert k2.f == pytest.approx(k1.f, rel=1e-10, abs=1e-12)
                assert k2.J == pytest.approx(k1.J, rel=1e-10)


class TestIdentityBank:
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_cone_quadratic_factorisations(self, desk, tag):
        rng = np.random.default_rng(7)
        g = desk.g
        for y in random_admissible(desk, rng, tag, 40, margin=0.01):
            k = scalars(desk, y)
            scale = max(k.q * k.q, k.b * k.b)
            if k.eps > 0:
                factored = (k.b - k.g_minus * k.q) * (k.g_plus * k.q - k.b)
                assert abs(k.B - factored) / scale < 1e-12
                assert abs(k.B - (k.h**2 * k.q**2 - k.A**2)) / scale < 1e-12
                assert abs(k.B - (k.L**2 - k.h**2 * k.b**2)) / scale < 1e-12
                assert abs(k.g_plus * (-k.g_minus) - 1.0) < 1e-12
            else:
                assert abs(-k.B - (k.q**2 + g * k.b * k.q + k.b**2)) / scale < 1e-12
                assert abs(-k.B - (k.h**2 * k.q**2 + k.A**2)) / scale < 1e-12
                assert abs(-k.B - (k.L**2 + k.h**2 * k.b**2)) / scale < 1e-12

    @pytest.mark.parametrize("config", ["desk", "desk_c09"])
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_dual_radius_relation(self, config, tag, desk, c09):
        here = desk if config == "desk" else c09
        g = here.g
        c = here.c
        rng = np.random.default_rng(8)
        for y in random_admissible(here, rng, tag, 25, margin=0.01):
            k = scalars(here, y)
            scale = max(k.q * k.q, k.b * k.b)
            lhs = k.b * (k.b + g * c * c * k.q)
            rhs = -k.B + k.eps * k.q * k.nu
            assert abs(lhs - rhs) / scale < 1e-11

    def test_trace_weight_at_unit_norm(self, desk):
        rng = np.random.default_rng(9)
        for tag in ("time-future", "space-like"):
            for y in random_admissible(desk, rng, tag, 10):
                assert scalars(desk, y).X == 0.25


class TestAngularPartials:
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_angle_and_weight_gradients(self, desk, tag):
        """FD of (f, J^2) in the direction argument against the closed forms
        -(h q / B) e_i and +(g q / B) J^2 e_k."""
        rng = np.random.default_rng(10)
        step = 1e-6
        for y in random_admissible(desk, rng, tag, 8, margin=0.1):
            k = scalars(desk, y)
            aux = aux_vectors(desk, y, k)
            grad_f = np.zeros(4)
            grad_j2 = np.zeros(4)
            for i in range(4):
                up = y.copy()
                dn = y.copy()
                up[i] += step
                dn[i] -= step
                ku = scalars(desk, up)
                kd = scalars(desk, dn)
                grad_f[i] = (ku.f - kd.f) / (2 * step)
                grad_j2[i] = (ku.J**2 - kd.J**2) / (2 * step)
            closed_f = -(k.h * k.q / k.B) * aux.e
            closed_j2 = (desk.g * k.q / k.B) * k.J**2 * aux.e
            assert np.max(np.abs(grad_f - closed_f)) < 1e-7
            assert np.max(np.abs(grad_j2 - closed_j2)) < 1e-7


class TestAuxVectors:
    @pytest.mark.parametrize("config", ["desk", "desk_c09"])
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_transverse_identities(self, config, tag, desk, c09):
        here = desk if config == "desk" else c09
        c = here.c
        rng = np.random.default_rng(11)
        for y in random_admissible(here, rng, tag, 20, margin=0.01):
            k = scalars(here, y)
            aux = aux_vectors(here, y, k)
            gamma = k.eps * k.q * k.q
            assert float(aux.u @ aux.v_contra) == pytest.approx(gamma, rel=1e-12, abs=1e-12)
            assert float(aux.v_cov @ y) == pytest.approx(gamma, rel=1e-12, abs=1e-12)
            assert float(aux.v_cov @ here.b_contra) == pytest.approx(
                (1 - c * c) * k.b, rel=1e-11, abs=1e-12
            )
            assert float(aux.v_cov @ aux.v_contra) == pytest.approx(
                gamma + (1 - c * c) * k.b * k.b, rel=1e-11, abs=1e-12
            )
            # the angular gradient direction is orthogonal to the direction
            assert abs(float(aux.e @ y)) < 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_axis_ray_has_no_angular_direction(self, desk):
        with pytest.raises(DegenerateQ):
            aux_vectors(desk, AXIS, scalars(desk, AXIS))


class TestRandomAdmissible:
    def test_count_tag_and_norm(self, desk):
        rng = np.random.default_rng(12)
        for tag in ("time-future", "space-like"):
            batch = random_admissible(desk, rng, tag, 30)
            assert batch.shape == (30, 4)
            for y in batch:
                assert classify(desk, y).tag == tag
                assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12)

    def test_margin_keeps_wedge_distance(self, desk):
        rng = np.random.default_rng(13)
        for y in random_admissible(desk, rng, "time-future", 30, margin=0.1):
            k = scalars(desk, y)
            assert k.b - k.g_minus * k.q > 0.1
            assert k.g_plus * k.q - k.b > 0.1

    def test_deterministic_given_seed(self, desk):
        one = random_admissible(desk, np.random.default_rng(99), "space-like", 5)
        two = random_admissible(desk, np.random.default_rng(99), "space-like", 5)
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_degenerate_dual_radius_draws_skipped(self, c09, seed):
        # classify ignores c, so the unit-norm twin draws the same stream
        # with the dual-radius rejection switched off
        plain = random_admissible(
            dataclasses.replace(c09, c=1.0), np.random.default_rng(seed), "space-like", 300
        )
        b = plain @ c09.b_cov
        q = np.sqrt(np.abs(np.einsum("ni,ij,nj->n", plain, c09.a, plain) + b * b))
        keep = q + (1.0 - c09.c**2) * c09.g * b > NU_MIN_REL
        assert keep.sum() == (300 if seed == 0 else 299)
        kept = random_admissible(c09, np.random.default_rng(seed), "space-like", int(keep.sum()))
        assert np.array_equal(kept, plain[keep])
        for y in kept:
            assert scalars(c09, y).nu > 0.0

    def test_exhaustion_raises_no_convergence(self, desk):
        # no unit direction clears a margin of 2, so every try is rejected
        message = "^rejection sampling exhausted 50 tries with 0/1 accepted$"
        with pytest.raises(NoConvergence, match=message) as caught:
            random_admissible(
                desk, np.random.default_rng(0), "time-future", 1, margin=2.0, max_tries=50
            )
        assert isinstance(caught.value, GeometryError)


SHIPPED = ["desk", "desk_shifted_b", "desk_variable_g", "desk_curved_a", "desk_c09"]


@pytest.mark.parametrize("config_name", SHIPPED)
def test_orientation_matches_adapted_frame(config_name):
    """``classify`` orients by the stored time leg; the sign is the frame's."""
    field = load_config(config_path(config_name))
    rng = np.random.default_rng(31)
    for x in (np.zeros(4), np.array([0.1, 0.2, 0.3, 0.4])):
        here = sample(field, x)
        ys = rng.standard_normal((400, 4))
        frame_side = ys @ here.frame[0] > 0.0
        assert np.array_equal(np.array([here.time_leg @ here.a @ y > 0.0 for y in ys]), frame_side)
        tags = [classify(here, y).tag for y in ys]
        assert "time-future" in tags
        for tag, future in zip(tags, frame_side):
            assert tag != "time-future" or future


def _null_shell(here, rng, count):
    """Directions on the augmented null shell ``gamma = 0``, both support sides."""
    m = here.a + np.outer(here.b_cov, here.b_cov)
    u = here.time_leg
    out = []
    while len(out) < 2 * count:
        v = rng.standard_normal(4)
        mvv, muv, muu = v @ m @ v, u @ m @ v, u @ m @ u
        if mvv >= 0.0:
            continue
        for s in np.roots([mvv, 2.0 * muv, muu]):
            out.append(u + s * v)
    return out + [-y for y in out]


def _chain_or_error(here, y):
    try:
        return scalars(here, y)
    except GeometryError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("config_name", SHIPPED)
def test_default_sector_chain_equals_classified_chain(config_name):
    """``scalars`` classifies its own measurement exactly as ``classify`` does:
    a supported direction gets the sector sign ``classify`` gives (or a guard
    below unit norm refuses it), and any other is refused with the tag and
    side ``classify`` gives."""
    field = load_config(config_path(config_name))
    rng = np.random.default_rng(41)
    for x in (np.zeros(4), np.array([0.1, 0.2, 0.3, 0.4])):
        here = sample(field, x)
        axis = [here.b_contra, -here.b_contra, np.eye(4)[0], np.eye(4)[3], -np.eye(4)[3]]
        shell = _null_shell(here, rng, 10)
        shell_sectors = {(classify(here, y).tag, classify(here, y).side) for y in shell}
        assert ("space-like", "left") in shell_sectors
        assert ("unsupported", "right") in shell_sectors
        for y in [*axis, *shell, *rng.standard_normal((200, 4))]:
            sector, chain = classify(here, y), _chain_or_error(here, y)
            if not sector.supported:
                message = f"direction {tuple(y.tolist())} is {sector.tag} (side {sector.side})"
                assert chain == (UnsupportedSector, message)
            elif isinstance(chain, tuple):
                assert chain[0] is not UnsupportedSector
            else:
                assert chain.eps == sector.eps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    components=st.tuples(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
)
def test_supported_chains_satisfy_norm_identity_property(desk_session, components):
    """For any supported direction, B * J^2 factors the squared norm with
    sector sign eps matching the sign of gamma."""
    y = np.array(components)
    if np.linalg.norm(y) < 1e-3:
        return
    sector = classify(desk_session, y)
    if not sector.supported:
        return
    k = scalars(desk_session, y)
    assert k.eps == sector.eps
    gamma = float(y @ desk_session.a @ y) + float(desk_session.b_cov @ y) ** 2
    assert k.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-12)
    assert np.sign(k.B) == k.eps or k.B == 0.0
    assert k.J > 0.0


@pytest.fixture(scope="module")
def desk_session():
    from finsleroid.background import BackgroundField, sample

    field = BackgroundField.constant(
        a=[1.0, -1.0, -1.0, -1.0], b_cov=[0.0, 0.0, 0.0, 1.0], g=0.6
    )
    return sample(field, np.zeros(4))
