"""Direction-dependent metric stack: closed forms against frozen values and FD."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsleroid import metric
from finsleroid.background import BackgroundField, load_config, sample
from finsleroid.errors import (
    CNotUnit,
    DegenerateNu,
    DegenerateQ,
    GeometryError,
    NullCartan,
    UnsupportedSector,
)
from finsleroid.kinematics import classify, random_admissible, scalars
from finsleroid.metric import (
    angular_metric,
    cartan_norm,
    cartan_tensor,
    cartan_vector,
    covariant_momentum,
    determinant_ratio,
    frame_components,
    indicatrix_curvature,
    inverse_metric,
    metric_bundle,
    metric_function,
    metric_tensor,
)
from finsleroid.numdiff import (
    TOL_DET_RATIO,
    TOL_EULER_CHAIN,
    TOL_METRIC_INVERSE,
    FDConfig,
    _stencil,
    fd_gradient,
    fd_jacobian,
)
from finsleroid.spray import _spray, spray_coefficients

from conftest import config_path
from _reference import REF

E0 = np.array([1.0, 0.0, 0.0, 0.0])
EX = np.array([0.0, 1.0, 0.0, 0.0])
AXIS = np.array([0.0, 0.0, 0.0, -1.0])
Y_TIME = np.array([1.0, 0.1, -0.05, 0.12])
Y_SPACE = np.array([0.2, 1.0, 0.3, -0.4])


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1.0)


class TestFrozenValues:
    def test_squared_norm_time(self, desk):
        assert rel_err(metric_function(desk, E0), REF["F2_e0"]) < 1e-13

    def test_squared_norm_space(self, desk):
        assert rel_err(metric_function(desk, EX), REF["F2_ex"]) < 1e-13

    def test_covariant_momentum_components(self, desk):
        y_cov = covariant_momentum(desk, E0)
        assert rel_err(y_cov[0], REF["y_cov_e0_0"]) < 1e-13
        assert abs(y_cov[1]) == 0.0
        assert abs(y_cov[2]) == 0.0
        assert rel_err(y_cov[3], REF["y_cov_e0_3"]) < 1e-13

    def test_determinant_ratio(self, desk):
        assert rel_err(determinant_ratio(desk, E0), REF["det_ratio_e0"]) < 1e-13

    def test_cubic_norm(self, desk):
        assert rel_err(cartan_norm(desk, E0), REF["CC_e0"]) < 1e-13

    @pytest.mark.parametrize("y", [E0, EX, Y_TIME, Y_SPACE], ids=["e0", "ex", "time", "space"])
    def test_cubic_norm_product_is_sector_constant(self, desk, y):
        """F^2 * C_h C^h depends only on the sector: -(dim^2 g^2/4) time, + space."""
        eps = scalars(desk, y).eps
        product = metric_function(desk, y) * cartan_norm(desk, y)
        assert abs(product - (-eps) * REF["cc_product"]) < 1e-10

    def test_axis_ray_values(self, desk):
        """The ray with zero transverse radius keeps the norm-level closed forms."""
        assert metric_function(desk, AXIS) == -1.0
        assert determinant_ratio(desk, AXIS) == 1.0
        product = metric_function(desk, AXIS) * cartan_norm(desk, AXIS)
        assert abs(product - REF["cc_product"]) < 1e-13


class TestEulerChain:
    """Half-gradient and direction-Hessian of F^2 reproduce momentum and metric."""

    CASES = [
        ("desk", Y_TIME), ("desk", Y_SPACE),
        ("desk_shifted_b", Y_TIME), ("desk_shifted_b", Y_SPACE),
        ("desk_variable_g", Y_TIME), ("desk_variable_g", Y_SPACE),
        ("desk_curved_a", Y_TIME), ("desk_curved_a", Y_SPACE),
    ]

    @pytest.mark.parametrize("config_name,y", CASES, ids=lambda v: v if isinstance(v, str) else ("t" if v[1] > 0.5 else "s"))
    def test_momentum_is_half_gradient(self, config_name, y):
        field = load_config(config_path(config_name))
        here = sample(field, np.array([0.1, 0.2, 0.3, 0.4]))
        sector = classify(here, y)
        assert sector.supported
        grad = fd_gradient(lambda v: metric_function(here, v), y)
        closed = covariant_momentum(here, y)
        assert np.max(np.abs(0.5 * grad - closed)) < TOL_EULER_CHAIN

    @pytest.mark.parametrize("config_name,y", CASES, ids=lambda v: v if isinstance(v, str) else ("t" if v[1] > 0.5 else "s"))
    def test_metric_is_momentum_jacobian(self, config_name, y):
        field = load_config(config_path(config_name))
        here = sample(field, np.array([0.1, 0.2, 0.3, 0.4]))
        jac = fd_jacobian(lambda v: covariant_momentum(here, v), y)
        closed = metric_tensor(here, y)
        assert np.max(np.abs(jac - closed)) < TOL_EULER_CHAIN
        assert np.max(np.abs(jac - jac.T)) < TOL_EULER_CHAIN


class TestInverseAndDeterminant:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_inverse_congruence(self, desk, y):
        product = metric_tensor(desk, y) @ inverse_metric(desk, y)
        assert np.max(np.abs(product - np.eye(4))) < TOL_METRIC_INVERSE

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_inverse_congruence_sub_unit_norm(self, c09, y):
        product = metric_tensor(c09, y) @ inverse_metric(c09, y)
        assert np.max(np.abs(product - np.eye(4))) < TOL_METRIC_INVERSE

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_determinant_closed_vs_numeric(self, desk, y):
        numeric = np.linalg.det(metric_tensor(desk, y)) / np.linalg.det(desk.a)
        assert abs(determinant_ratio(desk, y) - numeric) < TOL_DET_RATIO

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_determinant_closed_vs_numeric_sub_unit_norm(self, c09, y):
        numeric = np.linalg.det(metric_tensor(c09, y)) / np.linalg.det(c09.a)
        assert abs(determinant_ratio(c09, y) - numeric) < TOL_DET_RATIO


class TestContractions:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_metric_contracts_to_momentum(self, desk, y):
        g_cov = metric_tensor(desk, y)
        y_cov = covariant_momentum(desk, y)
        assert np.max(np.abs(g_cov @ y - y_cov)) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_norm_is_momentum_contraction(self, desk, y):
        assert abs(covariant_momentum(desk, y) @ y - metric_function(desk, y)) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_inverse_raises_momentum(self, desk, y):
        raised = inverse_metric(desk, y) @ covariant_momentum(desk, y)
        assert np.max(np.abs(raised - y)) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_angular_metric_annihilates_direction(self, desk, y):
        h_ang = angular_metric(desk, y)
        assert np.max(np.abs(h_ang @ y)) < 1e-12
        assert np.max(np.abs(h_ang - h_ang.T)) < 1e-14

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_mixed_traces(self, desk, y):
        g_contra = inverse_metric(desk, y)
        assert abs(np.einsum("ij,ij->", g_contra, metric_tensor(desk, y)) - 4.0) < 1e-12
        assert abs(np.einsum("ij,ij->", g_contra, angular_metric(desk, y)) - 3.0) < 1e-12


class TestCubicForm:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_full_symmetry(self, desk, y):
        c3 = cartan_tensor(desk, y)
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert np.max(np.abs(c3 - np.transpose(c3, perm))) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_direction_contraction_vanishes(self, desk, y):
        c3 = cartan_tensor(desk, y)
        assert np.max(np.abs(np.einsum("ijk,k->ij", c3, y))) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_trace_recovers_contracted_vector(self, desk, y):
        c3 = cartan_tensor(desk, y)
        g_contra = inverse_metric(desk, y)
        c_cov, c_contra = cartan_vector(desk, y)
        trace = np.einsum("jk,ijk->i", g_contra, c3)
        assert np.max(np.abs(trace - c_cov)) < 1e-12
        assert np.max(np.abs(g_contra @ c_cov - c_contra)) < 1e-12

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_vector_orthogonal_to_direction(self, desk, y):
        c_cov, c_contra = cartan_vector(desk, y)
        assert abs(c_cov @ y) < 1e-12
        assert abs(c_contra @ covariant_momentum(desk, y)) < 1e-12
        assert abs(c_cov @ c_contra - cartan_norm(desk, y)) < 1e-12

    def test_cubic_form_fd_cross_check(self, desk):
        """C_ijk is half the direction-derivative of the metric tensor."""
        y = Y_TIME
        jac = fd_jacobian(
            lambda v: metric_tensor(desk, v).reshape(-1), y
        ).reshape(4, 4, 4)
        closed = 2.0 * cartan_tensor(desk, y)  # dg_ij/dy^k = 2 C_ijk
        assert np.max(np.abs(np.transpose(jac, (1, 2, 0)) - closed)) < 1e-4

    def test_zero_charge_degenerates(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], 0.0)
        flat = sample(field, np.zeros(4))
        c_cov, c_contra = cartan_vector(flat, Y_TIME)
        assert np.all(c_cov == 0.0) and np.all(c_contra == 0.0)
        assert cartan_norm(flat, Y_TIME) == 0.0
        with pytest.raises(NullCartan):
            cartan_tensor(flat, Y_TIME)

    def test_zero_charge_metric_is_base(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], 0.0)
        flat = sample(field, np.zeros(4))
        assert np.max(np.abs(metric_tensor(flat, Y_TIME) - flat.a)) < 1e-15
        assert abs(metric_function(flat, Y_TIME) - Y_TIME @ flat.a @ Y_TIME) < 1e-15


class TestCurvature:
    @pytest.mark.parametrize("g", [0.3, 0.6, 1.2])
    def test_charge_grid(self, g):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], g)
        here = sample(field, np.zeros(4))
        assert abs(indicatrix_curvature(here, Y_TIME) - (-(1.0 + g * g / 4.0))) < 1e-9
        assert abs(indicatrix_curvature(here, Y_SPACE) - (1.0 - g * g / 4.0)) < 1e-9

    def test_reference_values(self, desk):
        assert abs(indicatrix_curvature(desk, E0) - REF["curvature_time"]) < 1e-12
        assert abs(indicatrix_curvature(desk, EX) - REF["curvature_space"]) < 1e-12

    def test_plane_independence(self, desk):
        values = [
            indicatrix_curvature(desk, Y_TIME, seeds=pair)
            for pair in [None, (1, 2), (2, 3), ((0.3, 1.0, 0.2, 0.0), (0.0, 0.1, 1.0, 0.4))]
        ]
        assert max(values) - min(values) < 1e-9

    def test_direction_independence(self, desk):
        rng = np.random.default_rng(7)
        draws = random_admissible(desk, rng, "time-future", 6, margin=0.1)
        values = [indicatrix_curvature(desk, y) for y in draws]
        assert max(values) - min(values) < 1e-9

    def test_zero_charge_exact(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], 0.0)
        flat = sample(field, np.zeros(4))
        assert indicatrix_curvature(flat, Y_TIME) == -1.0
        assert indicatrix_curvature(flat, Y_SPACE) == 1.0

    def test_requires_unit_preferred_norm(self, c09):
        with pytest.raises(CNotUnit):
            indicatrix_curvature(c09, Y_TIME)

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_cubic_commutator_identity(self, desk, y):
        """F^2 (C.C - C.C) = eps g^2/4 (h x h - h x h) on the angular block."""
        eps = scalars(desk, y).eps
        g_charge = desk.g
        f2 = metric_function(desk, y)
        h_ang = angular_metric(desk, y)
        c3 = cartan_tensor(desk, y)
        c_mixed = np.einsum("ha,ian->ihn", inverse_metric(desk, y), c3)
        riem = np.einsum("inh,jhm->ijmn", c3, c_mixed) - np.einsum("imh,jhn->ijmn", c3, c_mixed)
        rhs = (eps * g_charge**2 / 4.0) * (
            np.einsum("im,jn->ijmn", h_ang, h_ang) - np.einsum("in,jm->ijmn", h_ang, h_ang)
        )
        assert np.max(np.abs(f2 * riem - rhs)) < 1e-12

    @pytest.mark.parametrize(
        "seeds", [None, (0, 2), (3, 1), ((0.3, 1.0, 0.2, 0.0), (0.0, 0.1, 1.0, 0.4))]
    )
    @pytest.mark.parametrize("tag", ["time-future", "space-like"])
    def test_tangent_pair_returns_the_forms_of_its_pair(self, desk, tag, seeds):
        """The forms come back bit-equal to the products the curvature formed."""
        rng = np.random.default_rng(19)
        for y in random_admissible(desk, rng, tag, 8, margin=0.05):
            d = metric._Direction(desk, y)
            h = d.h_ang
            u, v, huu, hvv, huv = metric._projected_pair(d.g_cov, h, d.y, d.f2, seeds)
            forms = (float(u @ h @ u), float(v @ h @ v), float(u @ h @ v))
            assert [f.hex() for f in (huu, hvv, huv)] == [f.hex() for f in forms]

    def test_tangent_pair_seeds_share_one_read_only_identity(self):
        eye = metric._identity(4)
        assert eye is metric._identity(4)
        assert not eye.flags.writeable
        assert np.array_equal(eye, np.eye(4))


class TestFrame:
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_congruence_with_tensor_route(self, desk, y):
        frame = frame_components(desk, y)
        legs = desk.frame_inv
        pulled = legs.T @ metric_tensor(desk, y) @ legs
        assert np.max(np.abs(frame.g_frame - pulled)) < 1e-12
        assert np.max(np.abs(frame.R - desk.frame @ y)) == 0.0

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_congruence_sub_unit_norm(self, c09, y):
        frame = frame_components(c09, y)
        pulled = c09.frame_inv.T @ metric_tensor(c09, y) @ c09.frame_inv
        assert np.max(np.abs(frame.g_frame - pulled)) < 1e-12

    def test_norm_carried_by_frame_components(self, desk):
        frame = frame_components(desk, Y_TIME)
        contraction = frame.R @ frame.g_frame @ frame.R
        assert abs(contraction - metric_function(desk, Y_TIME)) < 1e-12


class TestBundle:
    def test_bundle_matches_individual_routes(self):
        """Every bundle field is bit-equal to its single-function route."""
        configs = ("desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g")
        for config_name in configs:
            here = sample(load_config(config_path(config_name)), np.array([0.3, 0.1, 0.2, 0.4]))
            rng = np.random.default_rng(5)
            draws = [
                random_admissible(here, rng, tag, 3, margin=0.05)
                for tag in ("time-future", "space-like")
            ]
            for y in np.concatenate(draws):
                bundle = metric_bundle(here, y)
                c_cov, c_contra = cartan_vector(here, y)
                assert bundle.F2 == metric_function(here, y)
                assert np.array_equal(bundle.y_cov, covariant_momentum(here, y))
                assert np.array_equal(bundle.g_cov, metric_tensor(here, y))
                assert np.array_equal(bundle.g_contra, inverse_metric(here, y))
                assert bundle.det_ratio == determinant_ratio(here, y)
                assert np.array_equal(bundle.C_cov, c_cov)
                assert np.array_equal(bundle.C_contra, c_contra)
                assert bundle.CC == cartan_norm(here, y)
                assert np.array_equal(bundle.h_ang, angular_metric(here, y))
                if here.g == 0.0:
                    assert np.all(bundle.cartan == 0.0)
                else:
                    assert np.array_equal(bundle.cartan, cartan_tensor(here, y))

    def test_bundle_zero_charge_cartan_block(self):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], 0.0)
        flat = sample(field, np.zeros(4))
        bundle = metric_bundle(flat, Y_TIME)
        assert np.all(bundle.cartan == 0.0)
        assert bundle.CC == 0.0


class TestSharedChain:
    """Every metric-stack function reads one scalar chain per direction."""

    def test_one_chain_per_call(self, desk, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return scalars(*args, **kwargs)

        monkeypatch.setattr(metric, "scalars", counted)
        monkeypatch.setattr(metric, "_shared", None)  # no record left by an earlier test
        metric_bundle(desk, Y_TIME)
        assert len(calls) == 1
        calls.clear()
        indicatrix_curvature(desk, Y_SPACE)
        assert len(calls) == 1

    def test_bundle_axis_ray_names_metric_tensor(self, desk):
        message = "^metric tensor divides by the transverse radius, zero on the axis ray$"
        with pytest.raises(DegenerateQ, match=message):
            metric_bundle(desk, AXIS)

    def test_vanishing_contracted_form_raises_null_cartan(self, c09):
        """On the preferred axis below unit norm the contracted form is zero."""
        y = -c09.b_contra
        assert cartan_norm(c09, y) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NullCartan):
                cartan_tensor(c09, y)
            with pytest.raises(NullCartan):
                metric_bundle(c09, y)


CONFIGS = ("desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g")


@pytest.fixture(scope="module")
def config_samples():
    return {
        name: sample(load_config(config_path(name)), np.array([0.3, 0.1, 0.2, 0.4]))
        for name in CONFIGS
    }


def _bundle_of(d: metric._Direction) -> metric.MetricBundle:
    """``metric_bundle`` read from a fresh record, in stack order."""
    return metric.MetricBundle(
        F2=d.f2,
        y_cov=d.y_cov,
        g_cov=d.g_cov,
        g_contra=d.g_contra,
        det_ratio=d.det_ratio,
        C_cov=d.C_vectors[0],
        C_contra=d.C_vectors[1],
        CC=d.CC,
        h_ang=d.h_ang,
        cartan=np.zeros((d.sample.dim,) * 3) if d.null_charge else d.cartan,
    )


def _fresh(here, y) -> metric._Direction:
    return metric._Direction(here, np.array(y))


def _curvature_of(here, y) -> float:
    if not here.c_is_unit:
        raise CNotUnit("indicatrix curvature is implemented at unit preferred-direction norm")
    return _fresh(here, y).curvature(None)


#: every view that reads the shared record, with the same piece of a fresh one
SHARED_VIEWS = (
    (metric_function, lambda s, y: _fresh(s, y).f2),
    (covariant_momentum, lambda s, y: _fresh(s, y).y_cov),
    (metric_tensor, lambda s, y: _fresh(s, y).g_cov),
    (inverse_metric, lambda s, y: _fresh(s, y).g_contra),
    (determinant_ratio, lambda s, y: _fresh(s, y).det_ratio),
    (cartan_vector, lambda s, y: _fresh(s, y).C_vectors),
    (cartan_norm, lambda s, y: _fresh(s, y).CC),
    (angular_metric, lambda s, y: _fresh(s, y).h_ang),
    (cartan_tensor, lambda s, y: _fresh(s, y).cartan),
    (indicatrix_curvature, _curvature_of),
    (frame_components, lambda s, y: _fresh(s, y).frame),
    (metric_bundle, lambda s, y: _bundle_of(_fresh(s, y))),
    (spray_coefficients, lambda s, y: _spray(_fresh(s, y))),
)


def _flat(value) -> list:
    """The numbers and arrays of a view's result, in field order."""
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return [v for item in value for v in _flat(item)]
    return [value]


def _bits(value) -> list:
    """Shape and bytes of every number in a view's result."""
    return [(np.shape(v), np.asarray(v, dtype=float).tobytes()) for v in _flat(value)]


def _outcome(fn):
    """The bits of ``fn()``, or the type and message of the error it raises."""
    try:
        return _bits(fn())
    except GeometryError as exc:
        return type(exc), str(exc)


class TestSharedRecord:
    """The views read one shared record, and it gives the fresh record's bits."""

    @staticmethod
    def _directions(here):
        rng = np.random.default_rng(13)
        drawn = [
            random_admissible(here, rng, tag, 3, margin=0.05)
            for tag in ("time-future", "space-like")
        ]
        special = [
            here.b_contra,  # the preferred axis; at unit norm its guards raise DegenerateQ
            np.array([1.0, -0.0, 0.1, 0.2]),  # a signed zero
            np.array([1.0, 0.0, 0.1, 0.2]),  # the same values, other bytes
            np.array([-1.0, 0.1, 0.0, 0.2]),  # unsupported: building raises
        ]
        return [*np.concatenate(drawn), *special]

    @pytest.mark.parametrize("config_name", CONFIGS)
    def test_views_match_a_fresh_record_bit_for_bit(self, config_samples, config_name):
        here = config_samples[config_name]
        seen_errors = set()
        for y in self._directions(here):
            # forward, then backward: each view is met both building and hitting
            for view, piece in (*SHARED_VIEWS, *reversed(SHARED_VIEWS)):
                expected = _outcome(lambda: piece(here, y))
                assert _outcome(lambda: view(here, y)) == expected, (view.__name__, y)
                if isinstance(expected[0], type):
                    seen_errors.add(expected[0])
        guard = DegenerateQ if here.c_is_unit else CNotUnit
        assert {UnsupportedSector, guard} <= seen_errors

    def test_returned_arrays_are_read_only(self, desk):
        y = np.array([1.0, 0.3, -0.1, 0.2])
        fresh = _fresh(desk, y)
        for view, _ in SHARED_VIEWS[:-1]:  # the spray builds new arrays per call
            arrays = [v for v in _flat(view(desk, y)) if isinstance(v, np.ndarray)]
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 7.0
        assert _bits(metric_bundle(desk, y)) == _bits(_bundle_of(fresh))
        assert _bits(frame_components(desk, y)) == _bits(fresh.frame)


#: the array-valued pieces of a record (``y`` is the caller's own array)
ARRAY_PIECES = ("y_cov", "g_cov", "g_contra", "C_vectors", "h_ang", "cartan", "frame")


def _assert_read_only(d: metric._Direction) -> set[str]:
    """Each array piece of ``d`` that its guards allow is read-only; return
    the names of the pieces read."""
    read = set()
    for name in ARRAY_PIECES:
        try:
            value = getattr(d, name)
        except GeometryError:
            continue
        read.add(name)
        for arr in _flat(value):
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 7.0
    return read


class TestRecordArrays:
    """A record marks each array it makes read-only when it makes it, so the
    package's own readers hold the arrays the views return."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    def test_every_array_piece_is_read_only(self, config_samples, config_name):
        here = config_samples[config_name]
        rng = np.random.default_rng(47)
        read = set()
        for tag in ("time-future", "space-like"):
            for y in random_admissible(here, rng, tag, 4, margin=0.05):
                d = metric._Direction(here, y)
                read |= _assert_read_only(d)
                # desk_curved_a has zero charge: its contracted forms are zeros
                assert d.null_charge == (not np.any(d.C_vectors))
        # at zero charge the cubic form raises NullCartan
        assert read == set(ARRAY_PIECES) - ({"cartan"} if d.null_charge else set())


def _rows_outcome(samples, Y):
    """The bytes of the rows chain over ``(samples[k], Y[k])``, or the type and
    message of the error it raises."""
    try:
        return metric._f2_and_momentum_rows(samples, np.array(Y, dtype=float)).tobytes()
    except (GeometryError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _records_outcome(samples, Y):
    """The same from one record per row, built in row order."""
    rows = []
    try:
        for s, y in zip(samples, Y):
            d = metric._Direction(s, y)
            rows.append([d.f2, *d.y_cov])
    except (GeometryError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return np.array(rows).tobytes()


class TestRowsChain:
    """The batched ``[F^2, y_cov]`` chain gives every row the bytes of its own
    record, and a batch with a refused row raises what the first refused
    row's record raises."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    def test_rows_match_their_records_bit_for_bit(self, config_samples, config_name):
        here = config_samples[config_name]
        field = load_config(config_path(config_name))
        rng = np.random.default_rng(29)
        special = [
            here.b_contra,  # the preferred axis; below unit norm its row is refused
            np.array([1.0, -0.0, 0.1, 0.2]),  # a signed zero
            np.array([-0.0, 0.3, 0.1, 1.0]),
        ]
        for tag in ("time-future", "space-like"):
            drawn = random_admissible(here, rng, tag, 12)
            # one sample and many directions, as in the Euler route
            for y in [*special, None]:
                Y = drawn if y is None else np.vstack([drawn, y])
                batch = _rows_outcome([here] * len(Y), Y)
                assert batch == _records_outcome([here] * len(Y), Y)
            # many samples and one direction, as in the oracle route
            probes = [sample(field, x) for x in rng.uniform(0.0, 0.5, (16, 4))]
            y = random_admissible(probes[0], rng, tag, 1, margin=0.05)[0]
            Y = np.tile(y, (16, 1))
            assert isinstance(_rows_outcome(probes, Y), bytes)
            assert _rows_outcome(probes, Y) == _records_outcome(probes, Y)

    def test_stencil_across_a_cone_wall(self, config_samples):
        """Stencils around directions just inside the time-future cone, towards
        a space-like direction: their rows leave the sector."""
        here = config_samples["desk_shifted_b"]
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(20):
            inside = random_admissible(here, rng, "time-future", 1)[0]
            outside = random_admissible(here, rng, "space-like", 1)[0]
            lo, hi = 0.0, 1.0  # bisect for the last time-future point on the segment
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                y = (1.0 - mid) * inside + mid * outside
                lo, hi = (mid, hi) if classify(here, y).tag == "time-future" else (lo, mid)
            y = (1.0 - lo) * inside + lo * outside
            for step in (1e-6, 1e-3, 0.3):
                Y = _stencil(y, FDConfig(step_rel_first=step, richardson=True))
                outcome = _rows_outcome([here] * len(Y), Y)
                assert outcome == _records_outcome([here] * len(Y), Y)
                seen.add(outcome[0] if isinstance(outcome, tuple) else bytes)
                tags = {classify(here, row).tag for row in Y}
                seen.update(tags)
        assert {UnsupportedSector, bytes, "time-future", "space-like"} <= seen

    @pytest.mark.parametrize("c", [1.0, 0.8])
    def test_rows_on_a_full_base_metric(self, c):
        """A base metric with no zero entry, where ``y @ a`` and ``a @ y`` round
        differently: each product keeps the scalar chain's order."""
        rng = np.random.default_rng(43)
        frame = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        a = frame.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ frame
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(4)
        b *= c / np.sqrt(abs(b @ np.linalg.inv(a) @ b))
        here = sample(BackgroundField.constant(a, b, 0.6), np.zeros(4))
        for tag in ("time-future", "space-like"):
            Y = random_admissible(here, rng, tag, 16)
            assert _rows_outcome([here] * 16, Y) == _records_outcome([here] * 16, Y)
            Y = _stencil(Y[0], FDConfig(step_rel_first=1e-6, richardson=True))
            assert isinstance(_rows_outcome([here] * 16, Y), bytes)
            assert _rows_outcome([here] * 16, Y) == _records_outcome([here] * 16, Y)

    def test_transverse_radius_guard_alone(self):
        """At negative charge below unit norm the dual radius on the axis ray
        is positive, so the transverse-radius guard is the one that refuses."""
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.9], -0.6)
        here = sample(field, np.zeros(4))
        axis = np.array([np.sqrt(0.19), 0.0, 0.0, -1.0])
        Y = np.vstack([random_admissible(here, np.random.default_rng(47), "space-like", 3), axis])
        outcome = _rows_outcome([here] * 4, Y)
        assert outcome == _records_outcome([here] * 4, Y)
        message = "trace weight needs a positive transverse radius below unit norm"
        assert outcome == (DegenerateQ, message)

    def test_a_math_error_comes_from_its_row(self):
        """Near charge 2 the space-like weight's exponential overflows; before a
        later refused row, the batch raises that overflow, as the records do."""
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 0.9], 1.99999)
        here = sample(field, np.zeros(4))
        drawn = random_admissible(here, np.random.default_rng(53), "space-like", 3)
        Y = np.vstack([drawn, [-1.0, 0.1, 0.0, 0.2]])  # the last row is unsupported
        outcome = _rows_outcome([here] * 4, Y)
        assert outcome == _records_outcome([here] * 4, Y)
        assert outcome == (OverflowError, "math range error")

    def test_rows_of_subnormal_scale(self, c09):
        """Directions so short that ``gamma`` and ``q nu`` leave the normal
        float range, below unit norm."""
        seen = set()
        for y in random_admissible(c09, np.random.default_rng(41), "space-like", 6):
            for e in np.linspace(158.0, 163.0, 40):
                Y = np.array([y, y * 10.0**-e])
                outcome = _rows_outcome([c09] * 2, Y)
                assert outcome == _records_outcome([c09] * 2, Y)
                seen.add(outcome[0] if isinstance(outcome, tuple) else bytes)
        assert {bytes, UnsupportedSector, DegenerateQ} <= seen

    @pytest.mark.parametrize(
        "refused,error",
        [
            ([np.array([np.sqrt(0.19), 0.0, 0.0, -1.0])], DegenerateQ),  # zero transverse radius
            ([np.array([np.sqrt(0.19 - 0.0025), 0.0, 0.0, -1.0])], DegenerateNu),
            # the first refused row names the error
            ([np.array([np.sqrt(0.19 - 0.0025), 0.0, 0.0, -1.0]), np.array([-1.0, 0.1, 0.0, 0.2])],
             DegenerateNu),
            ([np.array([-1.0, 0.1, 0.0, 0.2]), np.array([np.sqrt(0.19), 0.0, 0.0, -1.0])],
             UnsupportedSector),
        ],
    )
    def test_guards_below_unit_norm(self, c09, refused, error):
        rng = np.random.default_rng(37)
        good = random_admissible(c09, rng, "space-like", 5)
        Y = np.vstack([good[:3], *refused, good[3:]])
        outcome = _rows_outcome([c09] * len(Y), Y)
        assert outcome == _records_outcome([c09] * len(Y), Y)
        assert outcome[0] is error


class TestGuards:
    def test_axis_ray_refusals(self, desk):
        for fn in (metric_tensor, inverse_metric, frame_components):
            with pytest.raises(DegenerateQ):
                fn(desk, AXIS)
        with pytest.raises(DegenerateQ):
            cartan_vector(desk, AXIS)

    def test_sub_unit_norm_axis_refusal(self, c09):
        y = np.array([np.sqrt(0.19), 0.0, 0.0, -1.0])  # zero transverse radius at c=0.9
        with pytest.raises(DegenerateQ):
            scalars(c09, y)

    def test_negative_dual_radius_refusal(self, c09):
        y = np.array([np.sqrt(0.19 - 0.0025), 0.0, 0.0, -1.0])
        with pytest.raises(DegenerateNu):
            scalars(c09, y)


@pytest.fixture(scope="module")
def desk_session():
    return sample(load_config(config_path("desk")), np.zeros(4))


@settings(max_examples=60, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_metric_stack_identities_property(desk_session, seed, tag):
    """Contractions, inverse congruence, and determinant agree on random directions."""
    rng = np.random.default_rng(seed)
    y = random_admissible(desk_session, rng, tag, 1, margin=0.05)[0]
    g_cov = metric_tensor(desk_session, y)
    g_contra = inverse_metric(desk_session, y)
    y_cov = covariant_momentum(desk_session, y)
    f2 = metric_function(desk_session, y)
    assert np.max(np.abs(g_cov @ g_contra - np.eye(4))) < TOL_METRIC_INVERSE
    assert np.max(np.abs(g_cov @ y - y_cov)) < 1e-11
    assert abs(y_cov @ y - f2) < 1e-11
    numeric = np.linalg.det(g_cov) / np.linalg.det(desk_session.a)
    assert abs(determinant_ratio(desk_session, y) - numeric) < TOL_DET_RATIO
    c_cov, c_contra = cartan_vector(desk_session, y)
    assert abs(c_cov @ c_contra - cartan_norm(desk_session, y)) < 1e-10
    assert abs(f2 * cartan_norm(desk_session, y) + scalars(desk_session, y).eps * REF["cc_product"]) < 1e-9
