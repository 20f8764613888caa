"""Geodesic spray: closed coefficients vs the FD oracle, integration, truncation."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from finsleroid import spray
from finsleroid.background import BackgroundField, load_config, sample
from finsleroid.errors import DomainError, GeometryError, NoConvergence
from finsleroid.kinematics import classify, random_admissible, scalars
from finsleroid.metric import (
    _Direction,
    _f2_and_momentum_rows,
    covariant_momentum,
    metric_function,
)
from finsleroid.numdiff import TOL_BERWALD, TOL_GEODESIC_F2, TOL_SPRAY_ORACLE, fd_hessian
from finsleroid.spray import (
    charge_slope_scalars,
    geodesic_integrate,
    spray_coefficients,
    spray_oracle,
)

from _reference import spray_float64
from conftest import config_path

X_PROBE = np.array([0.1, 0.2, 0.3, 0.4])
Y_TIME = np.array([1.0, 0.1, -0.05, 0.12])
Y_SPACE = np.array([0.2, 1.0, 0.3, -0.4])

VARYING = ["desk_shifted_b", "desk_variable_g", "desk_curved_a"]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


class TestClosedVsOracle:
    @pytest.mark.parametrize("config_name", VARYING)
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_routes_agree(self, config_name, y):
        field = load_config(config_path(config_name))
        here = sample(field, X_PROBE)
        assert classify(here, y).supported
        closed = spray_coefficients(here, y).G
        oracle = spray_oracle(field, X_PROBE, y)
        assert np.max(np.abs(closed - oracle)) < TOL_SPRAY_ORACLE

    @pytest.mark.parametrize("config_name", ["desk", "desk_c09"])
    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_constant_background_has_zero_spray(self, config_name, y):
        field = load_config(config_path(config_name))
        here = sample(field, X_PROBE)
        assert np.all(spray_coefficients(here, y).G == 0.0)
        assert np.max(np.abs(spray_oracle(field, X_PROBE, y))) < 1e-12


class TestChargeSlopes:
    """Closed charge-slopes of the scalar chain against FD over the charge."""

    DELTA = 1e-5

    def _pair(self, g_value):
        field = BackgroundField.constant([1.0, -1.0, -1.0, -1.0], [0.0, 0.0, 0.0, 1.0], g_value)
        return sample(field, np.zeros(4))

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_slope_of_angle_variable(self, desk, y):
        lo, hi = self._pair(0.6 - self.DELTA), self._pair(0.6 + self.DELTA)
        fd = (scalars(hi, y).f - scalars(lo, y).f) / (2.0 * self.DELTA)
        df_dg, _, _ = charge_slope_scalars(desk, scalars(desk, y))
        assert abs(fd - df_dg) < 1e-8

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_slope_of_log_weight(self, desk, y):
        lo, hi = self._pair(0.6 - self.DELTA), self._pair(0.6 + self.DELTA)
        fd = (np.log(scalars(hi, y).J ** 2) - np.log(scalars(lo, y).J ** 2)) / (2.0 * self.DELTA)
        _, w, _ = charge_slope_scalars(desk, scalars(desk, y))
        assert abs(fd - w) < 1e-8

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_slope_of_log_squared_norm(self, desk, y):
        lo, hi = self._pair(0.6 - self.DELTA), self._pair(0.6 + self.DELTA)
        fd = (
            np.log(abs(metric_function(hi, y))) - np.log(abs(metric_function(lo, y)))
        ) / (2.0 * self.DELTA)
        _, _, mbar = charge_slope_scalars(desk, scalars(desk, y))
        assert abs(fd - mbar) < 1e-8

    @pytest.mark.parametrize("y", [Y_TIME, Y_SPACE], ids=["time", "space"])
    def test_slope_of_momentum(self, desk, y):
        lo, hi = self._pair(0.6 - self.DELTA), self._pair(0.6 + self.DELTA)
        fd = (covariant_momentum(hi, y) - covariant_momentum(lo, y)) / (2.0 * self.DELTA)
        scal = scalars(desk, y)
        _, w, _ = charge_slope_scalars(desk, scal)
        j2 = scal.J * scal.J
        closed = -scal.q * desk.b_cov * j2 + w * covariant_momentum(desk, y)
        assert np.max(np.abs(fd - closed)) < 1e-8


@pytest.fixture(scope="module")
def curved():
    field = load_config(config_path("desk_curved_a"))
    return field, sample(field, X_PROBE)


class TestQuadraticSpray:
    """At zero charge the spray reduces to the base connection, quadratic in y."""

    def test_spray_is_connection_contraction(self, curved):
        _, here = curved
        for y in (Y_TIME, Y_SPACE):
            closed = spray_coefficients(here, y).G
            expected = np.einsum("inm,n,m->i", here.christoffel, y, y)
            assert np.array_equal(closed, expected)

    def test_quadratic_scaling(self, curved):
        _, here = curved
        g1 = spray_coefficients(here, Y_TIME).G
        g2 = spray_coefficients(here, 2.0 * Y_TIME).G
        assert np.max(np.abs(g2 - 4.0 * g1)) < 1e-12

    def test_direction_hessian_is_twice_connection(self, curved):
        _, here = curved
        for i in range(4):
            hess = fd_hessian(lambda v: spray_coefficients(here, v).G[i], Y_TIME)
            target = here.christoffel[i] + here.christoffel[i].T
            assert np.max(np.abs(hess - target)) < TOL_BERWALD


class TestGeodesics:
    def test_fixed_step_conserves_norm(self):
        field = load_config(config_path("desk_shifted_b"))
        traj = geodesic_integrate(field, [0.0, 0.3, 0.0, 0.0], Y_TIME, 1.0, method="rk4", step=1.0 / 256)
        assert traj.exit_reason is None
        assert traj.samples.shape == (257, 10)
        assert traj.F2_drift < TOL_GEODESIC_F2
        assert traj.length == 1.0
        assert traj.samples[-1, 0] == pytest.approx(1.0, abs=1e-12)
        s_col = traj.samples[:, 0]
        assert np.all(np.diff(s_col) > 0.0)

    def test_adaptive_conserves_norm(self):
        field = load_config(config_path("desk_shifted_b"))
        traj = geodesic_integrate(field, [0.0, 0.3, 0.0, 0.0], Y_TIME, 1.0, method="rk45", tol=1e-9)
        assert traj.exit_reason is None
        assert traj.F2_drift < TOL_GEODESIC_F2
        assert traj.samples.shape[0] < 257  # adaptive needs far fewer nodes here
        assert traj.samples[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_norm_column_matches_recomputation(self):
        field = load_config(config_path("desk_variable_g"))
        traj = geodesic_integrate(field, [0.0, 0.1, 0.0, 0.0], Y_SPACE, 0.5, method="rk4", step=0.5 / 64)
        row = traj.samples[31]
        here = sample(field, row[1:5])
        assert abs(row[9] - metric_function(here, row[5:9])) < 1e-14

    def test_deterministic_across_runs(self):
        field = load_config(config_path("desk_variable_g"))
        kwargs = dict(method="rk45", tol=1e-8)
        a = geodesic_integrate(field, [0.0, 0.1, 0.0, 0.0], Y_TIME, 1.0, **kwargs)
        b = geodesic_integrate(field, [0.0, 0.1, 0.0, 0.0], Y_TIME, 1.0, **kwargs)
        assert np.array_equal(a.samples, b.samples)

    def test_constant_background_runs_straight(self, desk_field):
        traj = geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="rk4", step=1.0 / 32)
        # zero spray: position moves linearly, velocity frozen
        assert np.max(np.abs(traj.samples[-1, 5:9] - Y_TIME)) < 1e-13
        assert np.max(np.abs(traj.samples[-1, 1:5] - Y_TIME)) < 1e-12
        assert traj.F2_drift < 1e-14


class TestTruncation:
    def test_invalid_region_truncates(self):
        """Crossing into the region where the preferred-direction norm exceeds 1."""
        field = load_config(config_path("desk_shifted_b"))
        traj = geodesic_integrate(
            field, [0.0, 0.05, 0.0, 0.0], [1.0, -0.5, 0.0, 0.12], 2.0, method="rk4", step=2.0 / 256
        )
        assert traj.exit_reason is not None
        assert "degenerated" in traj.exit_reason
        assert traj.length < 2.0
        assert traj.samples[-1, 0] == pytest.approx(traj.length, abs=1e-12)
        assert traj.samples.shape[0] >= 2  # keeps the good prefix

    def test_wedge_exit_truncates(self):
        field = load_config(config_path("desk_variable_g"))
        traj = geodesic_integrate(
            field, np.zeros(4), [1.0, 0.0, 0.0, 0.73], 30.0, method="rk4", step=30.0 / 512
        )
        assert traj.exit_reason is not None
        assert traj.length < 30.0


class TestAcceptNode:
    """``spray._accept_node`` on each way a node can end a run, and on a good one."""

    @staticmethod
    def accept(field, x, velocity, s_next=0.25, start_tag="time-future"):
        state = np.concatenate([x, velocity])
        return spray._accept_node(field, state, field.dim, start_tag, s_next)

    def test_space_like_velocity_exits(self, desk_field):
        assert self.accept(desk_field, X_PROBE, [0.2, 1.0, 0.0, 0.1]) == (
            None, "sector exit at s = 0.25: velocity became space-like"
        )

    def test_past_directed_velocity_exits(self, desk_field):
        assert self.accept(desk_field, X_PROBE, [-1.0, 0.1, 0.0, 0.2]) == (
            None, "sector exit at s = 0.25: velocity became unsupported"
        )

    def test_degenerate_node_is_the_reason(self):
        """At this node of the truncated golden run ``c^2 > 1``; the reason
        is the footer that run prints."""
        field = load_config(config_path("desk_shifted_b"))
        x = np.array([0.10149126682839262, -0.0007775201748309733, 0.0, 0.012053545040063375])
        footer = (GOLDEN / "geodesic_rk4_desk_shifted_b_truncated.out").read_text().splitlines()[-1]
        assert self.accept(field, x, [1.0, -0.5, 0.0, 0.12], 0.1015625) == (
            None, footer.removeprefix("# truncated: ")
        )

    def test_degenerate_record_in_the_start_sector_is_the_reason(self, c09_field):
        # on the left null shell below unit norm: space-like, but q = 0
        velocity = [np.sqrt(0.19), 0.0, 0.0, -1.0]
        assert self.accept(c09_field, X_PROBE, velocity, start_tag="space-like") == (
            None,
            "geometry degenerated at s = 0.25: "
            "trace weight needs a positive transverse radius below unit norm",
        )

    def test_last_stage_gives_the_record_only_at_the_node(self, sample_calls):
        """The step's last stage ``(state, record, k)`` gives the node's record
        when its state has the node's bytes and its record is in the start
        sector; otherwise the node is sampled and measured."""
        field = load_config(config_path("desk_shifted_b"))
        state = np.concatenate([X_PROBE, Y_TIME])
        record = _Direction(sample(field, X_PROBE), Y_TIME)
        nearby = state.copy()
        nearby[0] = np.nextafter(nearby[0], 1.0)

        def accept(start_tag, last_state):
            return spray._accept_node(field, state, 4, start_tag, 0.25, (last_state, record, None))

        node, reason = accept("time-future", state.copy())
        assert node is record and reason is None and not sample_calls
        node, reason = accept("time-future", nearby)
        assert node is not record and node.f2 == record.f2 and reason is None
        assert len(sample_calls) == 1
        node, reason = accept("space-like", state)
        assert (node, reason) == (None, "sector exit at s = 0.25: velocity became time-future")
        assert len(sample_calls) == 2

    @pytest.mark.parametrize("config_name", VARYING)
    def test_good_node_gives_the_record_of_its_sector(self, config_name):
        field = load_config(config_path(config_name))
        node, reason = self.accept(field, X_PROBE, Y_TIME)
        here = sample(field, X_PROBE)
        fresh = _Direction(here, Y_TIME)
        assert reason is None
        assert node.scal == fresh.scal
        assert node.f2 == fresh.f2


class TestInterface:
    def test_unknown_method_rejected(self, desk_field):
        with pytest.raises(ValueError):
            geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="euler")

    def test_adaptive_step_budget(self):
        field = load_config(config_path("desk_variable_g"))
        with pytest.raises(NoConvergence):
            geodesic_integrate(
                field, [0.0, 0.1, 0.0, 0.0], Y_TIME, 5.0, method="rk45", tol=1e-13, max_steps=3
            )

    def test_fixed_step_budget(self, desk_field):
        # eight steps of 1/8 against a budget of three: refused before any step
        with pytest.raises(NoConvergence, match="more than 3 steps"):
            geodesic_integrate(
                desk_field, np.zeros(4), Y_TIME, 1.0, method="rk4", step=1 / 8, max_steps=3
            )

    @pytest.mark.parametrize(
        "length,step",
        [(0.0, None), (-1.0, None), (np.inf, None), (np.nan, None), (1.0, 0.0), (1.0, -0.1)],
    )
    def test_non_positive_length_or_step_rejected(self, desk_field, length, step):
        with pytest.raises(ValueError, match="positive and finite"):
            geodesic_integrate(desk_field, np.zeros(4), Y_TIME, length, step=step)

    @pytest.mark.parametrize("tol", [1e-300, 1e-16, 0.0, -1e-9, np.nan, np.inf])
    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_unreachable_tolerance_rejected(self, desk_field, tol, method):
        """Below the float resolution an rk45 error estimate overflows, or reads
        0 for a step whose two orders agree bitwise, so such a ``tol`` is refused."""
        with pytest.raises(ValueError, match=r"tol must be finite and at least 2\.22"):
            geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method=method, tol=tol)


class TestStepsThatCannotAdvance:
    """A default step that underflows to zero is refused before integrating,
    and an rk45 step too small to advance ``s`` ends the run at once."""

    @pytest.mark.parametrize("method, length", [("rk4", 1e-320), ("rk45", 5e-324)])
    def test_default_step_that_underflows_is_refused(self, desk_field, method, length):
        with pytest.raises(ValueError, match=rf"default {method} step .* underflows to 0"):
            geodesic_integrate(desk_field, np.zeros(4), (1.0, 0.0, 0.0, 0.2), length, method=method)

    @pytest.mark.parametrize("length, step", [(2e-320, None), (1e-320, 1.0), (1e-306, None)])
    def test_rk4_step_whose_sixth_is_subnormal_is_refused(self, desk_field, length, step):
        """The update ``(h / 6) * (k1 + ...)`` would lose the motion; the check
        reads the step the loop takes, ``length / n_steps``, not the one asked for."""
        with pytest.raises(ValueError, match=r"rk4 step h = .* h / 6 below the normal float"):
            geodesic_integrate(desk_field, np.zeros(4), (1.0, 0.0, 0.0, 0.2), length, step=step)

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_tiny_length_whose_steps_stay_normal_runs(self, desk_field, method):
        """On ``desk`` the straight line from the origin has ``x0 = s``."""
        traj = geodesic_integrate(
            desk_field, np.zeros(4), (1.0, 0.0, 0.0, 0.2), 1e-300, method=method
        )
        assert traj.exit_reason is None
        s, x0 = traj.samples[-1, :2]
        assert s > 0.0 and abs(x0 - s) <= 1e-12 * s

    def test_step_that_does_not_advance_s_ends_the_run(self, desk_field, monkeypatch):
        # past x0 = 1/4 the right-hand side is scaled up by 1e30, so each step
        # that reaches there is rejected and the accepted steps close in on
        # s = 1/4 until a step no longer changes s
        rhs = spray._rhs

        def stiff_past_the_wall(field, state, dim, d=None):
            k, d = rhs(field, state, dim, d)
            return (1e30 * k if state[0] > 0.25 else k), d

        monkeypatch.setattr(spray, "_rhs", stiff_past_the_wall)
        with pytest.raises(NoConvergence, match=r"no longer advances s = 0\.25$"):
            geodesic_integrate(
                desk_field, np.zeros(4), Y_TIME, 1.0, method="rk45", max_steps=2000
            )


class TestAdaptiveRejections:
    """The rk45 loop rejects a step whose error estimate is not finite, and a
    run of rejections in a row ends in ``NoConvergence``."""

    def test_nan_error_estimate_is_rejected(self, desk_field, monkeypatch):
        calls = []
        rhs = spray._rhs

        def nan_after_the_first_stage(field, state, dim, d=None):
            calls.append(1)
            return rhs(field, state, dim, d) if len(calls) == 1 else (np.full(2 * dim, np.nan), d)

        monkeypatch.setattr(spray, "_rhs", nan_after_the_first_stage)
        bound = spray._MAX_REJECTED_IN_A_ROW
        with pytest.raises(NoConvergence, match=rf"rejected {bound + 1} steps in a row at s = 0$"):
            geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="rk45")
        # the start's stage, then six stages per rejected step; none accepted
        assert len(calls) == 1 + 6 * (bound + 1)


class TestStageFailures:
    """A ``GeometryError`` in a stage ends the run with its method's reason:
    rk4 names the end of the step, rk45 its start. In the run's first stage,
    rk4 truncates to the start node and rk45 raises."""

    @staticmethod
    def fail_at(monkeypatch, call):
        """Make the ``call``-th closed spray of the run raise."""
        calls = []
        closed = spray._spray

        def failing(d):
            calls.append(1)
            if len(calls) == call:
                raise GeometryError("forced")
            return closed(d)

        monkeypatch.setattr(spray, "_spray", failing)

    def test_rk4_later_stage(self, desk_field, monkeypatch):
        self.fail_at(monkeypatch, 4 * 2 + 2)  # the second stage of the third step
        traj = geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="rk4", step=1 / 8)
        assert traj.exit_reason == "geometry degenerated at s = 0.375: forced"
        assert traj.samples.shape[0] == 3 and traj.length == 0.25

    def test_rk45_later_stage(self, desk_field, monkeypatch):
        # the start's stage, then six per step: the third stage of the third step;
        # on desk the steps are 0.01 and 0.05
        self.fail_at(monkeypatch, 1 + 6 * 2 + 3)
        traj = geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="rk45")
        assert traj.exit_reason == "geometry degenerated near s = 0.06: forced"
        assert traj.samples.shape[0] == 3 and traj.length == 0.01 + 0.05

    def test_rk4_first_stage_truncates(self, desk_field, monkeypatch):
        self.fail_at(monkeypatch, 1)
        traj = geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="rk4", step=1 / 8)
        assert traj.exit_reason == "geometry degenerated at s = 0.125: forced"
        assert traj.samples.shape[0] == 1 and traj.length == 0.0

    def test_rk45_first_stage_raises(self, desk_field, monkeypatch):
        self.fail_at(monkeypatch, 1)
        with pytest.raises(GeometryError, match="^forced$"):
            geodesic_integrate(desk_field, np.zeros(4), Y_TIME, 1.0, method="rk45")


@pytest.fixture
def sample_calls(monkeypatch):
    """Count the background samples taken by the spray module."""
    calls: list[np.ndarray] = []

    def counting(field, x):
        calls.append(np.array(x))
        return sample(field, x)

    monkeypatch.setattr(spray, "sample_background", counting)
    return calls


class TestSampleReuse:
    def test_rk4_samples_each_node_once(self, sample_calls):
        field = load_config(config_path("desk_shifted_b"))
        n = 16
        traj = geodesic_integrate(field, X_PROBE, Y_TIME, 0.5, method="rk4", step=0.5 / n)
        assert traj.exit_reason is None and traj.samples.shape[0] == n + 1
        # the start node, then three stages and the new node per step
        assert len(sample_calls) == 4 * n + 1

    def test_rk45_node_takes_the_record_of_its_last_stage(self, sample_calls, monkeypatch):
        """The start, then six stages per attempted step, then each accepted
        node whose last stage does not have its bytes: the others reuse the
        record of that stage (first-same-as-last)."""
        steps = []
        dp45 = spray._dp45

        def recording(*args):
            steps.append(dp45(*args))
            return steps[-1]

        monkeypatch.setattr(spray, "_dp45", recording)
        field = load_config(config_path("desk_shifted_b"))
        rng = np.random.default_rng(31)
        y = random_admissible(sample(field, X_PROBE), rng, "space-like", 1)[0]
        traj = geodesic_integrate(field, X_PROBE, y, 0.5, method="rk45")
        assert traj.exit_reason is None
        nodes = {row[1:-1].tobytes() for row in traj.samples[1:]}
        accepted = len(traj.samples) - 1
        reused = sum(
            last[0].tobytes() == candidate.tobytes() and candidate.tobytes() in nodes
            for candidate, _, last in steps
        )
        assert 0 < reused < accepted
        assert len(sample_calls) == 1 + 6 * len(steps) + (accepted - reused)

    def test_oracle_samples_each_probe_once(self, sample_calls):
        field = load_config(config_path("desk_variable_g"))
        spray_oracle(field, X_PROBE, Y_TIME)
        # Richardson central differences: 4 probes per coordinate, plus the point
        assert len(sample_calls) == 4 * 4 + 1
        assert len({x.tobytes() for x in sample_calls}) == len(sample_calls)


@pytest.fixture(scope="module")
def shifted_field():
    return load_config(config_path("desk_shifted_b"))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
)
def test_spray_routes_agree_property(shifted_field, seed, tag):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 0.5, 4)
    here = sample(shifted_field, x)
    y = random_admissible(here, rng, tag, 1, margin=0.05)[0]
    closed = spray_coefficients(here, y).G
    oracle = spray_oracle(shifted_field, x, y)
    assert np.max(np.abs(closed - oracle)) < TOL_SPRAY_ORACLE


# --- bit equality with every term evaluated ----------------------------------

ALL_CONFIGS = ["desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g"]
ALL_FIELDS = {name: load_config(config_path(name)) for name in ALL_CONFIGS}


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_spray_matches_reference(here, y):
    """``_spray``, which skips the terms that are exactly zero here, gives the
    bits of the spray with every term evaluated; both refuse alike."""
    try:
        got = spray._spray(_Direction(here, y))
    except GeometryError as exc:
        with pytest.raises((type(exc), ArithmeticError)):
            spray_float64(_Direction(here, y))
        return
    want = spray_float64(_Direction(here, y))
    for piece, expected in zip((got.G, got.E, got.Mbar, got.f2, got.riem), want):
        assert_same_bits(piece, expected)


AXIS_DIRECTIONS = [
    (1.0, 0.0, 0.0, 0.2),
    (1.0, -0.0, 0.0, -0.2),
    (0.3, 1.0, 0.0, -0.2),
    (0.0, 1.0, -0.0, 0.0),
    (-0.0, 0.0, 0.0, -1.0),
]


@pytest.mark.parametrize("name", ALL_CONFIGS)
@pytest.mark.parametrize("y", AXIS_DIRECTIONS)
@pytest.mark.parametrize("x", [(0.0, 0.0, 0.0, 0.0), (-0.0, 0.2, -0.0, 0.1)])
def test_spray_bits_on_axis_directions(name, x, y):
    here = sample(ALL_FIELDS[name], x)
    assert classify(here, y).supported
    assert_spray_matches_reference(here, np.array(y))


@pytest.mark.parametrize("y", [(1e5, 0.0, 0.0, 0.0), (1e5, 0.0, 0.0, 1e3), (1e5, 0.0, 0.0, -1e3)])
def test_a_non_finite_measurement_is_refused(y):
    """On a constant field whose scales overflow ``gamma``, a time-future y of
    each support side measures ``gamma = inf``: the scalar chain refuses it
    with ``DomainError``, for the views, the spray and the rows chain alike,
    where the row after a finite one raises the record's own error."""
    field = BackgroundField.constant([1e300, -1e300, -1e300, -1e300], [0.0, 0.0, 0.0, 1e150], 0.6)
    here = sample(field, np.zeros(4))
    finite = np.array([1.0, 0.0, 0.0, 0.1])
    with np.errstate(all="ignore"):
        assert classify(here, y).tag == "time-future"
        assert classify(here, finite).tag == "time-future"
        with pytest.raises(DomainError, match="the scalar chain needs finite values") as record:
            _Direction(here, np.array(y))
        with pytest.raises(DomainError, match="the scalar chain needs finite values"):
            metric_function(here, y)
        with pytest.raises(DomainError, match="the scalar chain needs finite values"):
            spray_coefficients(here, y)
        assert np.isfinite(_f2_and_momentum_rows([here], finite[None, :])).all()
        with pytest.raises(DomainError) as rows:
            _f2_and_momentum_rows([here, here], np.array([finite, y]))
    assert str(rows.value) == str(record.value)


# exact zeros of both signs, and magnitudes whose squares do not underflow
_component = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(0.05, 1.0), st.floats(-1.0, -0.05)
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(ALL_CONFIGS),
    x=st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4),
    # a long time component puts about a third of the draws in the time-future cone
    y=st.tuples(st.one_of(_component, st.floats(1.5, 3.0)), _component, _component, _component),
)
@example(name="desk", x=[0.0, 0.0, 0.0, 0.0], y=(1.0, 0.0, 0.0, 0.2))
def test_spray_bits_property(name, x, y):
    here = sample(ALL_FIELDS[name], x)
    y_arr = np.array(y)
    tag = classify(here, y_arr).tag
    assume(tag in ("time-future", "space-like"))
    event(f"{name} {tag}")
    assert_spray_matches_reference(here, y_arr)
