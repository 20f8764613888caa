"""One scalar chain per (sample, direction) across the package.

Every module binding of ``kinematics.scalars`` (or ``kinematics.classify``, or
a private piece of the chain) is replaced by one counter, so a consumer that
rebuilt the chain, or classified a direction again, would show up as an extra
call.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from finsleroid import background, cli, kinematics, metric, spray
from finsleroid.anglegeo import angle_closed_form, uar_to_angles
from finsleroid.background import load_config, sample
from finsleroid.conformal import pushforward_metric_check
from finsleroid.dual import hamiltonian_numeric
from finsleroid.metric import (
    covariant_momentum,
    frame_components,
    indicatrix_curvature,
    inverse_metric,
    metric_bundle,
    metric_function,
    metric_tensor,
)
from finsleroid.spray import geodesic_integrate, spray_coefficients, spray_oracle

from conftest import config_path

X_PROBE = np.array([0.1, 0.2, 0.3, 0.4])
Y_TIME = np.array([1.0, 0.1, -0.05, 0.12])
Y_TIME_2 = np.array([1.0, -0.2, 0.1, 0.3])


def _count_calls(monkeypatch, original) -> list[tuple]:
    """Replace every package binding of ``original`` with one counter, which
    keeps the positional arguments of each call."""
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "finsleroid":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def chains(monkeypatch):
    """Scalar-chain calls made through any module of the package, counted
    from an empty shared slot of the public views."""
    monkeypatch.setattr(metric, "_shared", None)
    return _count_calls(monkeypatch, kinematics.scalars)


@pytest.fixture
def classifications(monkeypatch):
    """``classify`` calls made through any module of the package."""
    monkeypatch.setattr(metric, "_shared", None)
    return _count_calls(monkeypatch, kinematics.classify)


@pytest.fixture(scope="module")
def variable_g():
    return load_config(config_path("desk_variable_g"))


@pytest.fixture(scope="module")
def desk_here(desk_field):
    return sample(desk_field, X_PROBE)


def test_eval_views_share_one_chain(desk_here, chains):
    """The views the ``sweep`` benchmark calls per direction; 3 chains before
    the views shared their record."""
    metric_bundle(desk_here, Y_TIME)
    indicatrix_curvature(desk_here, Y_TIME)
    frame_components(desk_here, Y_TIME)
    assert len(chains) == 1
    spray_coefficients(desk_here, list(Y_TIME))  # equal bytes, given as a list
    assert len(chains) == 1


Y_ZEROS = np.array([1.0, 0.0, 0.1, 0.2])


@pytest.mark.parametrize("change", ["sample", "direction", "signed zero"])
def test_a_changed_key_builds_a_new_chain(desk_field, desk_here, chains, change):
    metric_tensor(desk_here, Y_ZEROS)
    assert len(chains) == 1
    args = {
        "sample": (sample(desk_field, X_PROBE), Y_ZEROS),  # equal values, new object
        "direction": (desk_here, Y_TIME),
        "signed zero": (desk_here, np.array([1.0, -0.0, 0.1, 0.2])),
    }[change]
    inverse_metric(*args)
    assert len(chains) == 2
    metric_function(*args)
    assert len(chains) == 2


def test_the_record_keeps_a_copy_of_the_direction(desk_here, chains):
    y = Y_ZEROS.copy()
    metric_function(desk_here, y)  # builds the record; the frame is not read yet
    y[1] = 0.3  # the caller changes its array in place
    frame = frame_components(desk_here, Y_ZEROS)  # the bytes the record was built for
    assert len(chains) == 1
    after = metric_tensor(desk_here, y)
    assert len(chains) == 2
    assert frame.R.tobytes() == metric._Direction(desk_here, Y_ZEROS).frame.R.tobytes()
    assert after.tobytes() == metric._Direction(desk_here, y).g_cov.tobytes()


def test_writing_into_a_view_leaves_the_next_view_intact(desk_here):
    fresh = metric._Direction(desk_here, Y_TIME)
    g_cov = metric_tensor(desk_here, Y_TIME)
    with pytest.raises(ValueError, match="read-only"):
        g_cov[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        metric_bundle(desk_here, Y_TIME).g_contra *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        frame_components(desk_here, Y_TIME).R[:] = 0.0
    bundle = metric_bundle(desk_here, Y_TIME)
    assert bundle.g_cov.tobytes() == fresh.g_cov.tobytes()
    assert bundle.g_contra.tobytes() == fresh.g_contra.tobytes()
    assert frame_components(desk_here, Y_TIME).R.tobytes() == fresh.frame.R.tobytes()


def test_spray_coefficients_reads_one_chain(variable_g, chains):
    spray = spray_coefficients(sample(variable_g, X_PROBE), Y_TIME)
    assert np.any(spray.E != 0.0)  # the charge-gradient part, which needs g^ij, ran
    assert len(chains) == 1


@pytest.fixture
def samples_taken(monkeypatch):
    """``background.sample`` calls made through any module of the package."""
    return _count_calls(monkeypatch, background.sample)


@pytest.fixture
def batch_rows(monkeypatch):
    """The row count of each rows-chain batch the spray module evaluates."""
    sizes: list[int] = []
    rows = spray._f2_and_momentum_rows

    def counted(samples, Y):
        sizes.append(len(Y))
        return rows(samples, Y)

    monkeypatch.setattr(spray, "_f2_and_momentum_rows", counted)
    return sizes


def test_spray_oracle_one_batch_of_probes(variable_g, chains, samples_taken, batch_rows):
    spray_oracle(variable_g, X_PROBE, Y_TIME)
    # Richardson central differences: 4 probes per coordinate, plus the point
    assert len(samples_taken) == 4 * 4 + 1
    # one batch over the probes, and one chain for the point's record
    assert batch_rows == [4 * 4]
    assert len(chains) == 1


@pytest.mark.parametrize("config_name", ["desk", "desk_variable_g"])
def test_check_samples_each_position_once_per_draw(config_name, samples_taken):
    """The draw's point, then the oracle's probes once for both directions
    (35 samples per draw when each direction sampled them again)."""
    field = load_config(config_path(config_name))
    draws = 3
    cli.run_check(field, draws, 5)
    assert len(samples_taken) == draws * (1 + 4 * field.dim)


@pytest.mark.parametrize("config_name, builds", [("desk_variable_g", 1), ("desk_shifted_b", 9)])
def test_check_builds_one_frame_per_direction_stage(config_name, builds, monkeypatch):
    """The frame identity reads each draw's frame. On ``desk_variable_g`` the
    direction stage reads only constants, so one frame serves the whole
    battery; on ``desk_shifted_b`` every draw's point has its own."""
    frames = _count_calls(monkeypatch, background._build_frame)
    cli.run_check(load_config(config_path(config_name)), 9, 3)
    assert len(frames) == builds


def test_rows_chain_builds_no_record(variable_g, monkeypatch):
    """The finite-difference rows read the chain's plain values; only
    ``scalars`` wraps them in a ``KinematicScalars``."""
    records = []
    built = kinematics._built

    def counted(cls, *parts):
        records.append(cls)
        return built(cls, *parts)

    monkeypatch.setattr(kinematics, "_built", counted)
    here = sample(variable_g, X_PROBE)
    metric._f2_and_momentum_rows([here] * 16, np.tile(Y_TIME, (16, 1)))
    assert records == []
    kinematics.scalars(here, Y_TIME)
    assert records == [kinematics.KinematicScalars]


def test_pushforward_metric_check_reads_one_chain(desk, chains):
    pushforward_metric_check(desk, Y_TIME)
    assert len(chains) == 1


def test_angle_closed_form_reads_two_chains(desk, chains):
    angle_closed_form(desk, Y_TIME, Y_TIME_2)
    assert len(chains) == 2


def test_conformal_command_reads_one_chain(chains, capsys):
    code = cli.main(
        ["conformal", "--config", config_path("desk"), "--vector", *map(str, Y_TIME)]
    )
    assert code == 0
    assert "s_residual = " in capsys.readouterr().out
    assert len(chains) == 1


def test_uar_to_angles_reads_one_chain(desk, chains):
    uar_to_angles(desk, Y_TIME)
    assert len(chains) == 1


@pytest.mark.parametrize("config_name", ["desk", "desk_variable_g"])
def test_rk4_one_chain_per_sample(config_name, chains):
    field = load_config(config_path(config_name))
    n = 8
    traj = geodesic_integrate(field, X_PROBE, Y_TIME, 0.1, method="rk4", step=0.1 / n)
    assert traj.exit_reason is None and traj.samples.shape[0] == n + 1
    # the start node, then three stages and the new node per step
    assert len(chains) == 4 * n + 1


def test_eval_reads_one_chain(chains, capsys):
    code = cli.main(
        ["eval", "--config", config_path("desk"), "--vector", *map(str, Y_TIME)]
    )
    assert code == 0
    assert "indicatrix_curvature = " in capsys.readouterr().out
    assert len(chains) == 1


@pytest.mark.parametrize("config_name", ["desk", "desk_variable_g"])
def test_rk4_measures_each_chain_once(config_name, classifications, monkeypatch):
    measurements = _count_calls(monkeypatch, kinematics._measure)
    field = load_config(config_path(config_name))
    n = 8
    traj = geodesic_integrate(field, X_PROBE, Y_TIME, 0.1, method="rk4", step=0.1 / n)
    assert traj.exit_reason is None and traj.samples.shape[0] == n + 1
    # the start node is classified and then measured by its record; each step
    # measures its three new stages and its accepted node once, and the
    # node's record classifies from its own measurement
    assert len(measurements) == 4 * n + 2
    assert len(classifications) == 1


def test_spray_oracle_classifies_nothing(variable_g, classifications):
    spray_oracle(variable_g, X_PROBE, Y_TIME)
    assert len(classifications) == 0


def test_newton_residual_runs_the_one_chain(c09, monkeypatch):
    """``hamiltonian_numeric`` models the primal with ``kinematics._chain``
    at the charge ``g``, after the covector chain read it at ``-g``."""
    p = covariant_momentum(c09, Y_TIME)
    chain_runs = _count_calls(monkeypatch, kinematics._chain)
    hamiltonian_numeric(c09, p)
    charges = [args[3] for args in chain_runs]
    assert charges[0] == -c09.g
    assert len(charges) > 1 and set(charges[1:]) == {c09.g}
