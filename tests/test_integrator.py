"""Integrator evidence that does not lean on the FD oracle: convergence order
of rk4, the endpoint error of rk45 against its tolerance, and the momenta that
Noether's theorem conserves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsleroid.background import _flat_slices, load_config, sample
from finsleroid.kinematics import random_admissible
from finsleroid.metric import _Direction
from finsleroid.numdiff import TOL_NOETHER_DRIFT
from finsleroid.spray import geodesic_integrate

from conftest import config_path

CONFIGS = ["desk", "desk_c09", "desk_curved_a", "desk_shifted_b", "desk_variable_g"]
FIELDS = {name: load_config(config_path(name)) for name in CONFIGS}
X_START = (0.1, 0.2, 0.3, 0.4)


def unread_coordinates(field) -> list[int]:
    """The coordinates ``x^k`` that no field entry reads, from the field's
    layout: every ``x^k`` derivative slot of ``a``, ``b`` and ``g`` is a
    constant zero."""
    template, slots, _ = field._layout
    dim, flat = field.dim, _flat_slices(field.dim)
    varying = set(slots.tolist())
    unread = []
    for k in range(dim):
        da = flat["da"].start + k * dim * dim
        db = flat["db"].start + k * dim
        cols = [*range(da, da + dim * dim), *range(db, db + dim), flat["dg"].start + k]
        if varying.isdisjoint(cols) and not template[cols].any():
            unread.append(k)
    return unread


def momenta(field, samples: np.ndarray) -> np.ndarray:
    """``y_cov`` at every row of a trajectory."""
    dim = field.dim
    return np.array(
        [_Direction(sample(field, row[1 : 1 + dim]), row[1 + dim : 1 + 2 * dim]).y_cov
         for row in samples]
    )


def test_unread_coordinates_follow_the_configs():
    assert {name: unread_coordinates(FIELDS[name]) for name in CONFIGS} == {
        "desk": [0, 1, 2, 3],
        "desk_c09": [0, 1, 2, 3],
        "desk_curved_a": [1, 2, 3],  # a.1.1 reads x0
        "desk_shifted_b": [0, 2, 3],  # b.3 reads x1
        "desk_variable_g": [0, 2, 3],  # g reads x1
    }


@pytest.mark.parametrize("name", ["desk_curved_a", "desk_variable_g"])
@pytest.mark.parametrize("y", [(1.0, 0.1, 0.0, 0.2), (0.3, 1.0, 0.0, -0.2)], ids=["time", "space"])
def test_rk4_is_fourth_order(name, y):
    """Halving the step divides the endpoint error by about 2^4 = 16."""
    field = FIELDS[name]

    def endpoint(steps: int) -> np.ndarray:
        traj = geodesic_integrate(field, X_START, y, 0.5, method="rk4", step=0.5 / steps)
        assert traj.exit_reason is None
        return traj.samples[-1, 1:9]

    reference = endpoint(2048)
    errors = [float(np.max(np.abs(endpoint(n) - reference))) for n in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 < coarse / fine < 18.0


@pytest.mark.parametrize("name", ["desk_curved_a", "desk_variable_g"])
def test_rk45_endpoint_error_stays_within_tol(name):
    """The adaptive pair ends within ``tol`` of a 2048-step rk4 reference, and
    a tighter ``tol`` takes no fewer accepted steps."""
    field = FIELDS[name]
    y = (1.0, 0.1, 0.0, 0.2)
    reference = geodesic_integrate(field, X_START, y, 0.5, method="rk4", step=0.5 / 2048)
    accepted = []
    for tol in (1e-8, 1e-9, 1e-10):
        traj = geodesic_integrate(field, X_START, y, 0.5, method="rk45", tol=tol)
        assert traj.exit_reason is None
        assert traj.samples[-1, 0] == 0.5
        error = float(np.max(np.abs(traj.samples[-1, 1:9] - reference.samples[-1, 1:9])))
        assert error <= tol
        accepted.append(traj.samples.shape[0] - 1)
    assert accepted == sorted(accepted)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(CONFIGS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tag=st.sampled_from(["time-future", "space-like"]),
    method=st.sampled_from(["rk4", "rk45"]),
)
def test_momentum_of_an_unread_coordinate_is_conserved(name, seed, tag, method):
    field = FIELDS[name]
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 0.5, 4)
    y = random_admissible(sample(field, x), rng, tag, 1, margin=0.05)[0]
    # the drift is integration error: rk4 takes 128 steps, rk45 a tight tolerance
    step = 0.5 / 128 if method == "rk4" else None
    traj = geodesic_integrate(field, x, y, 0.5, method=method, step=step, tol=1e-12)
    assert traj.samples.shape[0] > 1
    y_cov = momenta(field, traj.samples)
    unread = unread_coordinates(field)
    drift = np.max(np.abs(y_cov[:, unread] - y_cov[0, unread]))
    assert drift <= TOL_NOETHER_DRIFT * np.max(np.abs(y_cov[0]))
