"""Configuration parsing, validation, and background sampling."""

from __future__ import annotations

import dataclasses
import itertools
import re

import numpy as np
import pytest

from finsleroid.background import (
    BackgroundField,
    BackgroundSample,
    _base_stage,
    _build_frame,
    _charge_stage,
    _direction_stage,
    _next_leg,
    load_config,
    parse_config,
    sample,
)
from finsleroid.errors import (
    ConfigDimensionError,
    ConfigDuplicateError,
    ConfigSyntaxError,
    ConfigValueError,
    DomainError,
)
from finsleroid.expressions import FieldExpression
from finsleroid import background, spray
from finsleroid.kinematics import KinematicScalars, classify, scalars
from finsleroid.metric import _Direction
from finsleroid.numdiff import TOL_FRAME_CONSTANT
from finsleroid.spray import SprayData, _spray

from conftest import config_path

DESK_TEXT = """
dim = 4
a.0.0 = 1
a.1.1 = -1
a.2.2 = -1
a.3.3 = -1
b.3 = 1
g = 0.6
"""

# a preferred direction with a time part that varies with x1, so the time leg does too
TILTED_TEXT = DESK_TEXT.replace("b.3 = 1", "b.0 = 0.3*x1\nb.3 = 1")


class TestParsing:
    def test_reference_configuration(self):
        field = parse_config(DESK_TEXT)
        assert field.dim == 4
        assert field.is_constant
        here = sample(field, np.zeros(4))
        assert here.c == 1.0
        assert here.c_is_unit
        assert np.array_equal(here.a, np.diag([1.0, -1.0, -1.0, -1.0]))
        assert np.array_equal(here.b_cov, [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(here.b_contra, [0.0, 0.0, 0.0, -1.0])
        assert here.g == 0.6

    def test_comments_and_blank_lines(self):
        field = parse_config("# leading\n\ndim = 2\na.0.0 = 1 # trailing\na.1.1 = -1\nb.1 = 1\ng = 0\n")
        assert field.dim == 2

    def test_whitespace_around_equals(self):
        field = parse_config("dim=2\na.0.0=1\na.1.1   =   -1\nb.1 =1\ng= 0.1\n")
        assert sample(field, np.zeros(2)).g == 0.1

    def test_symmetric_entry_mirrored(self):
        field = parse_config("dim = 2\na.0.0 = 1\na.1.1 = -1\na.0.1 = 0.25\nb.1 = 1\ng = 0\n")
        here = sample(field, np.zeros(2))
        assert here.a[0, 1] == here.a[1, 0] == 0.25

    def test_unassigned_entries_default_to_zero(self):
        field = parse_config("dim = 3\na.0.0 = 1\na.1.1 = -1\na.2.2 = -1\nb.2 = 1\ng = 0\n")
        here = sample(field, np.zeros(3))
        assert here.a[0, 1] == 0.0
        assert here.b_cov[0] == 0.0

    def test_position_dependent_entries(self):
        field = load_config(config_path("desk_shifted_b"))
        assert not field.is_constant
        here = sample(field, np.array([0.0, 2.0, 0.0, 0.0]))
        assert here.b_cov[3] == pytest.approx(0.8)
        assert here.c == pytest.approx(0.8)


class TestParseErrors:
    def test_value_syntax_error_reports_column(self):
        with pytest.raises(ConfigSyntaxError, match="line 2: syntax error at column 9"):
            parse_config("dim = 4\na.0.0 = 1/\n")

    def test_column_accounts_for_leading_spaces(self):
        with pytest.raises(ConfigSyntaxError, match="line 1: syntax error at column 11"):
            parse_config("a.0.0 =   (1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigSyntaxError, match="line 2"):
            parse_config("dim = 2\na.0.0\n")

    def test_missing_value(self):
        with pytest.raises(ConfigSyntaxError, match="missing value"):
            parse_config("dim = 2\na.0.0 = \n")

    def test_unknown_key(self):
        with pytest.raises(ConfigSyntaxError, match="unknown key"):
            parse_config("dim = 2\nq.0 = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigDuplicateError):
            parse_config("dim = 2\ng = 1\ng = 2\n")

    def test_duplicate_symmetric_partner(self):
        with pytest.raises(ConfigDuplicateError):
            parse_config("dim = 2\na.0.1 = 1\na.1.0 = 2\n")

    def test_missing_dim(self):
        with pytest.raises(ConfigDimensionError, match="dim is required"):
            parse_config("a.0.0 = 1\n")

    def test_dim_too_small(self):
        with pytest.raises(ConfigDimensionError):
            parse_config("dim = 1\n")

    @pytest.mark.parametrize("dim", ["17", "300"])
    def test_dim_too_large_refused_before_any_build(self, dim):
        with pytest.raises(ConfigDimensionError, match="line 1: dim must be at most 16"):
            parse_config(f"dim = {dim}\n")

    @pytest.mark.parametrize("dim", ["-3", "+1"])
    def test_signed_dim_reads_as_a_number(self, dim):
        with pytest.raises(ConfigDimensionError, match="dim must be at least 2"):
            parse_config(f"dim = {dim}\n")

    @pytest.mark.parametrize("dim", ["1_0", "\u0664", "\uff14", "4.0", "\u00b2"])
    def test_dim_is_ascii_digits(self, dim):
        with pytest.raises(ConfigSyntaxError, match="dim must be an integer"):
            parse_config(f"dim = {dim}\n")

    @pytest.mark.parametrize(
        "key", ["a.\u0660.\u0660", "a.\u00b2.0", "b.\u0663", "b.+1", "b.1_0"]
    )
    def test_key_index_is_ascii_digits(self, key):
        with pytest.raises(ConfigSyntaxError, match=re.escape(f"line 2: malformed key {key!r}")):
            parse_config(f"dim = 4\n{key} = 1\n")

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(DESK_TEXT.encode() + b"# \xff\xfe\n")
        with pytest.raises(ConfigSyntaxError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: not UTF-8 text at byte {len(DESK_TEXT) + 2}"

    def test_index_out_of_range(self):
        with pytest.raises(ConfigDimensionError, match="out of range"):
            parse_config("dim = 2\na.0.2 = 1\n")

    def test_coordinate_beyond_dimension(self):
        with pytest.raises(ConfigDimensionError, match="x5"):
            parse_config("dim = 2\na.0.0 = 1 + x5\n")

    def test_dim_defined_after_use_is_fine(self):
        field = parse_config("a.0.0 = 1\na.1.1 = -1\nb.1 = 1\ng = 0\ndim = 2\n")
        assert field.dim == 2


class TestEagerValidation:
    def test_wrong_signature_rejected_at_load(self):
        with pytest.raises(ConfigValueError, match="Lorentzian"):
            parse_config("dim = 4\na.0.0 = -1\na.1.1 = -1\na.2.2 = -1\na.3.3 = -1\nb.3 = 1\ng = 0.6\n")

    def test_two_positive_eigenvalues_rejected(self):
        with pytest.raises(ConfigValueError, match="Lorentzian"):
            BackgroundField.constant(a=[1.0, 1.0, -1.0], b_cov=[0, 0, 1], g=0.1)

    def test_constant_norm_above_one_rejected(self):
        with pytest.raises(ConfigValueError, match="exceeds 1"):
            parse_config("dim = 2\na.0.0 = 1\na.1.1 = -1\nb.1 = 1.5\ng = 0\n")

    def test_zero_preferred_direction_rejected(self):
        with pytest.raises(ConfigValueError, match="non-positive"):
            BackgroundField.constant(a=[1.0, -1.0], b_cov=[0.0, 0.0], g=0.3)

    def test_charge_out_of_range_rejected(self):
        with pytest.raises(ConfigValueError, match="outside"):
            parse_config("dim = 2\na.0.0 = 1\na.1.1 = -1\nb.1 = 1\ng = 2\n")

    def test_singular_constant_base_rejected(self):
        with pytest.raises(ConfigValueError, match="base metric is singular$"):
            BackgroundField.constant(a=[1.0, 0.0], b_cov=[0.0, 1.0], g=0.1)

    def test_unevaluable_constant_rejected_without_a_point(self):
        text = DESK_TEXT.replace("a.0.0 = 1", "a.0.0 = 1 + ln(0)")
        with pytest.raises(ConfigValueError, match=r"^cannot evaluate the constant 1 \+ ln\(0\)$"):
            parse_config(text)

    def test_position_dependent_norm_validated_at_sample(self):
        field = load_config(config_path("desk_shifted_b"))
        sample(field, np.zeros(4))  # fine at the origin
        with pytest.raises(DomainError, match="exceeds 1"):
            sample(field, np.array([0.0, -1.0, 0.0, 0.0]))


class TestSample:
    def test_charge_and_sector_constants(self, desk):
        assert desk.h_time == pytest.approx(np.sqrt(1.09), rel=1e-15)
        assert desk.h_space == pytest.approx(np.sqrt(0.91), rel=1e-15)

    def test_frame_is_identity_on_reference_background(self, desk):
        assert np.allclose(desk.frame, np.eye(4), atol=1e-14)
        assert np.allclose(desk.frame_inv, np.eye(4), atol=1e-14)

    def test_frame_orthonormal_under_base_metric(self):
        field = BackgroundField.constant(
            a=[[1.0, 0.2, 0.0, 0.1],
               [0.2, -1.5, 0.3, 0.0],
               [0.0, 0.3, -0.8, 0.0],
               [0.1, 0.0, 0.0, -1.2]],
            b_cov=[0.0, 0.1, 0.0, 0.9],
            g=0.4,
        )
        here = sample(field, np.zeros(4))
        legs = here.frame_inv  # columns are the frame legs
        gram = legs.T @ here.a @ legs
        assert np.allclose(gram, np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-12)

    def test_frame_from_eigenvector_seeds(self, monkeypatch):
        # no coordinate axis leaves a time-like residual for the time leg, so
        # the frame falls back to the eigenvectors of the base metric
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        field = BackgroundField.constant(
            a=[[0.0, 0.0, -1.0], [0.0, -1.0, -1.0], [-1.0, -1.0, -1.0]],
            b_cov=[0.0, 1.0, 1.0],
            g=0.3,
        )
        here = sample(field, np.zeros(3))
        legs = here.frame_inv
        assert calls
        gram = legs.T @ here.a @ legs
        assert np.max(np.abs(gram - np.diag([1.0, -1.0, -1.0]))) <= TOL_FRAME_CONSTANT

    def test_last_leg_is_scaled_preferred_direction(self):
        field = load_config(config_path("desk_c09"))
        here = sample(field, np.zeros(4))
        assert np.allclose(here.frame_inv[:, 3], -here.b_contra / here.c, atol=1e-14)
        assert here.c == pytest.approx(0.9, rel=1e-15)
        assert not here.c_is_unit

    def test_shape_mismatch(self, desk_field):
        with pytest.raises(ConfigDimensionError):
            sample(desk_field, np.zeros(3))


class TestDerivativeTables:
    def test_covariant_direction_gradient(self):
        field = load_config(config_path("desk_shifted_b"))
        here = sample(field, np.array([0.1, 0.2, 0.0, 0.3]))
        expected = np.zeros((4, 4))
        expected[1, 3] = -0.1
        assert np.allclose(here.nabla_b, expected, atol=1e-14)

    def test_charge_gradient(self):
        field = load_config(config_path("desk_variable_g"))
        x = np.array([0.0, 0.4, 0.0, 0.0])
        here = sample(field, x)
        assert here.dg[1] == pytest.approx(-0.6 * np.exp(-0.4), rel=1e-14)
        assert here.dg[0] == here.dg[2] == here.dg[3] == 0.0

    def test_connection_against_finite_differences(self):
        field = load_config(config_path("desk_curved_a"))
        x = np.array([0.2, 0.1, 0.0, 0.3])
        here = sample(field, x)
        step = 1e-6
        da_fd = np.zeros((4, 4, 4))
        for k in range(4):
            up = x.copy()
            dn = x.copy()
            up[k] += step
            dn[k] -= step
            da_fd[k] = (sample(field, up).a - sample(field, dn).a) / (2 * step)
        assert np.allclose(here.da, da_fd, atol=1e-8)
        gamma_fd = 0.5 * np.einsum("kn,jni->kij", here.a_inv, da_fd)
        gamma_fd += 0.5 * np.einsum("kn,inj->kij", here.a_inv, da_fd)
        gamma_fd -= 0.5 * np.einsum("kn,nij->kij", here.a_inv, da_fd)
        assert np.allclose(here.christoffel, gamma_fd, atol=1e-8)

    def test_covariant_gradient_includes_connection(self):
        # constant covariant entries on a curved base still have a nonzero
        # covariant gradient through the connection term
        field = parse_config(
            "dim = 2\na.0.0 = 1\na.1.1 = -((1 + 0.1*x0)^2)\nb.1 = 1\ng = 0\n"
        )
        here = sample(field, np.array([0.3, 0.0]))
        assert not np.allclose(here.nabla_b, 0.0)
        assert np.allclose(here.nabla_b, -np.einsum("k,kij->ij", here.b_cov, here.christoffel))


SHIPPED = ["desk", "desk_shifted_b", "desk_variable_g", "desk_curved_a", "desk_c09"]


class TestCheapSampling:
    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_time_leg_is_first_frame_column(self, config_name):
        field = load_config(config_path(config_name))
        for x in (np.zeros(4), np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.05, -0.2, 0.3])):
            here = sample(field, x)
            assert np.array_equal(here.time_leg, here.frame_inv[:, 0])

    def test_frame_built_on_first_access(self, desk_field):
        here = sample(desk_field, np.zeros(4))
        assert "frame" not in vars(here) and "frame_inv" not in vars(here)
        frame = here.frame
        assert here.frame is frame
        assert not frame.flags.writeable and not here.frame_inv.flags.writeable

    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_time_cov_is_the_lowered_time_leg(self, config_name):
        field = load_config(config_path(config_name))
        for x in POINTS:
            here = sample(field, x)
            assert here.time_cov.tobytes() == (here.time_leg @ here.a).tobytes()
            assert not here.time_cov.flags.writeable

    def test_samples_of_a_constant_direction_stage_share_one_frame(self):
        field = load_config(config_path("desk_variable_g"))
        first, second = (sample(field, x) for x in POINTS[:2])
        assert first.frame_holder is second.frame_holder
        assert first.frame_inv is second.frame_inv and first.frame is second.frame
        varying = load_config(config_path("desk_shifted_b"))
        assert sample(varying, POINTS[0]).frame_holder is not sample(varying, POINTS[1]).frame_holder

    def test_replaced_sample_builds_its_own_frame(self):
        # desk_curved_a: ``a`` varies with x0; desk_shifted_b: ``b_contra`` and ``c`` with x1;
        # on TILTED_TEXT the time leg itself turns with ``b_contra`` and ``c``
        for field, names in (
            (load_config(config_path("desk_curved_a")), ("a",)),
            (load_config(config_path("desk_shifted_b")), ("b_contra", "c")),
            (parse_config(TILTED_TEXT), ("b_contra", "c")),
        ):
            first, second = (sample(field, np.array(x)) for x in ([0.1, 0.1, 0, 0], [3.0, 0.4, 0, 0]))
            built, holder = first.frame_inv, first.frame_holder
            assert dataclasses.replace(first).frame_inv is built
            for name in names:
                mixed = dataclasses.replace(first, **{name: getattr(second, name)})
                leg = _next_leg(mixed.a, [(-mixed.b_contra / mixed.c, -1.0)], 1.0)
                assert mixed.time_leg is not holder.time_leg and mixed.time_cov is not holder.time_cov
                assert mixed.time_leg.tobytes() == leg.tobytes()
                assert mixed.time_cov.tobytes() == (leg @ mixed.a).tobytes()
                if field.b_cov[0].is_constant:  # the time leg is e0 wherever b has no time part
                    assert mixed.time_leg.tobytes() == holder.time_leg.tobytes()
                else:
                    assert mixed.time_leg.tobytes() != holder.time_leg.tobytes()
                    assert mixed.time_cov.tobytes() != holder.time_cov.tobytes()
                legs = _build_frame(mixed.a, mixed.b_contra, mixed.c, leg)
                assert mixed.frame_inv.tobytes() == legs.T.copy().tobytes() != built.tobytes()
                assert mixed.frame.tobytes() == np.linalg.inv(legs.T).tobytes()
                assert mixed.frame_inv[:, 0].tobytes() == mixed.time_leg.tobytes()

    def test_only_varying_entries_are_evaluated(self):
        constant = load_config(config_path("desk"))
        varying = load_config(config_path("desk_variable_g"))
        assert constant._layout[2] == ()
        # the charge and its x1 derivative; every other entry is a constant
        assert len(varying._layout[2]) == 2

    def test_non_lorentzian_point_raises(self):
        field = parse_config(
            "dim = 4\na.0.0 = 1\na.1.1 = -1 + x0\na.2.2 = -1\na.3.3 = -1\nb.3 = 1\ng = 0.6\n"
        )
        sample(field, np.zeros(4))  # Lorentzian at the origin
        with pytest.raises(DomainError, match="not Lorentzian"):
            sample(field, np.array([2.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, desk_field, bad):
        with pytest.raises(DomainError, match="non-finite"):
            sample(desk_field, np.array([0.0, bad, 0.0, 0.0]))


# points inside the valid region of every shipped configuration
POINTS = [np.array(p) for p in ([0.1, 0.4, 0.2, 0.3], [0.3, 0.05, -0.2, 0.1], [0.0, 0.6, 0.5, -0.4])]
SAMPLE_FIELDS = (
    "x", "a", "a_inv", "b_cov", "b_contra", "c", "g", "h_time", "h_space",
    "da", "db", "dg", "christoffel", "nabla_b", "time_leg", "time_cov",
)


class TestStagedSampling:
    """Stages that read only constants run once per field and change no bit."""

    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_warm_sample_equals_first_sample(self, config_name):
        warm = load_config(config_path(config_name))
        sample(warm, np.array([0.2, 0.3, 0.1, 0.0]))
        for x in POINTS:
            first = sample(load_config(config_path(config_name)), x)
            again = sample(warm, x)
            for name in SAMPLE_FIELDS:
                expected, got = np.asarray(getattr(first, name)), np.asarray(getattr(again, name))
                assert got.tobytes() == expected.tobytes(), name
                if isinstance(getattr(again, name), np.ndarray):
                    assert not got.flags.writeable, name
            assert again.frame_inv.tobytes() == first.frame_inv.tobytes()

    @pytest.mark.parametrize(
        "config_name, per_point",
        [("desk", False), ("desk_c09", False), ("desk_shifted_b", False),
         ("desk_variable_g", False), ("desk_curved_a", True)],
    )
    def test_base_metric_work_runs_once_per_field(self, config_name, per_point, monkeypatch):
        counts = {"inv": 0, "eigvalsh": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counted(name))
        # a constant base metric is inverted and checked when the field is built
        field = load_config(config_path(config_name))
        for x in POINTS:
            sample(field, x)
        expected = len(POINTS) if per_point else 1
        assert counts == {"inv": expected, "eigvalsh": expected}

    def test_varying_charge_fails_at_its_point_after_warm_samples(self):
        field = parse_config(DESK_TEXT.replace("g = 0.6", "g = x0"))
        assert set(field._constant_stages) == {"base", "direction"}
        for x0 in (0.0, 0.5, -1.5):
            sample(field, np.array([x0, 0.1, 0.2, 0.3]))
        with pytest.raises(DomainError, match=r"g = 2\.5 outside \(-2, 2\) at x = \(2\.5, 0\.1, 0\.2, 0\.3\)"):
            sample(field, np.array([2.5, 0.1, 0.2, 0.3]))
        assert sample(field, np.array([1.0, 0.1, 0.2, 0.3])).g == 1.0

    def test_direct_construction_runs_the_constant_stages(self):
        valid = parse_config(DESK_TEXT)
        too_long = valid.b_cov[:3] + (FieldExpression.constant(2.0),)
        with pytest.raises(ConfigValueError, match=r"norm exceeds 1 \(c\^2 = 4\.0\)$"):
            BackgroundField(dim=4, a=valid.a, b_cov=too_long, g=valid.g)

    def test_base_metric_is_checked_before_the_norm(self):
        # at x0 = 2 the base metric has signature (+ + - -) and c^2 = -3
        field = parse_config(DESK_TEXT.replace("a.1.1 = -1", "a.1.1 = -1 + x0") + "b.0 = x0\n")
        sample(field, np.zeros(4))
        with pytest.raises(DomainError, match=r"not Lorentzian at x = \(2\.0, 0\.0, 0\.0, 0\.0\) .*got 2 positive, 2 negative"):
            sample(field, np.array([2.0, 0.0, 0.0, 0.0]))

    def test_undefined_norm_names_its_point(self):
        field = parse_config(DESK_TEXT.replace("b.3 = 1", "b.3 = 1 + x0*x0 - x0*x0"))
        assert sample(field, np.array([1.0, 0.0, 0.0, 0.0])).c == 1.0
        with pytest.raises(DomainError, match=r"undefined norm squared nan at x = \(1e\+200, 0\.0, 0\.0, 0\.0\)"):
            sample(field, np.array([1e200, 0.0, 0.0, 0.0]))

    def test_non_finite_base_metric_is_a_domain_error(self):
        field = parse_config(
            "dim = 4\na.0.0 = 1\na.1.1 = -1 - x0*x0\na.2.2 = -1\na.3.3 = -1\nb.3 = 1\ng = 0.6\n"
        )
        with pytest.raises(DomainError, match=r"not Lorentzian at x = \(1e\+200, 0\.0, 0\.0, 0\.0\)"):
            sample(field, np.array([1e200, 0.0, 0.0, 0.0]))


class TestStageResults:
    """Each stage hands over its results keyed by ``BackgroundSample`` field name."""

    @pytest.mark.parametrize("config_name", ["desk", "desk_curved_a"])
    def test_stages_partition_the_sample_fields(self, config_name):
        field = load_config(config_path(config_name))
        template, slots, closures = field._layout
        for x in POINTS:
            coords = tuple(x.tolist())
            values = template.copy()
            values[slots] = [fn(coords) for fn in closures]
            base = _base_stage(values, field.dim, coords)
            results = (
                base,
                _direction_stage(values, field.dim, base, coords),
                _charge_stage(values, field.dim, coords),
            )
            for first, second in itertools.combinations(results, 2):
                assert set(first).isdisjoint(second)
            names = {"x"}.union(*results)
            assert names == {f.name for f in dataclasses.fields(BackgroundSample)}
            here = sample(field, x)
            for result in results:
                for name, value in result.items():
                    if name == "frame_holder":  # a holder is compared by the frame it builds
                        got, value = here.frame_holder.frame_inv, value.frame_inv
                    else:
                        got = getattr(here, name)
                    assert np.asarray(got).tobytes() == np.asarray(value).tobytes()
        # the stages that ran once, when the field was built, hand over the same names
        by_stage = dict(zip(("base", "direction", "charge"), results))
        for name, stage in field._constant_stages.items():
            assert set(stage) == set(by_stage[name])


class TestStageFacts:
    """What the spray reads of a sample: the curl of ``b`` and which fields are zero."""

    @pytest.mark.parametrize(
        "config_name, facts",
        [
            ("desk", (True, True, True)),
            ("desk_c09", (True, True, True)),
            ("desk_curved_a", (False, True, True)),
            ("desk_shifted_b", (True, False, True)),
            ("desk_variable_g", (True, True, False)),
        ],
    )
    def test_facts_match_the_fields(self, config_name, facts):
        field = load_config(config_path(config_name))
        for x in POINTS:
            here = sample(field, x)
            assert (here.christoffel_zero, here.b_parallel, here.dg_zero) == facts
            assert here.christoffel_zero == (not np.any(here.christoffel != 0.0))
            assert here.b_parallel == (not np.any(here.nabla_b != 0.0) and not np.any(here.curl != 0.0))
            assert here.dg_zero == (not np.any(here.dg != 0.0))
            assert here.curl.tobytes() == (here.db - here.db.T).tobytes()
            assert not here.curl.flags.writeable


class TestLazyTimeLeg:
    """The time leg and ``time_cov`` are built on first read, once per holder,
    and ``nabla_b`` skips the connection term only where it is all zeros."""

    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_time_leg_is_the_first_gram_schmidt_step(self, config_name):
        field = load_config(config_path(config_name))
        samples = [sample(field, x) for x in POINTS]
        holder = samples[0].frame_holder
        assert "time_leg" not in vars(holder) and "time_cov" not in vars(holder)
        for first, second in itertools.permutations(samples, 2):
            replaced = [
                dataclasses.replace(first, **{name: getattr(second, name)})
                for name in ("a", "b_contra", "c")
            ]
            for here in [first, dataclasses.replace(first, c=0.9 * first.c), *replaced]:
                leg = _next_leg(here.a, [(-here.b_contra / here.c, -1.0)], 1.0)
                assert here.time_leg.tobytes() == leg.tobytes()
                assert here.time_cov.tobytes() == (leg @ here.a).tobytes()
                assert not here.time_leg.flags.writeable and not here.time_cov.flags.writeable

    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_nabla_b_is_the_connection_corrected_gradient(self, config_name):
        field = load_config(config_path(config_name))
        for x in POINTS:
            here = sample(field, x)
            expected = here.db - np.einsum("k,kij->ij", here.b_cov, here.christoffel)
            assert here.nabla_b.tobytes() == expected.tobytes()

    def test_flat_base_keeps_signed_zeros_of_the_gradient(self):
        # at x2 = -0.0 both b_0 and its x1 derivative are -0.0
        field = parse_config(DESK_TEXT.replace("b.3 = 1", "b.0 = 0.1*x1*x2\nb.3 = 1"))
        here = sample(field, np.array([0.1, 0.4, -0.0, 0.3]))
        assert here.christoffel_zero and np.signbit(here.b_cov[0]) and np.signbit(here.db[1, 0])
        expected = here.db - np.einsum("k,kij->ij", here.b_cov, here.christoffel)
        assert here.nabla_b.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    @pytest.mark.parametrize(
        "y, tag", [((1.0, 0.1, 0.0, 0.2), "time-future"), ((0.3, 1.0, 0.0, -0.2), "space-like")]
    )
    @pytest.mark.parametrize("config_name", ["desk_shifted_b", "desk_variable_g"])
    def test_geodesic_builds_a_time_leg_only_where_it_is_read(
        self, config_name, y, tag, method, monkeypatch
    ):
        counts = {"legs": 0, "samples": 0}

        def counted(key, original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            return wrapper

        x = np.array([0.2, 0.4, 0.1, 0.3])
        assert classify(sample(load_config(config_path(config_name)), x), y).tag == tag
        monkeypatch.setattr(background, "_next_leg", counted("legs", background._next_leg))
        monkeypatch.setattr(spray, "sample_background", counted("samples", spray.sample_background))
        field = load_config(config_path(config_name))
        step = 1.0 / 64.0 if method == "rk4" else None
        assert spray.geodesic_integrate(field, x, y, 0.5, method=method, step=step).exit_reason is None
        if tag == "space-like":
            assert counts["legs"] == 0
        elif field._constant_stages.keys() >= {"direction"}:  # one holder per field
            assert counts["legs"] == 1
        else:  # one holder per sample, each read once
            assert counts["legs"] == counts["samples"] > 1


def eager_frame(a: np.ndarray, b_contra: np.ndarray, c: float) -> np.ndarray:
    """``legs[p, i]`` by the plain Gram-Schmidt the frame is defined by: last
    leg ``-b_contra/c``, then the time leg, then the space legs, each the first
    residual of a row of ``np.eye`` (then of an eigenvector by descending
    eigenvalue) whose base-metric norm has the leg's sign, scaled to unit norm
    with its first component above ``1e-12 * np.linalg.norm`` positive."""
    dim = a.shape[0]
    eigvals, eigvecs = np.linalg.eigh(a)
    seeds = [*np.eye(dim), *(eigvecs[:, k] for k in np.argsort(eigvals)[::-1])]
    legs = np.zeros(a.shape)
    legs[-1] = -b_contra / c
    built = [(legs[-1], -1.0)]
    for p, wanted in [(0, 1.0)] + [(p, -1.0) for p in range(1, dim - 1)]:
        for seed in seeds:
            w = seed.copy()
            for leg, sign in built:
                w -= sign * (w @ a @ leg) * leg
            if float(w @ w) >= 1e-20 and wanted * float(w @ a @ w) > 1e-10 * float(w @ w):
                w = w / np.sqrt(wanted * float(w @ a @ w))
                scale = float(np.linalg.norm(w))
                first = next((v for v in w.tolist() if abs(v) > 1e-12 * scale), 1.0)
                legs[p] = (1.0 if first > 0 else -1.0) * w
                break
        built.append((legs[p], wanted))
    return legs


class TestRecordContract:
    """The records the hot path builds per call: ``sample``'s
    ``BackgroundSample``, ``scalars``' ``KinematicScalars`` and ``_spray``'s
    ``SprayData`` behave as the frozen dataclasses they are declared as."""

    RECORDS = (BackgroundSample, KinematicScalars, SprayData)

    @staticmethod
    def records(config_name: str, x: np.ndarray):
        here = sample(load_config(config_path(config_name)), x)
        y = np.array([1.0, 0.1, -0.05, 0.12])
        return here, scalars(here, y), _spray(_Direction(here, y))

    @pytest.mark.parametrize("cls", RECORDS)
    def test_records_stay_plain_frozen_dataclasses(self, cls):
        # the records are filled without running __init__, so they may not
        # grow a __post_init__, and a __dict__ must hold their fields
        assert not hasattr(cls, "__post_init__")
        assert "__slots__" not in vars(cls)
        assert cls.__dataclass_params__.frozen

    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_dataclass_protocol_on_built_records(self, config_name):
        for record in self.records(config_name, POINTS[0]):
            cls = type(record)
            assert isinstance(record, cls)
            names = [f.name for f in dataclasses.fields(record)]
            assert sorted(vars(record)) == sorted(names)
            assert record == record and dataclasses.replace(record) == record
            assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, names[0], None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, "other", None)

    @pytest.mark.parametrize("config_name", SHIPPED)
    def test_sample_arrays_are_read_only_and_frames_match_an_eager_build(self, config_name):
        for x in POINTS:
            here = self.records(config_name, x)[0]
            for f in dataclasses.fields(here):
                value = getattr(here, f.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, f.name
            legs = eager_frame(np.array(here.a), np.array(here.b_contra), here.c)
            assert here.time_leg.tobytes() == legs[0].tobytes()
            assert here.frame_inv.tobytes() == legs.T.copy().tobytes()
            assert here.frame.tobytes() == np.linalg.inv(legs.T).tobytes()
            assert not here.frame.flags.writeable and not here.frame_inv.flags.writeable

    def test_eigenvector_seeded_frame_matches_an_eager_build(self):
        # no coordinate axis leaves a time-like residual (see TestSample)
        field = BackgroundField.constant(
            a=[[0.0, 0.0, -1.0], [0.0, -1.0, -1.0], [-1.0, -1.0, -1.0]],
            b_cov=[0.0, 1.0, 1.0],
            g=0.3,
        )
        here = sample(field, np.zeros(3))
        legs = eager_frame(np.array(here.a), np.array(here.b_contra), here.c)
        assert here.frame_inv.tobytes() == legs.T.copy().tobytes()
