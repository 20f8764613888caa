"""Exception hierarchy for the anisotropic-metric engine.

Every failure mode the engine can diagnose has a dedicated exception type so
that callers (and the command-line driver) can map problems onto exit codes
without string matching:

* configuration problems (``ConfigError`` and subclasses) — malformed input,
  exit code 2 in the CLI;
* geometry problems (``GeometryError`` and subclasses) — structurally valid
  input that lies outside the domain of the requested operation, exit code 3.

Identity failures discovered by the checking battery are reported through
return values, not exceptions.
"""

from __future__ import annotations

__all__ = [
    "FinsleroidError",
    "ConfigError",
    "ConfigSyntaxError",
    "ConfigDimensionError",
    "ConfigDuplicateError",
    "ConfigValueError",
    "GeometryError",
    "UnsupportedSector",
    "DegenerateQ",
    "DegenerateNu",
    "NullCartan",
    "UnsupportedCovector",
    "UnsupportedImage",
    "CNotUnit",
    "NoConvergence",
    "MixedSectors",
    "DomainError",
    "ChartDomain",
]


class FinsleroidError(Exception):
    """Base class for every error raised by this package."""


# --- configuration (exit code 2) -------------------------------------------


class ConfigError(FinsleroidError):
    """A background configuration could not be parsed or validated."""


class ConfigSyntaxError(ConfigError):
    """A configuration line or value expression is syntactically malformed."""


class ConfigDimensionError(ConfigError):
    """An index in the configuration is outside ``0 .. dim-1`` or ``dim`` is invalid."""


class ConfigDuplicateError(ConfigError):
    """The same configuration key was assigned twice."""


class ConfigValueError(ConfigError):
    """A position-independent background value is outside its admissible range."""


# --- geometry (exit code 3) -------------------------------------------------


class GeometryError(FinsleroidError):
    """Structurally valid input outside the domain of the requested operation."""


class UnsupportedSector(GeometryError):
    """The direction lies outside the supported cones (isotropic, past, or gap region)."""


class DegenerateQ(GeometryError):
    """The operation divides by the transverse radius, which vanishes on the axis ray."""


class DegenerateNu(GeometryError):
    """The operation divides by the dual radius ``nu``, which is degenerate here."""


class NullCartan(GeometryError):
    """The Cartan tensor assembly is requested at zero anisotropy charge, or
    where the contracted cubic form it divides by vanishes."""


class UnsupportedCovector(GeometryError):
    """The covector lies outside the supported dual cones."""


class UnsupportedImage(GeometryError):
    """The conformal-image vector lies outside the image of the supported cones."""


class CNotUnit(GeometryError):
    """The operation requires the preferred direction to have unit norm at this point."""


class NoConvergence(GeometryError):
    """An iterative solver failed to reach the requested tolerance."""


class MixedSectors(GeometryError):
    """A two-vector operation received vectors from different sectors."""


class DomainError(GeometryError):
    """A scalar argument left the mathematical domain of the requested function."""


class ChartDomain(GeometryError):
    """The angular chart is singular or undefined at the requested input."""
