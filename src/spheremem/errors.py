"""Exception hierarchy shared across the toolkit, and the finiteness and shape checks."""
import numpy as np


class SphereMemError(Exception):
    """Base class for all domain errors raised by this package."""


class MeshTopologyError(SphereMemError):
    """Mesh is not a closed, consistently oriented surface of nondegenerate triangles."""


class SizeLimitError(SphereMemError):
    """Requested mesh exceeds the documented refinement cap."""


class GeometryError(SphereMemError):
    """Geometric precondition violated (projection, penetration, distance)."""


class ParameterError(SphereMemError):
    """Physical or numerical parameter outside its admissible range."""


def check_finite(**values) -> None:
    """Raise :class:`ParameterError` for a NaN or inf in any value (None: unset)."""
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ParameterError(f"{name} must be finite, got {value}")


def check_vector(n: int, **values) -> None:
    """Raise :class:`ParameterError` for a value that is not a finite vector of
    shape (n,), such as a field that is not one value per vertex."""
    for name, value in values.items():
        if np.shape(value) != (n,):
            raise ParameterError(f"{name} must have shape ({n},), got shape {np.shape(value)}")
    check_finite(**values)


class RankDeficiencyError(SphereMemError):
    """Constraint block of a saddle system is numerically rank deficient."""

    def __init__(self, message, dependent_rows=None):
        super().__init__(message)
        self.dependent_rows = list(dependent_rows) if dependent_rows else []


class SolverError(SphereMemError):
    """Linear solve failed or did not meet its residual contract."""


class StepRejectedError(SphereMemError):
    """Gradient-flow step rejected because the energy increased (or is not a
    number); it carries the energies before and after the step, and the flow
    that caught it picks the tau to retry with."""

    def __init__(self, message, energy_before=None, energy_after=None):
        super().__init__(message)
        self.energy_before = energy_before
        self.energy_after = energy_after


class ConfigError(SphereMemError):
    """Malformed run configuration (unknown keys, missing sections)."""
