"""Exception types shared across the toolkit.

Configuration problems (bad parameters, malformed schedules, meshes that
do not divide evenly) raise plain ``ValueError``; the classes below mark
failures of the numerics themselves so callers can tell the two apart.
"""

from __future__ import annotations


class NumericalError(RuntimeError):
    """Base class for failures inside numerical routines."""


class NonFiniteStateError(NumericalError):
    """A state vector handed to a vector field contains NaN or infinity."""

    def __init__(self, component: str, value: float):
        self.component = component
        self.value = value
        super().__init__(f"state component {component} is non-finite ({value!r})")

    def __reduce__(self):  # rebuilt from the attributes, not the message, when unpickled
        return type(self), (self.component, self.value)


class IntegrationBlowupError(NumericalError):
    """A Runge-Kutta stage produced a non-finite value."""

    def __init__(self, t: float, stage: int, step: int | None = None,
                 label: str | None = None):
        self.t = t
        self.stage = stage
        self.step = step
        self.label = label
        where = f"t={t:g}, stage k{stage}"
        if step is not None:
            where += f", step {step}"
        if label:
            where += f", scenario {label!r}"
        super().__init__(f"integration blew up ({where})")

    def __reduce__(self):
        return type(self), (self.t, self.stage, self.step, self.label)


class DefectiveMatrixError(NumericalError):
    """Repeated eigenvalue whose eigenspace is smaller than its multiplicity."""


class ConditioningError(NumericalError):
    """A linear system is too ill-conditioned to solve reliably."""
