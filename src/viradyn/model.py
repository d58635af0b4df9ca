"""Three-compartment within-host HIV models and their treatment variants.

State variables:
    T       healthy CD4+ cells (cells/mm^3)
    T_star  infected CD4+ cells (cells/mm^3)
    V       free virions, the viral load (copies/mm^3)

The baseline system couples the compartments through the infection term
beta*T*V:

    dT/dt      = s - d*T - beta*T*V
    dT_star/dt = beta*T*V - m2*T_star
    dV/dt      = k*T_star - m1*V

Antiretroviral therapy enters as dimensionless efficacies in [0, 1]:
reverse-transcriptase inhibitors (u1) scale the infection rate by
(1 - u1) and protease inhibitors (u2) scale virion production by
(1 - u2).  ``ModelKind`` selects between the untreated system
(``BASIC``), the two-input treatment system (``TWO_CONTROL``), and a
single-input variant (``COMBINED``) whose lone efficacy acts on virion
production only and is stored in the ``u2`` slot of the schedule.

Efficacies vary in time as piecewise-constant ``EfficacySchedule``
windows.  Windows are half-open ``[t_start, t_end)``, so a therapy
"terminated at day 400" already reads efficacy 0 at t = 400.  Outside
every window the efficacies are (0, 0) and, because the right-hand side
depends on time only through the schedule, an empty schedule makes the
system autonomous.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteStateError

__all__ = [
    "ModelKind",
    "ModelParams",
    "TreatmentWindow",
    "EfficacySchedule",
    "SystemState",
    "effective_rates",
    "rhs",
    "rhs_array",
    "rhs_at_rates",
    "vector_field",
]


class ModelKind(enum.Enum):
    """Which variant of the three-compartment model to evaluate."""

    BASIC = "basic"
    TWO_CONTROL = "two-control"
    COMBINED = "combined"


@dataclass(frozen=True)
class ModelParams:
    """The six positive rate constants of the model.

    Attributes:
        s:    production rate of healthy CD4+ cells (cells/mm^3/day)
        d:    death rate of healthy cells (1/day)
        beta: infection-rate constant (mm^3/day)
        k:    virion production rate per infected cell (1/day per cell)
        m1:   virion clearance rate (1/day)
        m2:   infected-cell death rate (1/day)

    The defaults are the standard parameter set used throughout this
    package; they place the infected equilibrium at
    (T, T_star, V) = (240, 21.6667, 902.778).  Some published tables
    carry s = 100 instead of 10; that value is inconsistent with the
    equilibrium above but remains available via override.
    """

    s: float = 10.0
    d: float = 0.02
    beta: float = 2.4e-5
    k: float = 100.0
    m1: float = 2.4
    m2: float = 0.24

    def __post_init__(self):
        for name in ("s", "d", "beta", "k", "m1", "m2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ValueError(f"parameter {name} must be strictly positive, got {value!r}")


@dataclass(frozen=True)
class TreatmentWindow:
    """One half-open therapy window [t_start, t_end) with fixed efficacies."""

    t_start: float
    t_end: float
    u1: float
    u2: float

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"window {name} must be finite")
        if not self.t_start < self.t_end:
            raise ValueError(
                f"window must satisfy t_start < t_end, got [{self.t_start}, {self.t_end})"
            )
        for name in ("u1", "u2"):
            u = getattr(self, name)
            if not 0.0 <= u <= 1.0:
                raise ValueError(f"efficacy {name} must lie in [0, 1], got {u!r}")

    def contains(self, t: float) -> bool:
        return self.t_start <= t < self.t_end


@dataclass(frozen=True)
class EfficacySchedule:
    """Piecewise-constant treatment efficacies over non-overlapping windows.

    Querying a time inside a window returns that window's (u1, u2);
    any time outside all windows reads (0, 0).
    """

    segments: tuple[TreatmentWindow, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.segments, key=lambda seg: seg.t_start))
        for prev, nxt in zip(ordered, ordered[1:]):
            if nxt.t_start < prev.t_end:
                raise ValueError(
                    f"overlapping treatment windows: [{prev.t_start}, {prev.t_end}) "
                    f"and [{nxt.t_start}, {nxt.t_end})"
                )
        object.__setattr__(self, "segments", ordered)

    @classmethod
    def window(cls, t_start: float, t_end: float, u1: float, u2: float) -> "EfficacySchedule":
        return cls((TreatmentWindow(t_start, t_end, u1, u2),))

    def efficacies_at(self, t: float) -> tuple[float, float]:
        for seg in self.segments:
            if seg.contains(t):
                return seg.u1, seg.u2
        return 0.0, 0.0

    def with_efficacies(self, u1: float, u2: float) -> "EfficacySchedule":
        """Same windows, every segment's efficacies replaced by (u1, u2)."""
        return EfficacySchedule(
            tuple(TreatmentWindow(seg.t_start, seg.t_end, u1, u2) for seg in self.segments)
        )


_COMPONENTS = ("T", "T_star", "V")


@dataclass(frozen=True)
class SystemState:
    """A point (T, T_star, V) of the state space."""

    T: float
    T_star: float
    V: float

    def __post_init__(self):
        for name in _COMPONENTS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"state component {name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.T, self.T_star, self.V])

    @classmethod
    def from_array(cls, w) -> "SystemState":
        return cls(float(w[0]), float(w[1]), float(w[2]))


def effective_rates(kind: ModelKind, params: ModelParams,
                    u1: float, u2: float) -> tuple[float, float]:
    """Infection and production rates after applying treatment efficacies.

    BASIC ignores both efficacies; TWO_CONTROL returns
    ((1-u1)*beta, (1-u2)*k); COMBINED leaves beta untouched and scales
    only virion production, ignoring u1.
    """
    for name, u in (("u1", u1), ("u2", u2)):
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"efficacy {name} must lie in [0, 1], got {u!r}")
    if kind is ModelKind.BASIC:
        return params.beta, params.k
    if kind is ModelKind.TWO_CONTROL:
        return (1.0 - u1) * params.beta, (1.0 - u2) * params.k
    return params.beta, (1.0 - u2) * params.k


def rhs_array(kind: ModelKind, params: ModelParams, schedule: EfficacySchedule,
              t: float, w) -> np.ndarray:
    """Like :func:`rhs` but on a raw length-3 array; :func:`vector_field` wraps it."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    u1, u2 = schedule.efficacies_at(t)
    return rhs_at_rates(params, *effective_rates(kind, params, u1, u2), w)


def rhs_at_rates(params: ModelParams, beta_eff: float, k_eff: float, w) -> np.ndarray:
    """The right-hand side with the infection and production rates given directly.

    ``beta_eff`` and ``k_eff`` are what :func:`effective_rates` returns for
    the efficacies in force; a non-finite state component raises
    :class:`NonFiniteStateError`.
    """
    T, T_star, V = float(w[0]), float(w[1]), float(w[2])
    for name, x in zip(_COMPONENTS, (T, T_star, V)):
        if not math.isfinite(x):
            raise NonFiniteStateError(name, x)
    infection = beta_eff * T * V
    return np.array([
        params.s - params.d * T - infection,
        infection - params.m2 * T_star,
        k_eff * T_star - params.m1 * V,
    ])


def rhs(kind: ModelKind, params: ModelParams, schedule: EfficacySchedule,
        t: float, state: SystemState) -> np.ndarray:
    """Time derivative (dT/dt, dT_star/dt, dV/dt) at ``state``.

    Pure: inputs are never mutated.  Time enters only through the
    schedule lookup.
    """
    return rhs_array(kind, params, schedule, t, state.as_array())


def vector_field(kind: ModelKind, params: ModelParams,
                 schedule: EfficacySchedule) -> Callable[[float, np.ndarray], np.ndarray]:
    """Adapter producing the f(t, w) callable the integrator expects."""

    def f(t: float, w: np.ndarray) -> np.ndarray:
        return rhs_array(kind, params, schedule, t, w)

    return f
