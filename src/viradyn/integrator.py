"""Classical fourth-order Runge-Kutta on a uniform mesh.

The stepper is dimension-generic: the vector field maps (t, w) to dw/dt
for a state vector w of any length, so scalar problems are simply the
length-1 case.  Only fixed steps are provided; reproducing trajectories
exactly requires the same mesh every time, and the default step used by
the rest of the package is h = 0.1 days.

Trajectories are not clipped at zero when populations transiently dip
below it; use :func:`negative_components` to flag excursions beyond
round-off size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationBlowupError

__all__ = ["MeshSpec", "Trajectory", "mesh_index", "rk4_step", "integrate",
           "negative_components"]

VectorField = Callable[[float, np.ndarray], np.ndarray]

#: step size used by all built-in scenarios (days)
DEFAULT_STEP = 0.1

_REL_TOL = 1e-9  # mesh uniformity / divisibility tolerance


def mesh_index(a: float, t: float, h: float) -> int | None:
    """Index i of the mesh point a + i*h at ``t``, or None when t is off the mesh.

    ``(t - a) / h`` must lie within 1e-9 of an integer, relative to that
    integer, so only t == a itself maps to index 0.
    """
    n = (t - a) / h
    i = round(n)
    return i if abs(n - i) <= _REL_TOL * i else None


@dataclass(frozen=True)
class MeshSpec:
    """Uniform mesh of [a, b] with step h; h must divide b - a evenly."""

    a: float
    b: float
    h: float

    def __post_init__(self):
        for name in ("a", "b", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"mesh {name} must be finite")
        if not self.a < self.b:
            raise ValueError(f"mesh requires a < b, got [{self.a}, {self.b}]")
        if self.h <= 0.0:
            raise ValueError(f"mesh step must be positive, got {self.h!r}")
        n = mesh_index(self.a, self.b, self.h)
        if n is None or n < 1:
            raise ValueError(
                f"step h={self.h!r} does not divide [{self.a}, {self.b}] into an "
                f"integral number of steps (got {(self.b - self.a) / self.h!r})"
            )

    @property
    def n_steps(self) -> int:
        return round((self.b - self.a) / self.h)

    def times(self) -> np.ndarray:
        return self.a + np.arange(self.n_steps + 1) * self.h


@dataclass(frozen=True)
class Trajectory:
    """Mesh times t_j and the state approximations w_j at each of them.

    ``states`` has one row per mesh point; column i holds the i-th state
    component.  Both arrays are read-only after construction.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or len(times) != len(states):
            raise ValueError("states must be a 2-D array with one row per mesh time")
        steps = np.diff(times)
        if len(steps) == 0 or steps[0] <= 0.0:
            raise ValueError("trajectory needs at least two strictly increasing times")
        h = steps[0]
        if np.any(np.abs(steps - h) > _REL_TOL * h):
            raise ValueError("trajectory times must be uniformly spaced")
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def rk4_step(f: VectorField, t: float, w: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step from (t, w) to t + h.

    Stage vectors are computed in order k1, k2, k3, k4 (every component
    of a stage is available before the next stage is evaluated) and the
    update is w + (k1 + 2*k2 + 2*k3 + k4)/6.  A non-finite stage raises
    :class:`IntegrationBlowupError` carrying t and the stage number; a
    non-finite update from finite stages is reported as stage k4.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("state passed to rk4_step must be finite")

    k1 = h * np.asarray(f(t, w), dtype=float)
    _check_stage(k1, t, 1)
    k2 = h * np.asarray(f(t + 0.5 * h, w + 0.5 * k1), dtype=float)
    _check_stage(k2, t, 2)
    k3 = h * np.asarray(f(t + 0.5 * h, w + 0.5 * k2), dtype=float)
    _check_stage(k3, t, 3)
    k4 = h * np.asarray(f(t + h, w + k3), dtype=float)
    _check_stage(k4, t, 4)
    w_next = w + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    _check_stage(w_next, t, 4)
    return w_next


def _check_stage(k: np.ndarray, t: float, stage: int) -> None:
    if not np.all(np.isfinite(k)):
        raise IntegrationBlowupError(t, stage)


def integrate(f: VectorField, mesh: MeshSpec, w0) -> Trajectory:
    """March w' = f(t, w), w(a) = w0 across the mesh with RK4."""
    w0 = np.atleast_1d(np.asarray(w0, dtype=float))
    if w0.ndim != 1:
        raise ValueError("initial state must be a flat vector")
    if not np.all(np.isfinite(w0)):
        raise ValueError("initial state must be finite")

    times = mesh.times()
    states = np.empty((len(times), len(w0)))
    states[0] = w0
    for j in range(mesh.n_steps):
        try:
            states[j + 1] = rk4_step(f, float(times[j]), states[j], mesh.h)
        except IntegrationBlowupError as err:
            raise IntegrationBlowupError(err.t, err.stage, step=j) from None
    return Trajectory(times=times, states=states)


def negative_components(trajectory: Trajectory, floor: float = -1e-6) -> list[tuple[int, int]]:
    """(row, column) indices of state entries below ``floor``.

    Trajectories are stored unclipped; entries slightly below zero are
    expected round-off transients, anything below the floor is worth a
    warning upstream.
    """
    rows, cols = np.nonzero(trajectory.states < floor)
    return list(zip(rows.tolist(), cols.tolist()))
