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
NEGATIVE_FLOOR = -1e-6  #: state entries below this are more than round-off

_REL_TOL = 1e-9  # mesh uniformity / divisibility tolerance
_SPACING_BLOCK = 1 << 16  # mesh times per spacing check, to bound its memory
_SCAN_LIMIT = 1 << 25  # mesh steps compared one by one (about 1 s) before a mesh is refused


def mesh_index(a: float, t: float, h: float) -> int | None:
    """Index i of the mesh point a + i*h at ``t``, or None when t is off the mesh.

    ``(t - a) / h`` must be finite and lie within 1e-9 of an integer,
    relative to that integer, so only t == a itself maps to index 0.
    """
    n = (t - a) / h
    if not math.isfinite(n):
        return None
    i = round(n)
    return i if abs(n - i) <= _REL_TOL * i else None


def _check_spacing(times: np.ndarray, h: float, what: str) -> None:
    """ValueError naming ``what`` unless every step of ``times`` is within 1e-9 relative of h."""
    steps = np.diff(times)
    off = ~(np.abs(steps - h) <= _REL_TOL * h)  # a NaN step is off too
    if off.any():
        raise ValueError(f"{what} must be uniformly spaced; one step is {float(steps[off][0])!r}")


@dataclass(frozen=True)
class MeshSpec:
    """Uniform mesh of [a, b] with step h; h must divide b - a evenly."""

    a: float
    b: float
    h: float

    def __post_init__(self):
        for name in ("a", "b", "h"):  # stored as floats, so an int mesh has float times
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"mesh {name} must be finite")
            object.__setattr__(self, name, float(value))
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
        # each time a + i*h is within 3 * 2**-53 * max(|a|, |b|) of exact, so two steps differ by
        # 1e-9 relative only past this bound
        if max(abs(self.a), abs(self.b)) * 2.0**-49 > _REL_TOL * self.h:
            _check_times(self, n)

    @property
    def n_steps(self) -> int:
        return round((self.b - self.a) / self.h)

    def times(self, first: int = 0, last: int | None = None) -> np.ndarray:
        return self.a + np.arange(first, (self.n_steps if last is None else last) + 1) * self.h


def _check_times(mesh: MeshSpec, n: int) -> None:
    """ValueError unless every step of ``mesh.times()`` is within 1e-9 relative of its
    first, as :class:`Trajectory` requires, or when that takes too long to decide.

    Below index 2**53, i is an exact float and the time is a + i*h rounded twice:
    i*h to the float spacing of its binade, then a plus that to the time's.  So
    the indices are cut into runs where both binades are fixed, and a run passes
    unscanned when both spacings are too fine to move a step by 1e-9 relative, or
    when both divide h: then i*h is exact and a + i*h rounds the same way at each i,
    or on a tie alternately down and up.  Every other run, each step from one run to
    the next and the indices past 2**53 (where i rounds, so a step is 0) are compared
    one by one; past ``_SCAN_LIMIT`` such steps the mesh is refused.
    """
    a, h = float(mesh.a), float(mesh.h)
    h1 = a + h - a  # the first step of times(), which the others must match
    what = f"the times of mesh [{mesh.a}, {mesh.b}] with step h={mesh.h!r}"
    if not h1 > 0.0:
        raise ValueError(f"{what} must be uniformly spaced; the first step is {h1!r}")
    # a = A and h = H in units of 2**-d, so the exact a + i*h is A + i*H
    (ap, aq), (hp, hq) = a.as_integer_ratio(), h.as_integer_ratio()
    d = max(aq, hq).bit_length() - 1
    A, H = ap << d >> (aq.bit_length() - 1), hp << d >> (hq.bit_length() - 1)

    def spacing(units: int) -> int:  # log2 of the float spacing at units * 2**-d, in units
        return max(units.bit_length() - 1 - d, -1022) - 52 + d

    def passes(p: int, q: int) -> bool:  # provably, for every step between points p..q
        top = max(abs(A + p * H), abs(A + q * H)) + 2 * H  # bounds |a + x_i|, x_i = fl(i*h)
        slack = math.ldexp(1.0, spacing(top) - d) + math.ldexp(1.0, spacing((q + 1) * H) - d)
        if slack + abs(h - h1) + h * 2.0**-51 <= 0.99 * _REL_TOL * h1:
            return True
        u = spacing(abs(A + p * H))  # that of the time's binade, when the run has one
        if (A + p * H) * (A + q * H) <= 0 or spacing(abs(A + q * H)) != u or \
                max(u, spacing(q * H)) > (H & -H).bit_length() - 1:
            return False
        ut = math.ldexp(1.0, u - d)
        tie = u > 0 and A % (1 << u) == 1 << (u - 1) and H >> u & 1
        return not any(abs(s - h1) > _REL_TOL * h1 for s in ((h - ut, h + ut) if tie else (h,)))

    budget = _SCAN_LIMIT

    def scan(p: int, q: int) -> None:  # every step between points p..q
        nonlocal budget
        for i in range(p, q, _SPACING_BLOCK):
            if budget <= 0:
                raise ValueError(f"{what} cannot be checked for uniform spacing in bounded "
                                 f"time: more than {_SCAN_LIMIT} steps would be compared "
                                 "one by one")
            j = min(i + _SPACING_BLOCK, q)
            _check_spacing(mesh.times(i, j), h1, what)
            budget -= j - i

    # every time up to index ``first`` is exact: |A| + i*H < 2**53
    first, last = max((2**53 - 1 - abs(A)) // H, 0), min(n, 2**53)
    if first < last and not passes(first, last):
        # the first index whose time reaches each binade (0 apart) and whose i*h reaches each
        width = max(abs(A + first * H), abs(A + last * H)).bit_length()
        edges = [0, *(1 << k for k in range(width + 1)),
                 *(1 - (1 << k) for k in range(1, width + 2))]
        cuts = {-((A - edge) // H) for edge in edges}
        cuts |= {-(-(1 << k) // H) for k in range((last * H).bit_length() + 1)}
        starts = [first, *sorted(i for i in cuts if first < i <= last)]
        for p, q in zip(starts, [i - 1 for i in starts[1:]] + [last]):
            if p > first:
                scan(p - 1, p)
            if q > p and not passes(p, q):
                scan(p, q)
    scan(max(first, last), n)


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
        if not np.isfinite(times).all():
            raise ValueError("trajectory times must be finite")
        if len(times) < 2 or times[1] - times[0] <= 0.0:
            raise ValueError("trajectory needs at least two strictly increasing times")
        _check_spacing(times, times[1] - times[0], "trajectory times")
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
    update is w + (k1 + 2*k2 + 2*k3 + k4)/6.  A non-finite stage or stage
    input raises :class:`IntegrationBlowupError` carrying t and the stage
    number, without a warning; a non-finite update from finite stages is
    reported as stage k4.
    """
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("state passed to rk4_step must be finite")

    ks = []
    with np.errstate(over="ignore", invalid="ignore"):  # raised as blowups below instead
        for stage, c in enumerate((0.0, 0.5, 0.5, 1.0), 1):
            w_stage = w + c * ks[-1] if ks else w
            _check_stage(w_stage, t, stage)
            ks.append(h * np.asarray(f(t + c * h, w_stage), dtype=float))
            _check_stage(ks[-1], t, stage)
        k1, k2, k3, k4 = ks
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


def negative_components(trajectory: Trajectory) -> list[tuple[int, int]]:
    """(row, column) indices of state entries below ``NEGATIVE_FLOOR``.

    Trajectories are stored unclipped; entries slightly below zero are
    expected round-off transients, anything below the floor is worth a
    warning upstream.
    """
    rows, cols = np.nonzero(trajectory.states < NEGATIVE_FLOOR)
    return list(zip(rows.tolist(), cols.tolist()))
