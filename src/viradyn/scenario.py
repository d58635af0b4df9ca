"""End-to-end simulation scenarios, clinical metrics, and preset suites.

A scenario bundles a model variant, its parameters, a treatment
schedule, a uniform mesh, and an initial state.  Running one yields the
RK4 trajectory plus a :class:`MetricSet` summarising it: the final
state, the viral-load peak, the treatment-window minimum, total days
spent under the 50 copies/mm^3 suppression threshold, and the first
post-treatment day at which the viral load rebounds to twice its
end-of-treatment value.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import (
    EquilibriumKind,
    eigen3,
    equilibria,
    evaluate_linearized,
    fit_linearized,
    jacobian,
)
from .errors import IntegrationBlowupError, NegativePopulationError
from .integrator import (
    DEFAULT_STEP,
    NEGATIVE_FLOOR,
    MeshSpec,
    Trajectory,
    mesh_index,
    negative_components,
    rk4_step,
)
from .model import (
    EfficacySchedule,
    ModelKind,
    ModelParams,
    SystemState,
    TreatmentWindow,
    effective_rates,
    rhs_at_rates,
)

__all__ = [
    "SUPPRESSION_THRESHOLD",
    "ScenarioConfig",
    "MetricSet",
    "ScenarioResult",
    "LinearizationComparison",
    "compute_metrics",
    "run",
    "run_matrix",
    "compare_linearization",
    "infected_equilibrium",
    "reference_scenarios",
    "DEFAULT_INITIAL",
    "SURVEY_INITIALS",
    "TWO_CONTROL_DOSAGES",
    "COMBINED_DOSAGES",
    "TREATMENT_START",
    "TREATMENT_END",
]

#: therapy aims to push the viral load below this (copies/mm^3)
SUPPRESSION_THRESHOLD = 50.0

#: default initial state used by the CLI and the treated presets
DEFAULT_INITIAL = SystemState(1200.0, 0.0, 100.0)

#: spread of initial conditions exercised by the untreated preset suite
SURVEY_INITIALS = (
    SystemState(500.0, 1e-6, 60.0),
    SystemState(800.0, 10.0, 70.0),
    SystemState(1000.0, 50.0, 30.0),
    SystemState(1200.0, 0.0, 100.0),
)

TWO_CONTROL_DOSAGES = (0.0, 0.2, 0.3, 0.5)
COMBINED_DOSAGES = (0.0, 0.4, 0.6, 0.7)
TREATMENT_START = 150.0
TREATMENT_END = 400.0


@dataclass(frozen=True)
class ScenarioConfig:
    kind: ModelKind
    params: ModelParams
    mesh: MeshSpec
    initial: SystemState
    schedule: EfficacySchedule
    label: str = ""

    def __post_init__(self):
        for name, value in vars(self.initial).items():
            if value < 0.0:
                raise ValueError(f"initial {name} must be non-negative, got {value!r}")
        _window_steps(self.schedule, self.mesh)


def _window_steps(schedule: EfficacySchedule,
                  mesh: MeshSpec) -> list[tuple[int, int, TreatmentWindow]]:
    """``(i0, i1, window)`` per window, covering the whole steps [i0, i1).
    ValueError when a window is outside the mesh, off it, or covers no step."""
    a, b, h = mesh.a, mesh.b, mesh.h
    steps = []
    for seg in schedule.segments:
        i0, i1 = (mesh_index(a, t, h) for t in (seg.t_start, seg.t_end))
        if seg.t_start < a or (i1 is not None and i1 > mesh.n_steps):
            raise ValueError(f"treatment window [{seg.t_start}, {seg.t_end}) falls outside "
                             f"the mesh [{a}, {b}]")
        for edge, i in ((seg.t_start, i0), (seg.t_end, i1)):
            if i is None:
                raise ValueError(f"treatment window edge {edge!r} is not a mesh point of "
                                 f"[{a}, {b}] with step h={h!r}")
        if i1 <= i0:
            raise ValueError(f"treatment window [{seg.t_start}, {seg.t_end}) covers no step "
                             f"of the mesh [{a}, {b}] with step h={h!r}")
        steps.append((i0, i1, seg))
    return steps


@dataclass(frozen=True)
class MetricSet:
    final_state: SystemState
    peak_viral_load: float
    peak_viral_load_day: float
    min_viral_load_during_treatment: float | None
    min_viral_load_during_treatment_day: float | None
    suppression_days: float
    rebound_day: float | None


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    trajectory: Trajectory
    metrics: MetricSet


def compute_metrics(trajectory: Trajectory, schedule: EfficacySchedule) -> MetricSet:
    """Derive the metric set from a trajectory; recomputable at any time.
    ValueError when ``schedule`` does not fit the trajectory's mesh."""
    times = trajectory.times
    viral = trajectory.states[:, 2]
    h = trajectory.h

    i_peak = int(np.argmax(viral))

    # left-endpoint rule so the total never exceeds the simulated span
    suppression = h * int(np.count_nonzero(viral[:-1] < SUPPRESSION_THRESHOLD))

    min_treat = min_treat_day = rebound = None
    if schedule.segments:
        a, b, n = float(times[0]), float(times[-1]), len(times) - 1
        steps = _window_steps(schedule, MeshSpec(a, b, (b - a) / n))
        rows = np.concatenate([np.arange(i0, i1) for i0, i1, _ in steps])
        i_min = rows[int(np.argmin(viral[rows]))]  # every window covers a step
        min_treat = float(viral[i_min])
        min_treat_day = float(times[i_min])
        i_end = steps[-1][1]  # the windows are ordered and disjoint
        if i_end < n:
            after = np.flatnonzero(viral[i_end + 1:] >= 2.0 * viral[i_end])
            if after.size:
                rebound = float(times[i_end + 1 + after[0]])

    return MetricSet(
        final_state=SystemState.from_array(trajectory.states[-1]),
        peak_viral_load=float(viral[i_peak]),
        peak_viral_load_day=float(times[i_peak]),
        min_viral_load_during_treatment=min_treat,
        min_viral_load_during_treatment_day=min_treat_day,
        suppression_days=float(suppression),
        rebound_day=rebound,
    )


def run(config: ScenarioConfig) -> ScenarioResult:
    """Integrate the configured model and attach metrics."""
    trajectory, _ = next(_march([config]))
    return ScenarioResult(config, trajectory, compute_metrics(trajectory, config.schedule))


def _rate_runs(config: ScenarioConfig) -> list[tuple[int, int, tuple[float, float]]]:
    """``(i0, i1, (beta_eff, k_eff))`` per run of steps [i0, i1), none empty and
    no two neighbours alike, so two lists agree exactly as far as their marches."""
    kind, params = config.kind, config.params
    off = effective_rates(kind, params, 0.0, 0.0)
    runs, i = [], 0
    for i0, i1, seg in _window_steps(config.schedule, config.mesh):
        runs += [(i, i0, off), (i0, i1, effective_rates(kind, params, seg.u1, seg.u2))]
        i = i1
    canonical = []
    for i0, i1, rates in runs + [(i, config.mesh.n_steps, off)]:
        if canonical and canonical[-1][2] == rates:
            i0 = canonical.pop()[0]
        if i0 < i1:
            canonical.append((i0, i1, rates))
    return canonical


def _integrate(config: ScenarioConfig, runs: list, times: np.ndarray,
               prefix: np.ndarray | None = None) -> Trajectory:
    """RK4 across the mesh ``times``, holding each step's (beta_eff, k_eff) from ``runs``.

    Each window covers the whole steps [i0, i1) between its edges, which
    are mesh points, so a step never straddles a switch and the method
    stays fourth order.  The step arithmetic is that of :func:`rk4_step`
    on :func:`rhs_at_rates`, written out on floats.  Rows are checked for
    finiteness once at the end; the first bad step is then replayed
    through :func:`rk4_step`, which raises the labelled blowup error.  An
    entry below ``NEGATIVE_FLOOR`` raises :class:`NegativePopulationError`.
    Given ``prefix``, its rows are copied and the march resumes from its last.
    """
    params, mesh = config.params, config.mesh
    n, h = mesh.n_steps, mesh.h
    s, d, m1, m2 = params.s, params.d, params.m1, params.m2
    states = _allocated(mesh, lambda: np.empty((n + 1, 3)))
    start = 0 if prefix is None else len(prefix) - 1
    states[:start + 1] = config.initial.as_array() if prefix is None else prefix
    T, Ts, V = states[start].tolist()
    out = memoryview(states.reshape(-1))
    for i0, i1, (beta, k) in runs:
        for j in range(3 * max(i0, start) + 3, 3 * i1 + 3, 3):
            x = beta * T * V
            k1T = h * (s - d * T - x)
            k1Ts = h * (x - m2 * Ts)
            k1V = h * (k * Ts - m1 * V)
            T2, Ts2, V2 = T + 0.5 * k1T, Ts + 0.5 * k1Ts, V + 0.5 * k1V
            x = beta * T2 * V2
            k2T = h * (s - d * T2 - x)
            k2Ts = h * (x - m2 * Ts2)
            k2V = h * (k * Ts2 - m1 * V2)
            T2, Ts2, V2 = T + 0.5 * k2T, Ts + 0.5 * k2Ts, V + 0.5 * k2V
            x = beta * T2 * V2
            k3T = h * (s - d * T2 - x)
            k3Ts = h * (x - m2 * Ts2)
            k3V = h * (k * Ts2 - m1 * V2)
            T2, Ts2, V2 = T + k3T, Ts + k3Ts, V + k3V
            x = beta * T2 * V2
            k4T = h * (s - d * T2 - x)
            k4Ts = h * (x - m2 * Ts2)
            k4V = h * (k * Ts2 - m1 * V2)
            T = T + (k1T + 2.0 * k2T + 2.0 * k3T + k4T) / 6.0
            Ts = Ts + (k1Ts + 2.0 * k2Ts + 2.0 * k3Ts + k4Ts) / 6.0
            V = V + (k1V + 2.0 * k2V + 2.0 * k3V + k4V) / 6.0
            out[j], out[j + 1], out[j + 2] = T, Ts, V

    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite)) - 1
        beta, k = next(rates for i0, i1, rates in runs if i0 <= j < i1)
        try:
            rk4_step(lambda t, w: rhs_at_rates(params, beta, k, w), float(times[j]),
                     states[j], h)
        except IntegrationBlowupError as err:
            raise IntegrationBlowupError(err.t, err.stage, step=j,
                                         label=config.label or None) from None
        raise RuntimeError(f"step {j} is finite in rk4_step but not in the kernel")
    trajectory = Trajectory(times=times, states=states)
    if states.min() < NEGATIVE_FLOOR:  # the exact flow keeps every population >= 0
        i, c = negative_components(trajectory)[0]
        raise NegativePopulationError(fields(SystemState)[c].name, float(times[i]),
                                      float(states[i, c]), i, label=config.label or None)
    return trajectory


def _allocated(mesh: MeshSpec, make):
    """``make()``, with a MemoryError turned into a ValueError naming the mesh."""
    try:
        return make()
    except MemoryError:
        raise ValueError(f"a trajectory of {mesh.n_steps} steps on the mesh [{mesh.a}, "
                         f"{mesh.b}] with step h={mesh.h!r} needs {24 * (mesh.n_steps + 1)} "
                         "bytes, more than can be allocated") from None


def run_matrix(base: ScenarioConfig,
               efficacy_levels: list[tuple[float, float]]) -> list[ScenarioResult]:
    """One run per (u1, u2) level, windows kept, efficacies replaced.  Where a second
    process pays, a forked child marches the second half of the levels."""
    if not efficacy_levels:
        raise ValueError("need at least one efficacy level")
    configs = [replace(base, schedule=base.schedule.with_efficacies(u1, u2),
                       label=f"{base.label or 'matrix'}[{i}:u1={u1:g},u2={u2:g}]")
               for i, (u1, u2) in enumerate(efficacy_levels)]
    return [result for result, _ in _results(configs, (len(configs) + 1) // 2)]


def _shared_times(configs: list[ScenarioConfig]) -> dict[tuple[float, float], np.ndarray]:
    """One read-only times array per (mesh start, step), that of the longest mesh on it:
    a + i*h has the same bits whatever the mesh's end, so the first ``n_steps + 1``
    times of a config's array equal its ``mesh.times()``."""
    # in order of length, the last mesh on each (start, step) wins
    longest = {(m.a, m.h): m for m in sorted((c.mesh for c in configs), key=lambda m: m.n_steps)}
    shared = {key: _allocated(mesh, mesh.times) for key, mesh in longest.items()}
    for times in shared.values():
        times.flags.writeable = False
    return shared


def _sources(configs: list[ScenarioConfig]) -> tuple[list[list], list[tuple[int, int]]]:
    """The rate runs of each config, and the ``(steps, index)`` of the earlier config it
    can copy rows 0..steps from, or ``(0, -1)``.  Configs with equal params, mesh start,
    step and initial bits (-0.0 prints apart from 0.0) agree row for row until their rate
    runs differ: each copies the longest such prefix."""
    runs = [_rate_runs(c) for c in configs]
    groups = [(c.params, c.mesh.a, c.mesh.h, c.initial.as_array().tobytes()) for c in configs]
    sources = []
    for i, mine in enumerate(runs):
        best = (0, -1)
        for j in (j for j in range(i) if groups[j] == groups[i]):
            for (i0, i1, rates), (_, j1, theirs) in zip(mine, runs[j]):  # never empty lists
                shared = min(i1, j1) if rates == theirs else i0
                if (i1, rates) != (j1, theirs):
                    break
            best = max(best, (shared, j))
        sources.append(best)
    return runs, sources


def _march(configs: list[ScenarioConfig], shared_times: dict | None = None
           ) -> Iterator[tuple[Trajectory, tuple[int, int] | None]]:
    """The trajectory of each config in turn, with the ``(index, steps)`` of the
    earlier config it copied rows 0..steps from (see :func:`_sources`), or None.
    Each copied prefix is held only until its last copier runs.  Each trajectory's
    times are a prefix view of its array in ``shared_times``, by default
    :func:`_shared_times` of ``configs``."""
    shared_times = shared_times or _shared_times(configs)
    runs, sources = _sources(configs)
    last_use = {j: i for i, (shared, j) in enumerate(sources) if shared}
    kept = {}
    for i, (config, (shared, j)) in enumerate(zip(configs, sources)):
        times = shared_times[config.mesh.a, config.mesh.h][:config.mesh.n_steps + 1]
        trajectory = _integrate(config, runs[i], times, kept[j][:shared + 1] if shared else None)
        if shared and last_use[j] == i:
            del kept[j]
        if i in last_use:
            kept[i] = trajectory.states
        yield trajectory, (j, shared) if shared else None


def _second_process() -> bool:
    """Whether a forked child can march beside this process: on Linux, with ``os.fork``
    and two CPUs or more.  On one CPU the two take turns, and the fork only adds cost."""
    return (sys.platform.startswith("linux") and hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2)


# Below this many mesh steps in the child's half, run_matrix marches in one process.
# Fork and reap alone take 1.4 ms, and copy-on-write faults in both processes add
# more.  Minimum times on a 2-core box, one process against forked: 7.2 against 9.8 ms
# at 2 x 4,000 steps, 12.1-13.1 against 11.7-13.5 ms at 14 x 1,000 (about even), and
# 17.3 against 13.9 ms at 2 x 8,000.
_FORK_MIN_STEPS = 8_000

# catch_warnings saves and restores the process-wide filters: two threads forking at once
# would restore them out of order and leave the fork's filter behind
_FORK_LOCK = threading.Lock()


def _read_into(fd: int, buffer) -> None:
    """Fill ``buffer`` from the pipe ``fd``; EOFError when the pipe ends first."""
    view = memoryview(buffer).cast("B")
    while view:
        n = os.readv(fd, [view])
        if not n:
            raise EOFError
        view = view[n:]


def _results(configs: list[ScenarioConfig], half: int = 0
             ) -> Iterator[tuple[ScenarioResult, tuple[int, int] | None]]:
    """``run(config)`` for each config in turn, with what :func:`_march` copied.  Where a
    second process pays (with a ``half``, from ``_FORK_MIN_STEPS`` steps in them) and the pipe
    and fork are granted, a forked child marches ``configs[half:]`` and sends only their rows,
    while this process marches ``configs[:half]``; else this process marches them all.  If the
    pipe ends before config i, ``configs[i:]`` are marched here one by one, with the same bits,
    so the first error raised is the in-process one; with none, a ChildProcessError names
    config i.  An error here, or closing the generator, stops and reaps the child."""
    import fcntl
    shared_times = _shared_times(configs)  # a mesh too long to hold fails before the fork
    fds, pid = (), None
    try:
        with contextlib.suppress(OSError):  # no descriptor, process or memory to spare
            if _second_process() and (not half or sum(
                    c.mesh.n_steps for c in configs[half:]) >= _FORK_MIN_STEPS):
                fds = r, w = os.pipe()
                with contextlib.suppress(OSError):  # a larger pipe lets the march run ahead
                    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)  # Linux's limit for a user
                # The child calls no BLAS routine (src/ has no numpy.linalg), so the OpenBLAS
                # worker thread that Python 3.12+ warns about at a fork holds no lock it needs.
                with _FORK_LOCK, warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "This process", DeprecationWarning)
                    pid = os.fork()
    finally:
        if pid is None:  # no child: this process marches every config
            for fd in fds:
                os.close(fd)
            fds, half = (), len(configs)
    if pid == 0:  # the child never returns into the caller and writes nothing to fds 1 and 2
        status = 1  # any exception ends the child with this status
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                marched = _march(configs[half:], shared_times)
                # while the parent marches a half of its own, the child marches all of
                # its configs before it writes: one that streamed would block on the
                # full pipe until the parent came to read, and the halves would take turns
                for trajectory, _ in (list(marched) if half else marched):
                    pipe.write(trajectory.states.data)
                    pipe.flush()
            status = 0
        finally:
            os._exit(status)
    if fds:
        os.close(w)
    marched = _march(configs[:half], shared_times)
    copies = [(half + j, steps) if steps else None for steps, j in _sources(configs[half:])[1]]
    try:
        for i, config in enumerate(configs):
            if i < half:
                trajectory, copied = next(marched)
            else:
                mesh = config.mesh
                states = _allocated(mesh, lambda: np.empty((mesh.n_steps + 1, 3)))
                _read_into(r, states)
                trajectory = Trajectory(shared_times[mesh.a, mesh.h][:mesh.n_steps + 1], states)
                copied = copies[i - half]
            yield (ScenarioResult(config, trajectory, compute_metrics(trajectory, config.schedule)),
                   copied)
        return
    except EOFError:  # the child ended before config i
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
    finally:
        if fds:
            os.close(r)
        if pid is not None:  # every config is read, or this process stopped early
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for config in configs[i:]:  # the march is deterministic: an error the child met recurs here
        mesh = config.mesh
        _integrate(config, _rate_runs(config), shared_times[mesh.a, mesh.h][:mesh.n_steps + 1])
    raise ChildProcessError(
        f"the march ended before scenario {configs[i].label!r}: its process "
        + (f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"))


@dataclass(frozen=True)
class LinearizationComparison:
    """Nonlinear trajectory vs. modal linearized solution around the
    infected equilibrium, both started from the same perturbation."""

    times: np.ndarray
    nonlinear: np.ndarray          # states of the full model, rows per time
    linearized: np.ndarray         # equilibrium + modal solution, same shape
    perturbation: np.ndarray
    component_max: np.ndarray      # per-component max |nonlinear - linearized|

    @property
    def max_discrepancy(self) -> float:
        return float(np.max(self.component_max))


def infected_equilibrium(params: ModelParams) -> SystemState:
    """The untreated basic model's infected equilibrium; ValueError if it does not exist."""
    for eq in equilibria(params, 0.0, 0.0, ModelKind.BASIC):
        if eq.kind is EquilibriumKind.INFECTED:
            return eq.point
    raise ValueError("no infected equilibrium exists for these parameters")


def compare_linearization(config: ScenarioConfig, perturbation) -> LinearizationComparison:
    """Run the nonlinear model and its linearization from equilibrium + perturbation.

    Requires the BASIC model, an existing infected equilibrium, and a
    perturbation no larger than 10 in any component (the linearization
    is local).  The configured initial state is ignored; integration
    starts from the perturbed equilibrium over the configured mesh.
    """
    if config.kind is not ModelKind.BASIC:
        raise ValueError("linearization comparison is defined for the basic model")
    perturbation = np.asarray(perturbation, dtype=float)
    if perturbation.shape != (3,):
        raise ValueError("perturbation must be a 3-vector")
    if not np.all(np.abs(perturbation) <= 10.0):
        raise ValueError("perturbation components must not exceed 10 in magnitude")

    eq_point = infected_equilibrium(config.params)
    eq = eq_point.as_array()

    nonlinear_cfg = replace(config, initial=SystemState.from_array(eq + perturbation),
                            label=config.label or "linearization-check")
    trajectory, _ = next(_march([nonlinear_cfg]))  # no metrics: none is read

    sol = fit_linearized(eigen3(jacobian(config.params, 0.0, 0.0, config.kind, eq_point)),
                         perturbation)
    linearized = eq + evaluate_linearized(sol, trajectory.times - trajectory.times[0])

    diff = np.abs(trajectory.states - linearized)
    return LinearizationComparison(
        times=trajectory.times,
        nonlinear=trajectory.states,
        linearized=linearized,
        perturbation=perturbation,
        component_max=diff.max(axis=0),
    )


def reference_scenarios(params: ModelParams | None = None,
                        h: float = DEFAULT_STEP) -> list[ScenarioConfig]:
    """The built-in suite behind the ``reproduce`` command.

    Untreated runs from four initial states over [0, 400]; dosage
    matrices for both treated variants with the therapy window
    [150, 400) inside a 600-day horizon; and continuous-therapy variants
    whose window never closes.
    """
    params = params or ModelParams()
    untreated_mesh = MeshSpec(0.0, 400.0, h)
    treated_mesh = MeshSpec(0.0, 600.0, h)

    def treated(kind, end, u1, u2, label):
        return ScenarioConfig(kind, params, treated_mesh, DEFAULT_INITIAL,
                              EfficacySchedule.window(TREATMENT_START, end, u1, u2), label=label)

    return [
        *(ScenarioConfig(ModelKind.BASIC, params, untreated_mesh, state, EfficacySchedule(),
                         label=f"basic-T0-{state.T:g}") for state in SURVEY_INITIALS),
        *(treated(ModelKind.TWO_CONTROL, TREATMENT_END, u, u, f"two-control-u{u:g}")
          for u in TWO_CONTROL_DOSAGES),
        *(treated(ModelKind.COMBINED, TREATMENT_END, 0.0, u, f"combined-u{u:g}")
          for u in COMBINED_DOSAGES),
        treated(ModelKind.TWO_CONTROL, 600.0, 0.5, 0.5, "two-control-u0.5-continuous"),
        treated(ModelKind.COMBINED, 600.0, 0.0, 0.7, "combined-u0.7-continuous"),
    ]
