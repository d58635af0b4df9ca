"""The scenario RK4 kernel: rates held constant over each step, window
edges on mesh points, and the generic integrator as its reference."""

import itertools
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from viradyn import (
    DEFAULT_INITIAL,
    EfficacySchedule,
    MeshSpec,
    ModelKind,
    ModelParams,
    ScenarioConfig,
    SystemState,
    TreatmentWindow,
    compute_metrics,
    effective_rates,
    integrate,
    reference_scenarios,
    rhs_at_rates,
    rk4_step,
    run,
    run_matrix,
)
from viradyn.cli import main
from viradyn.errors import IntegrationBlowupError
from viradyn.scenario import _results

PARAMS = ModelParams()


def piecewise_reference(config):
    """Generic ``integrate`` restarted at every window edge.

    Each piece runs with its efficacies held constant over every stage
    time, which is what the kernel does per step.
    """
    mesh, schedule = config.mesh, config.schedule
    edges = sorted({mesh.a, mesh.b,
                    *(t for seg in schedule.segments for t in (seg.t_start, seg.t_end))})
    w = config.initial.as_array()
    rows = [w[None, :]]
    for lo, hi in zip(edges, edges[1:]):
        rates = effective_rates(config.kind, config.params, *schedule.efficacies_at(lo))
        f = lambda t, w: rhs_at_rates(config.params, *rates, w)
        states = integrate(f, MeshSpec(lo, hi, mesh.h), w).states
        rows.append(states[1:])
        w = states[-1]
    return np.vstack(rows)


def assert_matches_reference(config):
    kernel = run(config).trajectory.states
    reference = piecewise_reference(config)
    assert kernel.shape == reference.shape
    scale = np.max(np.abs(reference), axis=0)
    assert np.all(np.abs(kernel - reference) <= 1e-12 * scale), config.label


# --- order of convergence ---------------------------------------------------------

def test_fourth_order_holds_with_a_treatment_window():
    config = next(c for c in reference_scenarios(PARAMS) if c.label == "two-control-u0.5")
    at = lambda h: run(replace(config, mesh=MeshSpec(0.0, 600.0, h))).trajectory.final_state
    reference = at(0.00625)
    errors = [np.max(np.abs(at(h) - reference) / np.abs(reference))
              for h in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 14.0


# --- agreement with the generic integrator ------------------------------------------

WINDOW_SETS = {
    0: [],
    1: [(15.0, 40.0)],
    2: [(0.0, 12.5), (30.0, 60.0)],                   # first window starts at a
    3: [(5.0, 20.0), (20.0, 35.0), (45.0, 60.0)],     # touching windows, last ends at b
}


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("n_windows", sorted(WINDOW_SETS))
def test_kernel_matches_generic_integrate_restarted_at_each_edge(kind, n_windows):
    windows = tuple(TreatmentWindow(t0, t1, 0.2 + 0.2 * i, 0.7 - 0.2 * i)
                    for i, (t0, t1) in enumerate(WINDOW_SETS[n_windows]))
    config = ScenarioConfig(kind, PARAMS, MeshSpec(0.0, 60.0, 0.25), DEFAULT_INITIAL,
                            EfficacySchedule(windows), label=f"{kind.value}-{n_windows}")
    assert_matches_reference(config)


@st.composite
def on_mesh_configs(draw, max_steps=400):
    kind = draw(st.sampled_from(list(ModelKind)))
    h = draw(st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25, 0.5]))
    n = draw(st.integers(20, max_steps))
    a = draw(st.integers(0, 400)) * h
    n_windows = draw(st.integers(0, 3))
    marks = sorted(draw(st.lists(st.integers(0, n), min_size=2 * n_windows,
                                 max_size=2 * n_windows)))
    windows = []
    for i0, i1 in zip(marks[::2], marks[1::2]):
        if i0 < i1:
            u1, u2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
            windows.append(TreatmentWindow(a + i0 * h, a + i1 * h, u1, u2))
    initial = SystemState(draw(st.floats(0.0, 2000.0)), draw(st.floats(0.0, 100.0)),
                          draw(st.floats(0.0, 1000.0)))
    return ScenarioConfig(kind, PARAMS, MeshSpec(a, a + n * h, h), initial,
                          EfficacySchedule(tuple(windows)), label="random")


@settings(max_examples=25, deadline=None)
@given(config=on_mesh_configs(max_steps=200))
def test_kernel_matches_generic_integrate_on_random_schedules(config):
    assert_matches_reference(config)


@settings(deadline=None)
@given(config=on_mesh_configs())
def test_random_schedules_keep_populations_bounded(config):
    states = run(config).trajectory.states
    p, w0 = config.params, config.initial
    bound = max(w0.T + w0.T_star, p.s / min(p.d, p.m2))
    assert np.min(states[:, 2]) >= -1e-6
    assert np.max(states[:, 0] + states[:, 1]) <= bound * (1.0 + 1e-9) + 1e-9


# --- blowups ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_blowup_inside_a_window_matches_a_hand_replay():
    i0, i1, h = 1, 10, 0.1
    config = ScenarioConfig(ModelKind.TWO_CONTROL, PARAMS, MeshSpec(0.0, 2.0, h),
                            SystemState(1e10, 0.0, 1e10),
                            EfficacySchedule.window(i0 * h, i1 * h, 0.5, 0.5),
                            label="blowup-in-window")
    with pytest.raises(IntegrationBlowupError) as exc:
        run(config)

    w = config.initial.as_array()
    for j, t in enumerate(config.mesh.times()[:-1]):
        u = 0.5 if i0 <= j < i1 else 0.0
        rates = effective_rates(config.kind, PARAMS, u, u)
        f = lambda t, w: rhs_at_rates(PARAMS, *rates, w)
        try:
            w = rk4_step(f, float(t), w, h)
        except IntegrationBlowupError as err:
            expected = (err.t, err.stage, j, config.label)
            break
    else:
        pytest.fail("the hand replay did not blow up")
    assert i0 <= expected[2] < i1
    got = exc.value
    assert (got.t, got.stage, got.step, got.label) == expected


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("b", [1.0, 2.0])
def test_nonfinite_update_from_finite_stages_is_a_blowup(b):
    with pytest.raises(IntegrationBlowupError) as exc:
        integrate(lambda t, w: np.array([1e308]), MeshSpec(0.0, b, 1.0), [0.0])
    assert (exc.value.t, exc.value.stage, exc.value.step) == (0.0, 4, 0)


# --- window edges on the mesh ------------------------------------------------------------

def test_off_mesh_window_edge_rejected():
    with pytest.raises(ValueError, match="not a mesh point"):
        ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(0.0, 600.0, 0.1),
                       DEFAULT_INITIAL, EfficacySchedule.window(150.05, 400.0, 0.0, 0.5))


def test_window_edges_at_the_mesh_ends_accepted():
    config = ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(3.7, 13.7, 0.1),
                            DEFAULT_INITIAL, EfficacySchedule.window(3.7, 13.7, 0.0, 0.5))
    assert config.schedule.segments[0].t_end == 13.7


def test_window_covering_no_step_rejected():
    # both edges map to mesh index 1000
    with pytest.raises(ValueError, match=r"window \[100.0, 100.0000000001\) covers no step "
                                         r"of the mesh \[0.0, 600.0\] with step h=0.1"):
        ScenarioConfig(ModelKind.TWO_CONTROL, PARAMS, MeshSpec(0.0, 600.0, 0.1),
                       DEFAULT_INITIAL, EfficacySchedule.window(100.0, 100.0000000001, 0.9, 0.9))


def test_window_covering_no_step_exits_two_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["simulate", "--model=two-control", "--t1=600",
                 "--treat=100:100.0000000001:0.9:0.9", f"--out={out}"]) == 2
    assert "covers no step" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_off_mesh_window_exits_two_and_writes_nothing(tmp_path):
    out = tmp_path / "off.csv"
    assert main(["simulate", "--model=two-control", "--t1=600",
                 "--treat=150.05:400.03:0.5", f"--out={out}"]) == 2
    doc = {"kind": "two-control", "mesh": {"a": 0.0, "b": 600.0, "h": 0.1},
           "schedule": [{"t_start": 150.05, "t_end": 400.03, "u1": 0.5, "u2": 0.5}]}
    config = tmp_path / "off.json"
    config.write_text(json.dumps(doc))
    assert main(["simulate", f"--config={config}", f"--out={out}"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["off.json"]


# --- metrics from indices --------------------------------------------------------------------

def test_treatment_metrics_use_mesh_indices_not_float_times():
    # times[700] is 489.99999999999994: the row belongs to the untreated
    # part and is where the rebound baseline v_end is read
    config = ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(0.0, 700.0, 0.7),
                            DEFAULT_INITIAL, EfficacySchedule.window(350.0, 490.0, 0.0, 0.5))
    result = run(config)
    assert result.trajectory.times[700] < 490.0
    m = result.metrics
    assert m.min_viral_load_during_treatment_day == pytest.approx(489.3)
    assert m.rebound_day == pytest.approx(491.4)
    assert math.isclose(m.min_viral_load_during_treatment,
                        result.trajectory.states[500:700, 2].min())


# --- compute_metrics maps windows as the constructor does -----------------------------

def _untreated_300_days():
    return run(ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(0.0, 300.0, 0.1),
                              DEFAULT_INITIAL, EfficacySchedule())).trajectory


def test_metrics_reject_a_window_edge_off_the_trajectory_mesh():
    with pytest.raises(ValueError, match="not a mesh point"):
        compute_metrics(_untreated_300_days(),
                        EfficacySchedule.window(150.05, 300.0, 0.0, 0.5))


def test_metrics_reject_a_window_past_the_trajectory_end():
    with pytest.raises(ValueError, match="outside"):
        compute_metrics(_untreated_300_days(), EfficacySchedule.window(150.0, 400.0, 0.0, 0.5))


def test_metrics_accept_a_window_ending_on_a_last_time_rounded_below_it():
    # 0.7 * 700 rounds to 489.99999999999994, below the window end 490
    config = ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(0.0, 490.0, 0.7),
                            DEFAULT_INITIAL, EfficacySchedule.window(350.0, 490.0, 0.0, 0.5))
    result = run(config)
    assert result.trajectory.times[-1] < 490.0
    treated = result.trajectory.states[500:700, 2]
    assert result.metrics.min_viral_load_during_treatment == treated.min()


# --- shared prefixes are marched once, with the bits of a standalone run --------------------

def assert_equals_standalone_runs(configs, results):
    results = list(results)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        alone = run(config)
        assert result.config == config
        assert np.array_equal(result.trajectory.times, alone.trajectory.times), config.label
        assert np.array_equal(result.trajectory.states, alone.trajectory.states), config.label
        assert result.trajectory.states.tobytes() == alone.trajectory.states.tobytes()
        assert result.metrics == alone.metrics, config.label


START_POOLS = ((PARAMS, ModelParams(beta=3e-5)), (0.1, 0.2),
               (DEFAULT_INITIAL, SystemState(800.0, 10.0, 70.0)))


@st.composite
def configs_from_a_shared_pool(draw):
    """Configs from two starts (params, step, initial state) that differ in
    at most one field, with one treated level, so many configs share rows
    and windows with equal rates often open at different steps."""
    first = [draw(st.sampled_from(pool)) for pool in START_POOLS]
    second = list(first)
    field = draw(st.integers(0, 2))
    second[field] = draw(st.sampled_from(START_POOLS[field]))
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        params, h, initial = draw(st.sampled_from([first, second]))
        marks = sorted(draw(st.lists(st.sampled_from([0.0, 50.0, 150.0, 250.0, 400.0]),
                                     max_size=4)))
        windows = [TreatmentWindow(t0, t1, *draw(st.sampled_from([(0.0, 0.0), (0.3, 0.6)])))
                   for t0, t1 in zip(marks[::2], marks[1::2]) if t0 < t1]
        configs.append(ScenarioConfig(
            draw(st.sampled_from(list(ModelKind))), params,
            MeshSpec(0.0, draw(st.sampled_from([400.0, 600.0])), h), initial,
            EfficacySchedule(tuple(windows)), label=f"pool-{len(configs)}"))
    return configs


def _two_control(t_end, *windows, initial=DEFAULT_INITIAL):
    return ScenarioConfig(ModelKind.TWO_CONTROL, PARAMS, MeshSpec(0.0, t_end, 0.1),
                          initial, EfficacySchedule(tuple(
                              TreatmentWindow(t0, t1, 0.3, 0.6) for t0, t1 in windows)))


@settings(max_examples=20, deadline=None)
@given(configs=configs_from_a_shared_pool())
# equal rates opening at different steps share only the rows before the first
@example(configs=[_two_control(400.0, (50.0, 150.0)), _two_control(600.0, (150.0, 250.0))])
# touching windows of equal rates march as one window
@example(configs=[_two_control(400.0, (50.0, 150.0), (150.0, 250.0)),
                  _two_control(400.0, (50.0, 250.0)), _two_control(600.0)])
# -0.0 == 0.0, but the two start states print apart
@example(configs=[_two_control(400.0),
                  _two_control(400.0, initial=SystemState(1200.0, -0.0, 100.0))])
def test_shared_prefixes_equal_standalone_runs(configs):
    assert_equals_standalone_runs(configs, (r for r, _ in _results(configs, len(configs))))


def test_reference_suite_with_shared_prefixes_equals_standalone_runs():
    configs = reference_scenarios()
    assert_equals_standalone_runs(configs, (r for r, _ in _results(configs, len(configs))))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_run_matrix_equals_standalone_runs(kind):
    rng = random.Random(kind.value)
    levels = [(round(rng.random(), 4), round(rng.random(), 4)) for _ in range(14)]
    base = ScenarioConfig(kind, PARAMS, MeshSpec(0.0, 600.0, 0.1), DEFAULT_INITIAL,
                          EfficacySchedule.window(150.0, 400.0, 0.0, 0.0), label="matrix")
    results = run_matrix(base, levels)
    configs = [replace(base, schedule=base.schedule.with_efficacies(u1, u2), label=r.config.label)
               for (u1, u2), r in zip(levels, results)]
    assert_equals_standalone_runs(configs, results)


def assert_one_read_only_times_array_per_start_and_step(results):
    """Each trajectory's times equal its ``mesh.times()`` bit for bit and view one
    read-only array shared by every trajectory on the same mesh start and step."""
    by_start = {}
    for result in results:
        times, mesh = result.trajectory.times, result.config.mesh
        assert times.tobytes() == mesh.times().tobytes(), result.config.label
        assert not times.flags.writeable and not times.base.flags.writeable
        by_start.setdefault((mesh.a, mesh.h), []).append(times)
    for group in by_start.values():
        assert all(np.shares_memory(x, y) for x, y in itertools.combinations(group, 2))
    return by_start


def test_run_matrix_trajectories_share_one_read_only_times_array():
    base = ScenarioConfig(ModelKind.TWO_CONTROL, PARAMS, MeshSpec(0.0, 600.0, 0.1),
                          DEFAULT_INITIAL, EfficacySchedule.window(150.0, 400.0, 0.0, 0.0))
    results = run_matrix(base, [(u, u) for u in (0.0, 0.2, 0.3, 0.5)])
    assert len(assert_one_read_only_times_array_per_start_and_step(results)) == 1
    # nothing outlives the call: another call builds its own array
    again = run_matrix(base, [(0.2, 0.2)])[0].trajectory.times
    assert not np.shares_memory(again, results[0].trajectory.times)


def test_trajectories_on_a_mesh_of_ints_view_the_shared_times():
    # near equilibrium, as h = 1 is too coarse for the rates from DEFAULT_INITIAL
    base = ScenarioConfig(ModelKind.TWO_CONTROL, PARAMS, MeshSpec(0, 60, 1),
                          SystemState(240, 22, 903), EfficacySchedule.window(20, 40, 0.0, 0.0))
    assert run(base).trajectory.times.base is not None  # a view, not a float copy
    results = run_matrix(base, [(0.0, 0.0), (0.2, 0.2)])
    assert len(assert_one_read_only_times_array_per_start_and_step(results)) == 1


def test_reference_suite_shares_one_times_array_per_start_and_step():
    # the 400-day and 600-day meshes start at 0 with step 0.1: one array, the 600-day one
    configs = reference_scenarios()
    results = [r for r, _ in _results(configs, len(configs))]
    assert len(results) == 14
    assert len(assert_one_read_only_times_array_per_start_and_step(results)) == 1
    configs = reference_scenarios(h=0.5) + reference_scenarios()
    coarse = [r for r, _ in _results(configs, len(configs))]
    assert len(assert_one_read_only_times_array_per_start_and_step(coarse)) == 2
