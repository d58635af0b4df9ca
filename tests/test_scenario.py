"""Scenario runs, clinical metrics, dosage matrices, and linearization checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from viradyn import (
    COMBINED_DOSAGES,
    DEFAULT_INITIAL,
    SURVEY_INITIALS,
    EfficacySchedule,
    MeshSpec,
    ModelKind,
    ModelParams,
    ScenarioConfig,
    SystemState,
    compare_linearization,
    compute_metrics,
    reference_scenarios,
    run,
    run_matrix,
)
from viradyn.errors import IntegrationBlowupError

PARAMS = ModelParams()
EQUILIBRIUM = np.array([240.0, 21.666666666666668, 902.7777777777778])


def basic_config(t_end=400.0, h=0.1, initial=DEFAULT_INITIAL):
    return ScenarioConfig(ModelKind.BASIC, PARAMS, MeshSpec(0.0, t_end, h),
                          initial, EfficacySchedule(), label="basic")


def combined_config(u, t_end=600.0, window_end=400.0):
    return ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(0.0, t_end, 0.1),
                          DEFAULT_INITIAL,
                          EfficacySchedule.window(150.0, window_end, 0.0, u),
                          label=f"combined-u{u:g}")


# --- configuration validation -------------------------------------------------

def test_negative_initial_state_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        basic_config(initial=SystemState(-1.0, 0.0, 100.0))


def test_window_outside_mesh_rejected():
    with pytest.raises(ValueError, match="outside"):
        ScenarioConfig(ModelKind.COMBINED, PARAMS, MeshSpec(0.0, 300.0, 0.1),
                       DEFAULT_INITIAL, EfficacySchedule.window(150.0, 400.0, 0.0, 0.5))


# --- run and metrics ----------------------------------------------------------

def test_basic_run_reaches_reported_equilibrium():
    result = run(basic_config(t_end=1000.0))
    final = result.trajectory.states[-1]
    assert np.all(np.abs(final - EQUILIBRIUM) <= 0.01 * np.abs(EQUILIBRIUM))


def test_two_control_with_empty_schedule_matches_basic_bitwise():
    a = run(basic_config())
    b = run(replace(basic_config(), kind=ModelKind.TWO_CONTROL))
    assert np.array_equal(a.trajectory.states, b.trajectory.states)


def test_run_is_deterministic():
    a = run(basic_config(t_end=50.0))
    b = run(basic_config(t_end=50.0))
    assert np.array_equal(a.trajectory.states, b.trajectory.states)
    assert a.metrics == b.metrics


def test_metrics_recompute_exactly_from_the_trajectory():
    result = run(combined_config(0.4))
    again = compute_metrics(result.trajectory, result.config.schedule)
    assert again == result.metrics


def test_metrics_match_the_trajectory_peaks():
    result = run(basic_config(t_end=100.0))
    viral = result.trajectory.states[:, 2]
    assert result.metrics.peak_viral_load == viral.max()
    assert result.metrics.min_viral_load_during_treatment is None
    assert result.metrics.rebound_day is None


def test_suppression_days_counts_time_below_threshold():
    # flat V=10 trajectory: every one of the 9 steps counts
    times = np.arange(10) * 1.0
    states = np.column_stack([np.full(10, 500.0), np.zeros(10), np.full(10, 10.0)])
    from viradyn import Trajectory

    metrics = compute_metrics(Trajectory(times=times, states=states), EfficacySchedule())
    assert metrics.suppression_days == pytest.approx(9.0)


def test_treated_run_suppresses_then_rebounds():
    result = run(combined_config(0.7))
    m = result.metrics
    t = result.trajectory.times
    viral = result.trajectory.states[:, 2]
    v_at_start = viral[np.searchsorted(t, 150.0)]
    assert m.min_viral_load_during_treatment < v_at_start / 10.0
    assert m.rebound_day is not None and m.rebound_day > 400.0


def test_treated_run_qualitative_claims_hold_at_half_step_too():
    coarse = run(combined_config(0.7)).metrics
    fine = run(replace(combined_config(0.7), mesh=MeshSpec(0.0, 600.0, 0.05))).metrics
    for m in (coarse, fine):
        assert m.rebound_day is not None and m.rebound_day > 400.0
    assert coarse.rebound_day == pytest.approx(fine.rebound_day, abs=1.0)


# --- run_matrix -----------------------------------------------------------------

def test_single_zero_level_equals_zero_schedule_run():
    base = combined_config(0.9)
    [result] = run_matrix(base, [(0.0, 0.0)])
    reference = run(replace(base, schedule=base.schedule.with_efficacies(0.0, 0.0)))
    assert np.array_equal(result.trajectory.states, reference.trajectory.states)


def test_empty_level_list_rejected():
    with pytest.raises(ValueError, match="at least one"):
        run_matrix(combined_config(0.5), [])


def test_combined_dosage_ladder_monotone_in_treatment_minimum():
    base = combined_config(0.0)
    results = run_matrix(base, [(0.0, u) for u in COMBINED_DOSAGES])
    minima = [r.metrics.min_viral_load_during_treatment for r in results]
    assert all(hi < lo for lo, hi in zip(minima, minima[1:]))


def test_two_control_dosage_ladder_monotone_in_suppression():
    base = ScenarioConfig(ModelKind.TWO_CONTROL, PARAMS, MeshSpec(0.0, 600.0, 0.1),
                          DEFAULT_INITIAL,
                          EfficacySchedule.window(150.0, 400.0, 0.0, 0.0), label="tc")
    results = run_matrix(base, [(u, u) for u in (0.2, 0.3, 0.5)])
    days = [r.metrics.suppression_days for r in results]
    assert all(lo <= hi for lo, hi in zip(days, days[1:]))


# --- step-halving agreement -----------------------------------------------------

def test_preset_trajectories_agree_under_step_halving():
    # Agreement is measured relative to each component's trajectory-wide
    # magnitude: treated runs drive V toward zero, where a pointwise
    # relative measure would only amplify round-off.
    for config in reference_scenarios(PARAMS, h=0.1):
        fine = replace(config, mesh=MeshSpec(config.mesh.a, config.mesh.b, 0.05))
        coarse_states = run(config).trajectory.states
        fine_states = run(fine).trajectory.states[::2]
        sup = np.max(np.abs(coarse_states), axis=0)
        worst = np.max(np.abs(coarse_states - fine_states) / sup)
        assert worst < 1e-3, f"{config.label}: step-halving deviation {worst:.2e}"


def test_all_survey_initial_conditions_reach_the_same_equilibrium():
    finals = []
    for initial in SURVEY_INITIALS:
        result = run(basic_config(t_end=1000.0, initial=initial))
        final = result.trajectory.states[-1]
        assert np.all(np.abs(final - EQUILIBRIUM) <= 0.01 * np.abs(EQUILIBRIUM))
        finals.append(final)
    for i, a in enumerate(finals):
        for b in finals[i + 1:]:
            assert np.all(np.abs(a - b) <= 0.01 * np.maximum(np.abs(a), np.abs(b)))


# --- compare_linearization -------------------------------------------------------

def lin_config(t_end=50.0):
    return ScenarioConfig(ModelKind.BASIC, PARAMS, MeshSpec(0.0, t_end, 0.1),
                          DEFAULT_INITIAL, EfficacySchedule(), label="lin")


def test_zero_perturbation_has_zero_discrepancy():
    comparison = compare_linearization(lin_config(), (0.0, 0.0, 0.0))
    assert comparison.max_discrepancy <= 1e-8


def test_small_perturbation_tracks_the_nonlinear_flow():
    perturbation = np.array([1.0, 0.1, 5.0])
    comparison = compare_linearization(lin_config(), perturbation)
    assert comparison.max_discrepancy <= 0.05 * np.linalg.norm(perturbation)


def test_discrepancy_shrinks_superlinearly_with_the_perturbation():
    full = compare_linearization(lin_config(), (1.0, 0.1, 5.0))
    scaled = compare_linearization(lin_config(), (0.1, 0.01, 0.5))
    assert scaled.max_discrepancy < 0.05 * full.max_discrepancy


def test_linearization_bound_holds_for_random_small_perturbations():
    # The quadratic remainder constant measures up to ~0.45 per unit norm in
    # the worst (T_star-heavy) direction, so 5% tracking over 50 days needs
    # ||x0|| below ~0.11 for isotropic directions; 0.05 leaves a 2x margin.
    # Balanced directions tolerate far more (see the (1, 0.1, 5) test above).
    rng = np.random.default_rng(99)
    cfg = lin_config()
    for _ in range(10):
        direction = rng.normal(size=3)
        perturbation = 0.05 * direction / np.linalg.norm(direction)
        comparison = compare_linearization(cfg, perturbation)
        assert comparison.max_discrepancy <= 0.05 * np.linalg.norm(perturbation)


def test_component_max_is_recomputable():
    comparison = compare_linearization(lin_config(), (1.0, 0.1, 5.0))
    diff = np.abs(comparison.nonlinear - comparison.linearized)
    assert np.array_equal(comparison.component_max, diff.max(axis=0))


def test_non_basic_model_rejected():
    cfg = replace(lin_config(), kind=ModelKind.COMBINED)
    with pytest.raises(ValueError, match="basic"):
        compare_linearization(cfg, (1.0, 0.0, 0.0))


def test_large_perturbation_rejected():
    with pytest.raises(ValueError, match="exceed 10"):
        compare_linearization(lin_config(), (11.0, 0.0, 0.0))


def test_nan_perturbation_rejected_as_too_large():
    with pytest.raises(ValueError, match="exceed 10"):
        compare_linearization(lin_config(), (math.nan, 0.0, 0.0))


def test_missing_infected_equilibrium_rejected():
    # with s this small the infection cannot persist
    cfg = replace(lin_config(), params=ModelParams(s=0.1))
    with pytest.raises(ValueError, match="infected equilibrium"):
        compare_linearization(cfg, (1.0, 0.0, 0.0))


# --- failure propagation ----------------------------------------------------------

def test_blowup_carries_the_scenario_label():
    cfg = ScenarioConfig(ModelKind.BASIC, PARAMS, MeshSpec(0.0, 1.0, 0.1),
                         SystemState(1e300, 0.0, 1e300), EfficacySchedule(),
                         label="overflow-run")
    with pytest.raises(IntegrationBlowupError, match="overflow-run"):
        run(cfg)


# --- presets ------------------------------------------------------------------------

def test_reference_suite_covers_all_model_variants():
    labels = [cfg.label for cfg in reference_scenarios()]
    assert len(labels) == len(set(labels))
    assert sum(lbl.startswith("basic") for lbl in labels) == 4
    assert sum(lbl.startswith("two-control") for lbl in labels) == 5
    assert sum(lbl.startswith("combined") for lbl in labels) == 5
    assert sum("continuous" in lbl for lbl in labels) == 2
