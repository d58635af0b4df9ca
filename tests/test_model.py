"""Parameter validation, schedule lookup, effective rates, and the RHS."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from viradyn import (
    EfficacySchedule,
    ModelKind,
    ModelParams,
    SystemState,
    TreatmentWindow,
    effective_rates,
    rhs,
    rhs_at_rates,
)
from viradyn.errors import NonFiniteStateError

EMPTY = EfficacySchedule()

component = st.floats(min_value=-1e4, max_value=1e5, allow_nan=False, allow_infinity=False)
times_st = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
efficacy = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# --- ModelParams ------------------------------------------------------------

def test_default_params_are_the_standard_set():
    p = ModelParams()
    assert (p.s, p.d, p.beta, p.k, p.m1, p.m2) == (10.0, 0.02, 2.4e-5, 100.0, 2.4, 0.24)


@pytest.mark.parametrize("name", ["s", "d", "beta", "k", "m1", "m2"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_nonpositive_or_nonfinite(name, bad):
    with pytest.raises(ValueError, match=name):
        ModelParams(**{name: bad})


def test_system_state_rejects_nonfinite():
    with pytest.raises(ValueError, match="T_star"):
        SystemState(1.0, math.nan, 2.0)


# --- effective_rates --------------------------------------------------------

def test_two_control_zero_efficacy_is_identity():
    p = ModelParams()
    assert effective_rates(ModelKind.TWO_CONTROL, p, 0.0, 0.0) == (p.beta, p.k)


def test_two_control_half_dosage():
    p = ModelParams(beta=2.4e-5, k=100.0)
    beta_eff, k_eff = effective_rates(ModelKind.TWO_CONTROL, p, 0.5, 0.5)
    assert beta_eff == pytest.approx(1.2e-5, rel=1e-12)
    assert k_eff == pytest.approx(50.0, rel=1e-12)


def test_combined_full_pi_efficacy_zeroes_production():
    p = ModelParams()
    beta_eff, k_eff = effective_rates(ModelKind.COMBINED, p, 0.0, 1.0)
    assert k_eff == 0.0
    assert beta_eff == p.beta


def test_combined_ignores_u1():
    p = ModelParams()
    assert (effective_rates(ModelKind.COMBINED, p, 0.9, 0.3)
            == effective_rates(ModelKind.COMBINED, p, 0.0, 0.3))


def test_basic_ignores_efficacies():
    p = ModelParams()
    assert effective_rates(ModelKind.BASIC, p, 0.7, 0.7) == (p.beta, p.k)


@pytest.mark.parametrize("u1,u2", [(-0.1, 0.0), (0.0, 1.5), (math.nan, 0.0)])
def test_efficacies_outside_unit_interval_rejected(u1, u2):
    with pytest.raises(ValueError, match="efficacy"):
        effective_rates(ModelKind.TWO_CONTROL, ModelParams(), u1, u2)


# --- EfficacySchedule -------------------------------------------------------

def test_window_requires_increasing_times():
    with pytest.raises(ValueError, match="t_start < t_end"):
        TreatmentWindow(400.0, 150.0, 0.1, 0.1)


def test_window_requires_unit_interval_efficacies():
    with pytest.raises(ValueError, match="u2"):
        TreatmentWindow(0.0, 1.0, 0.5, 1.2)


def test_overlapping_windows_rejected():
    with pytest.raises(ValueError, match="overlapping"):
        EfficacySchedule((
            TreatmentWindow(0.0, 200.0, 0.1, 0.1),
            TreatmentWindow(150.0, 400.0, 0.2, 0.2),
        ))


def test_windows_sorted_on_construction():
    sched = EfficacySchedule((
        TreatmentWindow(300.0, 400.0, 0.3, 0.3),
        TreatmentWindow(0.0, 100.0, 0.1, 0.1),
    ))
    assert [seg.t_start for seg in sched.segments] == [0.0, 300.0]


def test_windows_are_half_open():
    sched = EfficacySchedule.window(150.0, 400.0, 0.5, 0.6)
    assert sched.efficacies_at(150.0) == (0.5, 0.6)   # start day is treated
    assert sched.efficacies_at(400.0) == (0.0, 0.0)   # termination day is not
    assert sched.efficacies_at(399.999) == (0.5, 0.6)


@given(start=st.floats(0, 500, allow_nan=False), width=st.floats(0.1, 200),
       u1=efficacy, u2=efficacy, offset=st.floats(0, 1, exclude_max=True))
def test_lookup_inside_window_returns_its_efficacies(start, width, u1, u2, offset):
    sched = EfficacySchedule.window(start, start + width, u1, u2)
    t = start + offset * width
    assume(start <= t < start + width)  # rounding can land t on the open end
    assert sched.efficacies_at(t) == (u1, u2)


@given(t=times_st)
def test_lookup_outside_all_windows_is_zero(t):
    sched = EfficacySchedule.window(1500.0, 1600.0, 0.9, 0.9)
    if not 1500.0 <= t < 1600.0:
        assert sched.efficacies_at(t) == (0.0, 0.0)


def test_with_efficacies_keeps_windows():
    sched = EfficacySchedule((
        TreatmentWindow(0.0, 100.0, 0.1, 0.2),
        TreatmentWindow(200.0, 300.0, 0.3, 0.4),
    ))
    swapped = sched.with_efficacies(0.7, 0.8)
    assert [(s.t_start, s.t_end) for s in swapped.segments] == [(0.0, 100.0), (200.0, 300.0)]
    assert all((s.u1, s.u2) == (0.7, 0.8) for s in swapped.segments)


# --- rhs --------------------------------------------------------------------

def test_rhs_hand_computed_value():
    # dT  = 10 - 0.02*1200 - 2.4e-5*1200*100 = 10 - 24 - 2.88 = -16.88
    # dT* = 2.88 - 0.24*0 = 2.88
    # dV  = 100*0 - 2.4*100 = -240
    p = ModelParams(s=10.0, d=0.02, beta=2.4e-5, k=100.0, m1=2.4, m2=0.24)
    d = rhs(ModelKind.BASIC, p, EMPTY, 0.0, SystemState(1200.0, 0.0, 100.0))
    assert d == pytest.approx([-16.88, 2.88, -240.0], abs=1e-12)


def test_rhs_nearly_vanishes_at_reported_equilibrium():
    # The reported point is printed to 6 digits, so the derivative is only
    # zero up to that rounding (the dV component carries ~3e-3 of it).
    p = ModelParams()
    d = rhs(ModelKind.BASIC, p, EMPTY, 0.0, SystemState(240.0, 21.6667, 902.778))
    assert np.all(np.abs(d) < 5e-3)


def test_rhs_vanishes_at_exact_equilibrium():
    from viradyn import equilibria, EquilibriumKind

    p = ModelParams()
    point = next(e.point for e in equilibria(p, 0.0, 0.0, ModelKind.BASIC)
                 if e.kind is EquilibriumKind.INFECTED)
    d = rhs(ModelKind.BASIC, p, EMPTY, 0.0, point)
    assert np.linalg.norm(d) < 1e-9 * (1.0 + np.linalg.norm(point.as_array()))


@given(T=component, T_star=component, V=component, t=times_st)
def test_two_control_with_zero_schedule_reduces_to_basic(T, T_star, V, t):
    p = ModelParams()
    state = SystemState(T, T_star, V)
    a = rhs(ModelKind.BASIC, p, EMPTY, t, state)
    b = rhs(ModelKind.TWO_CONTROL, p, EMPTY, t, state)
    assert np.array_equal(a, b)  # exact, not approximate


@given(T=component, T_star=component, V=component)
def test_infection_term_conserved_between_compartments(T, T_star, V):
    # dT/dt + dT*/dt == s - d*T - m2*T*: the beta*T*V term moves between
    # the first two equations with identical magnitude.
    p = ModelParams()
    d = rhs(ModelKind.BASIC, p, EMPTY, 0.0, SystemState(T, T_star, V))
    lhs = d[0] + d[1]
    expected = p.s - p.d * T - p.m2 * T_star
    scale = abs(p.s) + abs(p.d * T) + abs(p.m2 * T_star) + 2.0 * abs(p.beta * T * V) + 1.0
    assert abs(lhs - expected) <= 1e-13 * scale


@given(u_lo=efficacy, u_hi=efficacy)
def test_raising_u1_spares_healthy_cells(u_lo, u_hi):
    if u_lo > u_hi:
        u_lo, u_hi = u_hi, u_lo
    p = ModelParams()
    state = SystemState(800.0, 30.0, 400.0)  # T, V > 0
    lo = rhs(ModelKind.TWO_CONTROL, p, EfficacySchedule.window(0, 1, u_lo, 0.0), 0.5, state)
    hi = rhs(ModelKind.TWO_CONTROL, p, EfficacySchedule.window(0, 1, u_hi, 0.0), 0.5, state)
    assert hi[0] >= lo[0]  # dT/dt weakly increases
    assert hi[1] <= lo[1]  # dT*/dt weakly decreases


@given(u_lo=efficacy, u_hi=efficacy)
def test_raising_u2_slows_virion_production(u_lo, u_hi):
    if u_lo > u_hi:
        u_lo, u_hi = u_hi, u_lo
    p = ModelParams()
    state = SystemState(800.0, 30.0, 400.0)
    lo = rhs(ModelKind.TWO_CONTROL, p, EfficacySchedule.window(0, 1, 0.0, u_lo), 0.5, state)
    hi = rhs(ModelKind.TWO_CONTROL, p, EfficacySchedule.window(0, 1, 0.0, u_hi), 0.5, state)
    assert hi[2] <= lo[2]  # dV/dt weakly decreases


@pytest.mark.parametrize("w,name", [
    ([math.nan, 0.0, 0.0], "T"),
    ([0.0, math.inf, 0.0], "T_star"),
    ([0.0, 0.0, -math.inf], "V"),
])
def test_nonfinite_state_names_the_component(w, name):
    p = ModelParams()
    with pytest.raises(NonFiniteStateError, match=name):
        rhs_at_rates(p, p.beta, p.k, np.array(w))


def test_nonfinite_time_rejected():
    with pytest.raises(ValueError, match="time"):
        rhs(ModelKind.BASIC, ModelParams(), EMPTY, math.inf, SystemState(0.0, 0.0, 0.0))
