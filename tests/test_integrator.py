"""RK4 stepper and mesh driver: exactness, order, and failure modes."""

import math
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from viradyn import MeshSpec, Trajectory, integrate, integrator, rk4_step
from viradyn.errors import IntegrationBlowupError
from viradyn.integrator import mesh_index, negative_components


def decay(t, w):
    return -2.0 * w


# --- MeshSpec ---------------------------------------------------------------

def test_mesh_requires_ordered_interval():
    with pytest.raises(ValueError, match="a < b"):
        MeshSpec(1.0, 0.0, 0.1)


def test_mesh_requires_positive_step():
    with pytest.raises(ValueError, match="positive"):
        MeshSpec(0.0, 1.0, -0.1)


def test_mesh_rejects_step_that_does_not_divide():
    with pytest.raises(ValueError, match="does not divide"):
        MeshSpec(0.0, 1.0, 0.3)


def test_mesh_accepts_inexact_but_near_integral_division():
    mesh = MeshSpec(0.0, 400.0, 0.1)  # (b-a)/h = 4000.0000000000005
    assert mesh.n_steps == 4000
    times = mesh.times()
    assert len(times) == 4001
    assert times[-1] == pytest.approx(400.0, rel=1e-9)


@pytest.mark.parametrize("a, b", [(1e6, 1000400.0), (-1e6, -999600.0)])
def test_mesh_whose_float_times_are_not_uniform_is_rejected(a, b):
    # far from 0 the float times a + i*h drift more than 1e-9 relative from
    # uniform; the mesh is refused before anything is integrated on it
    with pytest.raises(ValueError, match=rf"mesh \[{a}, {b}\] with step h=0.1 must be "
                                         "uniformly spaced"):
        MeshSpec(a, b, 0.1)


def test_meshes_far_from_zero_with_uniform_float_times_are_accepted():
    mesh = MeshSpec(1e5, 100400.0, 0.1)  # checked step by step, and uniform
    Trajectory(mesh.times(), np.zeros((mesh.n_steps + 1, 1)))
    assert MeshSpec(0.0, 1e12, 0.125).n_steps == 8 * 10**12  # exact times, not scanned


@pytest.mark.parametrize("b", [1e16, 1e300])
def test_mesh_past_the_exact_float_times_is_refused_from_its_first_inexact_time(b):
    # every time below 2**53 is exact, so the spacing check starts there and its
    # first block holds 2**53 + 1, which rounds to 2**53: a step of 0
    with pytest.raises(ValueError, match=r"with step h=1\.0 must be uniformly spaced; "
                                         r"one step is 0\.0$"):
        MeshSpec(0.0, b, 1.0)


def test_mesh_whose_start_is_finer_than_its_step_is_exact_without_a_scan():
    # a = 1/2 and h = 1 share the denominator 2, so every a + i*h below 2**52 is exact
    assert MeshSpec(0.5, 4e15 + 0.5, 1.0).n_steps == 4 * 10**15


@given(exponent=st.floats(0.0, 7.5), sign=st.sampled_from([1.0, -1.0]),
       h=st.sampled_from([0.1, 0.05, 0.125, 1 / 3, 0.001, 7.0]), n=st.integers(1, 2000))
def test_mesh_accepts_exactly_the_meshes_whose_times_make_a_trajectory(exponent, sign, h, n):
    a = sign * float(round(10.0 ** exponent))
    b = a + n * h
    times = a + np.arange(n + 1) * h
    assume(a < b and mesh_index(a, b, h) == n)
    try:
        Trajectory(times, np.zeros((n + 1, 1)))
        trajectory_ok = True
    except ValueError:
        trajectory_ok = False
    try:
        MeshSpec(a, b, h)
        mesh_ok = True
    except ValueError as err:
        assert "uniformly spaced" in str(err)
        mesh_ok = False
    assert mesh_ok == trajectory_ok


@pytest.fixture
def deadline():
    """Fail a test that runs past 10 s, where a hang would stop the suite."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("ran past 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_mesh_whose_start_has_bits_finer_than_its_step_is_decided_in_bounded_time(deadline):
    # a = 2**-40: past index 8,191 every a + i*h rounds to the whole number i, so each
    # step is exactly 1 up to 2**53, where i itself rounds and a step is 0
    with pytest.raises(ValueError, match=r"\[9\.094947017729282e-13, 1e\+16\] with step h=1\.0 "
                                         r"must be uniformly spaced; one step is 0\.0$"):
        MeshSpec(2.0**-40, 1e16, 1.0)
    assert MeshSpec(2.0**-40, 2.0**40, 1.0).n_steps == 2**40


def test_mesh_whose_first_step_rounds_to_zero_is_rejected_naming_it():
    with pytest.raises(ValueError, match=r"must be uniformly spaced; the first step is 0\.0$"):
        MeshSpec(2.0**60, 2.0**60 + 256, 1.0)


def test_mesh_with_exact_or_finely_rounded_times_is_accepted_without_a_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(integrator, "_check_spacing", scan)
    assert MeshSpec(0.0, 1e12, 0.125).n_steps == 8 * 10**12  # every time exact
    assert MeshSpec(1e5, 100400.0, 0.1).n_steps == 4000  # spacing 1.5e-11, step 0.1


def test_mesh_that_would_need_too_long_a_scan_is_refused(monkeypatch):
    # its steps drift past 1e-9 relative only millions of steps in
    monkeypatch.setattr(integrator, "_SCAN_LIMIT", 1 << 16)
    with pytest.raises(ValueError, match=r"^the times of mesh \[0\.0, 10000000\.0\] with step "
                                         r"h=0\.1 cannot be checked for uniform spacing in "
                                         r"bounded time: more than 65536 steps"):
        MeshSpec(0.0, 1e7, 0.1)


@settings(deadline=None)
@given(exponent=st.integers(0, 42), bits=st.integers(-2**20, 2**20), shift=st.integers(0, 60),
       sign=st.sampled_from([1.0, -1.0]), back=st.booleans(),
       h=st.sampled_from([1.0, 0.375, 3.0, 2.0**-10, 3 * 2.0**-10, 0.1, 1 / 3, 1 + 2.0**-29,
                          0.5 + 2.0**-30]),
       n=st.integers(1, 3000))
# past 2**23, from step 5 on, a + i*h ties at every i and rounds alternately down and up
@example(exponent=23, bits=-(5 * 2**30 + 3), shift=30, sign=1.0, back=False, h=1 + 2.0**-29,
         n=7)
# every step is exactly h but the one into the binade of 2**30, which rounds
@example(exponent=30, bits=-(50 * 3 * 2**20 + 1), shift=23, sign=1.0, back=False, h=0.375,
         n=1000)
def test_mesh_with_a_finely_divided_start_agrees_with_its_trajectory(exponent, bits, shift,
                                                                     sign, back, h, n):
    # near a power of two, with bits below h and, when ``back``, times that cross 0: times
    # whose rounding the check proves uniform, alternating on ties, or compares step by step
    a = sign * 2.0**exponent + bits * 2.0**-shift - back * (n // 2) * h
    b = a + n * h
    assume(a < b and mesh_index(a, b, h) == n)
    try:
        Trajectory(a + np.arange(n + 1) * h, np.zeros((n + 1, 1)))
        trajectory_ok = True
    except ValueError:
        trajectory_ok = False
    try:
        MeshSpec(a, b, h)
        mesh_ok = True
    except ValueError as err:
        assert "uniformly spaced" in str(err)
        mesh_ok = False
    assert mesh_ok == trajectory_ok


# --- rk4_step ---------------------------------------------------------------

def test_zero_field_leaves_state_unchanged():
    w = np.array([3.0, -1.0, 7.5])
    out = rk4_step(lambda t, w: np.zeros_like(w), 0.0, w, 0.1)
    assert np.array_equal(out, w)


def test_constant_field_is_integrated_exactly():
    out = rk4_step(lambda t, w: np.ones_like(w), 0.0, np.array([0.0]), 0.5)
    assert out[0] == 0.5


def test_single_decay_step_matches_hand_computed_stages():
    # k1=-0.2, k2=-0.18, k3=-0.182, k4=-0.1636
    # w1 = 1 - 1.0876/6 = 0.81873333...; exact e^-0.2 = 0.81873075...
    out = rk4_step(decay, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(0.8187333333333333, abs=1e-15)
    assert abs(out[0] - math.exp(-0.2)) < 3e-6


def test_stage_blowup_reports_time_and_stage():
    def exploding(t, w):
        return np.array([math.inf])

    with pytest.raises(IntegrationBlowupError) as exc:
        rk4_step(exploding, 3.0, np.array([1.0]), 0.1)
    assert exc.value.t == 3.0
    assert exc.value.stage == 1


def test_overflowing_stage_input_is_a_blowup_of_that_stage():
    # k1 is finite, but the input of k2, w + 0.5*k1, overflows; the field
    # itself rejects non-finite states, so the step must stop before it
    from viradyn import ModelParams
    from viradyn.model import rhs_at_rates

    params = ModelParams(s=1.7e308, d=1e-300)
    f = lambda t, w: rhs_at_rates(params, params.beta, params.k, w)
    w0 = np.array([1.7e308, 0.0, 0.0])
    with pytest.raises(IntegrationBlowupError) as exc:
        rk4_step(f, 0.0, w0, 1.0)
    assert (exc.value.t, exc.value.stage) == (0.0, 2)
    with pytest.raises(IntegrationBlowupError) as exc:
        integrate(f, MeshSpec(0.0, 2.0, 1.0), w0)
    assert (exc.value.t, exc.value.stage, exc.value.step) == (0.0, 2, 0)


def test_nonpositive_step_rejected():
    with pytest.raises(ValueError, match="step"):
        rk4_step(decay, 0.0, np.array([1.0]), 0.0)


def test_nan_step_rejected_as_not_positive():
    with pytest.raises(ValueError, match="step must be positive, got nan"):
        rk4_step(decay, 0.0, np.array([1.0]), math.nan)


# --- integrate --------------------------------------------------------------

def test_zero_field_trajectory_is_constant():
    w0 = np.array([1200.0, 0.0, 100.0])
    traj = integrate(lambda t, w: np.zeros_like(w), MeshSpec(0.0, 400.0, 0.1), w0)
    assert len(traj.times) == 4001
    assert np.all(traj.states == w0)


def test_decay_endpoint_close_to_exact_solution():
    # Exact solution u(t) = e^(-2t); at h=0.1 the RK4 endpoint error is
    # 4.2652e-6 (amplification-factor arithmetic), so 5e-6 is the bound.
    traj = integrate(decay, MeshSpec(0.0, 1.0, 0.1), [1.0])
    assert abs(traj.states[-1, 0] - math.exp(-2.0)) < 5e-6


def test_fourth_order_convergence_on_decay():
    errors = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate(decay, MeshSpec(0.0, 1.0, h), [1.0])
        errors.append(abs(traj.states[-1, 0] - math.exp(-2.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_hiv_basic_reaches_equilibrium_within_one_percent():
    from viradyn import ModelKind, ModelParams, effective_rates, rhs_at_rates

    params = ModelParams()
    rates = effective_rates(ModelKind.BASIC, params, 0.0, 0.0)
    f = lambda t, w: rhs_at_rates(params, *rates, w)
    traj = integrate(f, MeshSpec(0.0, 1000.0, 0.1), [1200.0, 0.0, 100.0])
    equilibrium = np.array([240.0, 21.666666666666668, 902.7777777777778])
    assert np.all(np.abs(traj.states[-1] - equilibrium) <= 0.01 * np.abs(equilibrium))


def test_integration_is_deterministic():
    mesh = MeshSpec(0.0, 5.0, 0.1)
    a = integrate(decay, mesh, [1.0])
    b = integrate(decay, mesh, [1.0])
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_mesh_integrity_of_output():
    mesh = MeshSpec(2.0, 7.0, 0.25)
    traj = integrate(decay, mesh, [1.0])
    steps = np.diff(traj.times)
    assert np.all(np.abs(steps - 0.25) <= 1e-9 * 0.25)
    assert traj.times[-1] == pytest.approx(7.0, rel=1e-9)
    assert traj.h == pytest.approx(0.25)


def test_linear_field_commutes_with_scaling_by_two_exactly():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    f = lambda t, w: A @ w
    mesh = MeshSpec(0.0, 1.0, 0.05)
    w0 = rng.normal(size=3)
    assert np.array_equal(integrate(f, mesh, 2.0 * w0).states,
                          2.0 * integrate(f, mesh, w0).states)


@given(c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_linear_field_commutes_with_scaling(c):
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.2], [0.0, -0.2, -0.1]])
    f = lambda t, w: A @ w
    mesh = MeshSpec(0.0, 1.0, 0.1)
    w0 = np.array([1.0, -0.5, 0.25])
    scaled = integrate(f, mesh, c * w0).states
    reference = c * integrate(f, mesh, w0).states
    norm = np.max(np.abs(reference))
    assert np.max(np.abs(scaled - reference)) <= 1e-12 * norm


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_blowup_propagates_with_step_index():
    # dy/dt = y^2 from y(0)=1 blows up at t=1; RK4 overflows past it.
    with pytest.raises(IntegrationBlowupError) as exc:
        integrate(lambda t, w: w * w, MeshSpec(0.0, 2.0, 0.1), [1.0])
    assert exc.value.step is not None
    assert exc.value.t >= 0.9


def test_initial_state_must_be_finite():
    with pytest.raises(ValueError, match="finite"):
        integrate(decay, MeshSpec(0.0, 1.0, 0.1), [math.nan])


# --- Trajectory -------------------------------------------------------------

def test_trajectory_rejects_nonuniform_times():
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(times=np.array([0.0, 0.1, 0.3]), states=np.zeros((3, 1)))


@pytest.mark.parametrize("times", [[0.0, 1.0, math.nan], [math.nan, 1.0, 2.0],
                                   [-math.inf, 0.0, 1.0]])
def test_trajectory_rejects_non_finite_times(times):
    with pytest.raises(ValueError, match="trajectory times must be finite"):
        Trajectory(times=np.array(times), states=np.zeros((3, 1)))


def test_spacing_check_counts_a_nan_step_as_off():
    with pytest.raises(ValueError, match="times must be uniformly spaced; one step is nan"):
        integrator._check_spacing(np.array([0.0, 1.0, math.nan]), 1.0, "times")


def test_trajectory_rejects_length_mismatch():
    with pytest.raises(ValueError, match="row per mesh time"):
        Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((3, 1)))


def test_trajectory_arrays_are_read_only():
    traj = integrate(decay, MeshSpec(0.0, 1.0, 0.5), [1.0])
    with pytest.raises(ValueError):
        traj.states[0, 0] = 99.0


def test_negative_component_flagging():
    times = np.array([0.0, 1.0, 2.0])
    states = np.array([[1.0], [-1e-9], [-1e-3]])
    traj = Trajectory(times=times, states=states)
    assert negative_components(traj) == [(2, 0)]  # tiny dip stays unflagged
